package trajectory

import (
	"context"
	"sync"
	"sync/atomic"

	"trajan/internal/model"
)

// This file holds both sweep loops:
//
//   - runViews: the reference path's loop over straight-line
//     boundForView computations (pathView jobs).
//   - sweep: the engine's loop over cached SoA views against a flat
//     Smax table.
//
// Both evaluate in slot order against the previous table (Jacobi
// iteration) and stop at the first error, so the first failing slot
// wins on both paths — which is what keeps the engine differentially
// pinned to the reference.

// viewJob is one independent bound computation of a fixed-point sweep.
type viewJob struct {
	view pathView
	// dst receives the resulting bound; each job writes a distinct slot.
	dst *model.Time
}

// safeBoundForView is boundForView with panic containment: a panic in
// an evaluation (a broken internal invariant) becomes ErrInternal
// instead of unwinding into the caller.
func safeBoundForView(fs *model.FlowSet, opt Options, view pathView, smax smaxTable) (r model.Time, err error) {
	defer func() {
		if p := recover(); p != nil {
			r, err = 0, internalPanicError(view.flow, len(view.path), p)
		}
	}()
	if testPanicHook != nil {
		testPanicHook(view.flow, len(view.path))
	}
	return boundForView(fs, opt, view, smax)
}

// runViews evaluates the jobs in order against an immutable Smax
// table and returns the first error.
func runViews(fs *model.FlowSet, opt Options, smax smaxTable, jobs []viewJob) error {
	for k := range jobs {
		r, err := safeBoundForView(fs, opt, jobs[k].view, smax)
		if err != nil {
			return err
		}
		*jobs[k].dst = r
	}
	return nil
}

// scratchPool recycles evaluation scratches across WhatIf forks and
// across Analyzers: every candidate of a batch runs on a fresh fork,
// and pooling lets it reuse buffers grown by earlier candidates instead
// of growing its own from zero. scratchPoolNews counts pool misses
// (fresh allocations) — the churn gauge the CLIs export; a steadily
// climbing value under constant load means the GC is draining the pool
// faster than the what-if cadence refills it.
var (
	scratchPoolNews atomic.Int64
	scratchPool     = sync.Pool{New: func() any {
		scratchPoolNews.Add(1)
		return new(evalScratch)
	}}
)

// ScratchPoolNews reports the cumulative number of evaluation scratches
// allocated because the pool was empty (process-wide, monotone).
func ScratchPoolNews() int64 { return scratchPoolNews.Load() }

// sweep evaluates every dirty view, in slot order, against the
// immutable flat Smax table, writing view m's bound to dst[m]. The
// context is checked before each view, so a cancellation surfaces
// within one sweep, and each evaluation goes through safeEval, which
// contains panics as ErrInternal. It returns the number of views
// evaluated; on error the first failing slot's error is returned.
func (a *Analyzer) sweep(ctx context.Context, views []*viewCache, dirty []bool, dst, flat []model.Time) (int, error) {
	evaluated := 0
	for m, vc := range views {
		if !dirty[m] {
			continue
		}
		if err := ctxErr(ctx); err != nil {
			return evaluated, err
		}
		r, _, err := a.safeEval(vc, flat, &a.scratch)
		if err != nil {
			return evaluated, err
		}
		dst[m] = r
		evaluated++
	}
	return evaluated, nil
}
