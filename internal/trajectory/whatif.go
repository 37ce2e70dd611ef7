package trajectory

import (
	"context"
	"sync"
	"sync/atomic"

	"trajan/internal/model"
	"trajan/internal/obs"
)

// Candidate describes one hypothetical mutation for WhatIf: exactly one
// of Add, Update or Remove should be set. Update and Remove identify
// their target through Index.
type Candidate struct {
	Add    *model.Flow // admit this flow
	Update *model.Flow // replace flow Index with this flow
	Remove bool        // evict flow Index
	Index  int
}

// WhatIfOutcome is one candidate's analysis: the full Result of the
// hypothetically mutated flow set, or the error the mutation or the
// analysis produced (exactly what AddFlow/UpdateFlow/RemoveFlow
// followed by Analyze would have returned on a real Analyzer).
type WhatIfOutcome struct {
	Result *Result
	Err    error
}

// WhatIf evaluates N candidate mutations against one immutable base
// snapshot, in parallel (up to Options.Parallelism candidates at once).
// The base Analyzer is not modified: each candidate runs on a
// copy-on-write fork sharing the base's flow set, converged Smax table
// and view caches, and patches only what its own mutation touches. A
// candidate's outcome is bit-identical to mutating a (copy of the) base
// and calling Analyze — including warm-start behavior, so a converged
// base makes every candidate a delta re-analysis. Traced batches emit
// each candidate's events as one block, in candidate order, so the
// trace is the serial batch's at any parallelism (only the batch
// event's Workers count differs).
func (a *Analyzer) WhatIf(cands []Candidate) []WhatIfOutcome {
	return a.WhatIfContext(context.Background(), cands)
}

// WhatIfContext is WhatIf with cancellation; a canceled context aborts
// in-flight candidates with ErrCanceled outcomes.
func (a *Analyzer) WhatIfContext(ctx context.Context, cands []Candidate) []WhatIfOutcome {
	out := make([]WhatIfOutcome, len(cands))
	if len(cands) == 0 {
		return out
	}
	// Converge the base once so every fork warm-starts from the shared
	// table instead of each paying a cold fixed point. A latched base
	// error is fine — forks clear it on mutation and go cold; only a
	// cancellation aborts the batch.
	if err := a.ensureSmax(ctx); err != nil {
		if cErr := ctxErr(ctx); cErr != nil {
			for k := range out {
				out[k].Err = cErr
			}
			return out
		}
	} else {
		// Best-effort: materialize the full views so forks share them.
		for i := 0; i < a.fs.N(); i++ {
			if _, err := a.fullCache(i); err != nil {
				break
			}
		}
		// Build the dense topology once here too — forks alias it, so no
		// candidate pays the map-heavy construction on its own goroutine.
		a.ensureTopo()
	}

	workers := a.opt.workers()
	if workers > len(cands) {
		workers = len(cands)
	}
	tr := a.opt.Tracer
	if tr != nil {
		tr.Emit(obs.Event{Type: obs.EvWhatIfBatch, Candidates: len(cands), Workers: workers})
	}
	// Concurrent forks buffer their events per candidate; the buffers
	// are forwarded in candidate order once the batch is done.
	var bufs []obs.Collector
	if tr != nil && workers > 1 {
		bufs = make([]obs.Collector, len(cands))
	}
	run := func(k int) {
		f := a.fork()
		if bufs != nil {
			f.opt.Tracer = &bufs[k]
		}
		// Seed the fork's serial evaluation scratch from the shared pool:
		// candidate analyses reuse grown buffers across the batch (and
		// across batches) instead of each fork growing its own from zero.
		psc := scratchPool.Get().(*evalScratch)
		f.scratch = *psc
		c := &cands[k]
		var err error
		op := "invalid"
		switch {
		case c.Add != nil:
			op = "add"
			_, err = f.AddFlow(c.Add)
		case c.Update != nil:
			op = "update"
			err = f.UpdateFlow(c.Index, c.Update)
		case c.Remove:
			op = "remove"
			err = f.RemoveFlow(c.Index)
		default:
			err = model.Errorf(model.ErrInvalidConfig, "trajectory: candidate %d specifies no mutation", k)
		}
		if err == nil {
			out[k].Result, out[k].Err = f.AnalyzeContext(ctx)
		} else {
			out[k].Err = err
		}
		*psc = f.scratch
		scratchPool.Put(psc)
		if ftr := f.opt.Tracer; ftr != nil {
			outcome := "ok"
			if out[k].Err != nil {
				outcome = "err"
			}
			ftr.Emit(obs.Event{Type: obs.EvWhatIfCand, Index: k + 1, Op: op, Outcome: outcome})
		}
	}
	if workers <= 1 {
		for k := range cands {
			run(k)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := next.Add(1) - 1
				if k >= int64(len(cands)) {
					return
				}
				run(int(k))
			}
		}()
	}
	wg.Wait()
	for k := range bufs {
		for _, e := range bufs[k].Events() {
			tr.Emit(e)
		}
	}
	return out
}

// fork produces a copy-on-write child of the Analyzer for one WhatIf
// candidate. The child shares the flow set, the converged Smax table,
// the entry bases and every built view object; the cache arrays
// themselves are copied so the child's lazy fills and remaps never
// write into base-owned (and sibling-shared) memory. Children run
// serially inside themselves — parallelism lives across candidates.
func (a *Analyzer) fork() *Analyzer {
	f := &Analyzer{
		fs:        a.fs,
		opt:       a.opt,
		entryBase: a.entryBase,
		nEntries:  a.nEntries,
		topo:      a.topo,
		smax:      a.smax,
		smaxFlat:  a.smaxFlat,
		sweeps:    a.sweeps,
		converged: a.converged,
		smaxDone:  a.smaxDone,
		smaxErr:   a.smaxErr,
		cow:       true,
		// The fork's arena starts empty: it carves slices only for the
		// views its own mutation rebuilds or remaps, so sibling forks
		// never touch each other's chunks. pendingSeed/pendingDirty are
		// shared as-is — the engine fixed point copies the seed into a
		// fresh flat table instead of mutating it, and a fork's own
		// mutations replace (never write through) these references.
		pendingSeed:  a.pendingSeed,
		pendingDirty: a.pendingDirty,
	}
	f.full = append([]viewSlot(nil), a.full...)
	f.prefix = make([][]viewSlot, len(a.prefix))
	for i, row := range a.prefix {
		if row != nil {
			f.prefix[i] = append([]viewSlot(nil), row...)
		}
	}
	return f
}
