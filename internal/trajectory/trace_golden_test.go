package trajectory

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"trajan/internal/model"
	"trajan/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// traceLifecycle drives one traced analyzer lifecycle into tr. Every
// step is followed by a "test.step" marker event naming the step and
// its outcome ("ok" or the error string), so the golden log reads as a
// script. The steps exercise every point at which a view can first be
// handed out: cold fixed points under each estimator, a single-flow
// query that leaves full views unrequested, warm delta mutations, a
// refused admission undone through the snapshot chain, a busy period
// that diverges at a non-first prefix, and a serial WhatIf batch.
func traceLifecycle(t *testing.T, tr obs.Tracer) {
	t.Helper()
	step := func(name string, err error) {
		outcome := "ok"
		if err != nil {
			outcome = err.Error()
		}
		tr.Emit(obs.Event{Type: "test.step", Op: name, Outcome: outcome})
	}
	newA := func(fs *model.FlowSet, opt Options) *Analyzer {
		opt.Tracer = tr
		a, err := NewAnalyzer(fs, opt)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	paper := model.PaperExample()
	line := determinismSets(t)[1]

	// Cold analyses under every estimator.
	for _, mode := range []SmaxMode{SmaxPrefixFixpoint, SmaxGlobalTail, SmaxNoQueue} {
		_, err := newA(paper, Options{Smax: mode}).Analyze()
		step("cold-analyze-"+mode.String(), err)
	}

	// AnalyzeFlow on fresh analyzers: the fixed point requests every
	// prefix view but only one full view; later queries request the rest.
	for _, mode := range []SmaxMode{SmaxPrefixFixpoint, SmaxGlobalTail} {
		a := newA(line, Options{Smax: mode})
		_, err := a.AnalyzeFlow(2)
		step("analyze-flow-2-"+mode.String(), err)
		_, err = a.AnalyzeFlow(0)
		step("analyze-flow-0-"+mode.String(), err)
		_, err = a.Bounds()
		step("bounds-"+mode.String(), err)
	}

	// Warm delta mutations.
	a := newA(line, Options{})
	_, err := a.Analyze()
	step("warm-base", err)
	_, err = a.AddFlow(model.UniformFlow("probe", 40, 1, 0, 2, 2, 3, 4))
	step("add-probe", err)
	_, err = a.Analyze()
	step("analyze-after-add", err)
	err = a.UpdateFlow(1, model.UniformFlow(line.Flows[1].Name, 50, 0, 0, 1, 4, 3, 2, 1))
	step("update-1", err)
	_, err = a.Bounds()
	step("bounds-after-update", err)
	err = a.RemoveFlow(0)
	step("remove-0", err)
	_, err = a.Analyze()
	step("analyze-after-remove", err)

	// A refused admission: add a hog, find a bound past its deadline,
	// undo through the snapshot, re-read. A second probe queries only
	// its own flow before the undo, leaving full views unrequested.
	b := newA(paper, Options{})
	_, err = b.Bounds()
	step("admit-base", err)
	idx, err := b.AddFlow(model.UniformFlow("hog", 36, 0, 20, 9, 1, 3, 4, 5))
	step("admit-hog", err)
	bounds, err := b.Bounds()
	step("admit-hog-bounds", err)
	if err == nil && bounds[idx] <= 20 {
		t.Fatalf("hog bound %d meets its deadline; the refusal step needs a miss", bounds[idx])
	}
	err = b.RemoveFlow(idx)
	step("refuse-hog-undo", err)
	_, err = b.Analyze()
	step("analyze-after-undo", err)
	idx, err = b.AddFlow(model.UniformFlow("peek", 72, 0, 0, 2, 2, 3, 4))
	step("admit-peek", err)
	_, err = b.AnalyzeFlow(idx)
	step("peek-analyze-flow", err)
	err = b.RemoveFlow(idx)
	step("refuse-peek-undo", err)
	_, err = b.Bounds()
	step("bounds-after-peek-undo", err)

	// Bslow diverges at flow a's second prefix: node 2 is overloaded,
	// node 1 is not. Removing the disjoint flow d keeps a's views (the
	// divergent one included); removing c drops them. The global-tail
	// run with explicit seed bounds skips the per-node busy-period
	// seed, so its divergence surfaces in a full view's build.
	over := model.MustNewFlowSet(model.UnitDelayNetwork(), []*model.Flow{
		model.UniformFlow("a", 10, 0, 0, 1, 1, 2, 3),
		model.UniformFlow("b", 10, 0, 0, 5, 2, 5),
		model.UniformFlow("c", 10, 0, 0, 5, 2, 6),
		model.UniformFlow("d", 10, 0, 0, 1, 7, 8),
	})
	for _, opt := range []Options{
		{Smax: SmaxPrefixFixpoint},
		{Smax: SmaxGlobalTail},
		{Smax: SmaxGlobalTail, SeedBounds: []model.Time{10, 10, 10, 10}},
	} {
		tag := opt.Smax.String()
		if opt.SeedBounds != nil {
			tag += "-seeded"
		}
		c := newA(over, opt)
		_, err = c.Analyze()
		step("diverge-analyze-"+tag, err)
		_, err = c.Bounds()
		step("diverge-bounds-"+tag, err)
		if opt.SeedBounds != nil {
			continue // seed bounds index the flow list: no mutations
		}
		err = c.RemoveFlow(3)
		step("diverge-remove-d-"+tag, err)
		_, err = c.Analyze()
		step("diverge-analyze-after-remove-d-"+tag, err)
		err = c.RemoveFlow(2)
		step("diverge-remove-c-"+tag, err)
		_, err = c.Analyze()
		step("diverge-analyze-after-remove-c-"+tag, err)
	}

	// A serial WhatIf batch against a converged base, mixing admits,
	// a renegotiation, a release, a divergent admit and invalid
	// candidates; then one against a fresh, unanalyzed base.
	w := newA(paper, Options{Parallelism: 1})
	_, err = w.Bounds()
	step("whatif-base", err)
	cands := []Candidate{
		{Add: model.UniformFlow("wi-add", 72, 0, 0, 2, 2, 3, 4)},
		{Update: model.UniformFlow("tau2", 36, 0, 0, 3, 2, 3, 4, 5), Index: 1},
		{Remove: true, Index: 0},
		{Add: model.UniformFlow("wi-hog", 4, 0, 0, 3, 3, 4)},
		{Add: paper.Flows[0]},
		{Remove: true, Index: 99},
		{},
	}
	for k, o := range w.WhatIf(cands) {
		step("whatif-outcome-"+string(rune('1'+k)), o.Err)
	}
	for k, o := range newA(line, Options{Parallelism: 1}).WhatIf(cands[:3]) {
		step("whatif-fresh-outcome-"+string(rune('1'+k)), o.Err)
	}
}

// TestTraceLifecycleGolden pins the engine's trace byte for byte over
// the traceLifecycle script: bslow.fixpoint events must appear exactly
// when a view is first handed out to the analyzer that asked for it,
// however far ahead of that request the view was built.
// Regenerate with -update only after an intentional schema change.
func TestTraceLifecycleGolden(t *testing.T) {
	var buf bytes.Buffer
	tr := obs.NewJSONTracer(&buf)
	traceLifecycle(t, tr)
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "trace_lifecycle.jsonl")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		got := bytes.Split(buf.Bytes(), []byte("\n"))
		exp := bytes.Split(want, []byte("\n"))
		for k := 0; k < len(got) && k < len(exp); k++ {
			if !bytes.Equal(got[k], exp[k]) {
				t.Fatalf("trace diverges from golden at line %d:\ngot:  %s\nwant: %s", k+1, got[k], exp[k])
			}
		}
		t.Fatalf("trace length %d lines, golden %d lines", len(got), len(exp))
	}
}
