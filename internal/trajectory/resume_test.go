package trajectory

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"trajan/internal/model"
	"trajan/internal/obs"
)

// coldOutcome analyses the candidate's mutated set on a fresh Analyzer
// built straight from the set — no mutation path involved.
func coldOutcome(t *testing.T, base *model.FlowSet, opt Options, c Candidate) WhatIfOutcome {
	t.Helper()
	var nfs *model.FlowSet
	var err error
	switch {
	case c.Add != nil:
		nfs, err = base.WithFlowAdded(c.Add)
	case c.Update != nil:
		nfs, err = base.WithFlowUpdated(c.Index, c.Update)
	default:
		nfs, err = base.WithFlowRemoved(c.Index)
	}
	if err != nil {
		return WhatIfOutcome{Err: err}
	}
	a, err := NewAnalyzer(nfs, opt)
	if err != nil {
		t.Fatalf("cold NewAnalyzer: %v", err)
	}
	res, err := a.Analyze()
	return WhatIfOutcome{Result: res, Err: err}
}

// requireViewsMatchCold compares every view the warm analyzer holds
// with the view a cold analyzer builds for the same set, field by
// field: rows, constants, saturation flags and the stored end-of-rows
// state alike. Only the flow count a view was built against may differ
// — a view no later flow meets is valid as it stands. Call it after a
// successful Analyze of the warm analyzer.
func requireViewsMatchCold(t *testing.T, tag string, warm *Analyzer, opt Options) {
	t.Helper()
	cold, err := NewAnalyzer(warm.FlowSet(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cold.Analyze(); err != nil {
		t.Fatalf("%s: cold Analyze: %v", tag, err)
	}
	for i, f := range warm.FlowSet().Flows {
		for p := 1; p <= len(f.Path); p++ {
			w, c := warm.slot(i, p).vc, cold.slot(i, p).vc
			if w == nil || c == nil {
				t.Fatalf("%s: view (%d,%d) missing: warm %v cold %v", tag, i, p, w != nil, c != nil)
			}
			wv, cv := *w, *c
			wv.n, cv.n = 0, 0
			if !reflect.DeepEqual(wv, cv) {
				t.Fatalf("%s: view (%d,%d) differs from a cold build\nwarm: %+v\ncold: %+v", tag, i, p, wv, cv)
			}
		}
	}
}

// TestResumeRandomScriptsMatchCold drives seeded random scripts of
// admits, updates and releases of the newest flow and of older flows,
// and WhatIf batches, through one warm analyzer per option setting.
// Queries follow only some mutations, so views go stale across several
// adds and undo restores before they resume. After every queried step
// the warm Result must equal a cold NewAnalyzer's (SmaxSweeps aside),
// and every WhatIf outcome a cold analysis of its mutated set.
func TestResumeRandomScriptsMatchCold(t *testing.T) {
	for si, base := range fuzzedSets(t, 10) {
		for oi, opt := range deltaOptionMatrix() {
			rng := rand.New(rand.NewSource(int64(7000 + 31*si + oi)))
			a, err := NewAnalyzer(base, opt)
			if err != nil {
				t.Fatal(err)
			}
			next := 0
			fresh := func() string {
				next++
				return fmt.Sprintf("r%d", next)
			}
			for step := 0; step < 40; step++ {
				fs := a.FlowSet()
				n := fs.N()
				var op string
				var err error
				switch k := rng.Intn(10); {
				case n == 0 || k < 3 || (n < 2 && k >= 8):
					op = "admit"
					_, err = a.AddFlow(candidateFlow(rng, base, fresh()))
				case k < 5:
					op = "update-newest"
					err = a.UpdateFlow(n-1, candidateFlow(rng, base, fs.Flows[n-1].Name))
				case k == 5:
					op = "update-older"
					i := rng.Intn(n)
					err = a.UpdateFlow(i, candidateFlow(rng, base, fs.Flows[i].Name))
				case k < 8:
					op = "release-newest"
					err = a.RemoveFlow(n - 1)
				case k == 8:
					op = "release-older"
					err = a.RemoveFlow(rng.Intn(n))
				default:
					op = "whatif"
					cands := []Candidate{
						{Add: candidateFlow(rng, base, fresh())},
						{Update: candidateFlow(rng, base, fs.Flows[n-1].Name), Index: n - 1},
						{Remove: true, Index: rng.Intn(n)},
					}
					for k, o := range a.WhatIf(cands) {
						requireOutcomeMatches(t, fmt.Sprintf("set %d opt %d step %d whatif %d", si, oi, step, k),
							o, coldOutcome(t, fs, opt, cands[k]))
					}
				}
				tag := fmt.Sprintf("set %d opt %d step %d (%s)", si, oi, step, op)
				if err != nil {
					// An Assumption-1 violation: the analyzer is unchanged.
					if a.FlowSet() != fs {
						t.Fatalf("%s: rejected mutation %v changed the set", tag, err)
					}
					continue
				}
				if rng.Intn(3) > 0 || step == 39 {
					requireWarmMatchesCold(t, tag, a, opt)
					if _, err := a.Analyze(); err == nil {
						requireViewsMatchCold(t, tag, a, opt)
					}
				}
			}
		}
	}
}

// lifecycleFixture is a converged analyzer over a staggered line of 24
// five-hop flows (flow k on nodes k+1..k+5) and a probe across its
// middle: the probe meets nine of the flows (f8 to f16).
func lifecycleFixture(t *testing.T, opt Options) (*Analyzer, *model.Flow) {
	t.Helper()
	const n, hops = 24, 5
	flows := make([]*model.Flow, n)
	for k := range flows {
		path := make([]model.NodeID, hops)
		for h := range path {
			path[h] = model.NodeID(k + h + 1)
		}
		flows[k] = model.UniformFlow(fmt.Sprintf("f%d", k), 10*hops, 0, 0, 2, path...)
	}
	fs, err := model.NewFlowSet(model.UnitDelayNetwork(), flows)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAnalyzer(fs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Bounds(); err != nil {
		t.Fatal(err)
	}
	return a, model.UniformFlow("probe", 10*hops, 0, 0, 2, 13, 14, 15, 16, 17)
}

// viewBuild is one testBuildHook call.
type viewBuild struct{ flow, plen, from int }

// recordBuilds collects testBuildHook calls until the returned stop is
// called.
func recordBuilds() (*[]viewBuild, func()) {
	var got []viewBuild
	testBuildHook = func(flow, plen, from int) {
		got = append(got, viewBuild{flow, plen, from})
	}
	return &got, func() { testBuildHook = nil }
}

// TestWarmAddResumesNeighbourViews: a warm AddFlow followed by Bounds
// builds only the new flow's views from the empty state; every view of
// a neighbour resumes from the pre-admit flow count.
func TestWarmAddResumesNeighbourViews(t *testing.T) {
	a, probe := lifecycleFixture(t, Options{})
	nOld := a.FlowSet().N()
	builds, stop := recordBuilds()
	defer stop()
	idx, err := a.AddFlow(probe)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Bounds(); err != nil {
		t.Fatal(err)
	}
	stop()
	resumed := map[int]bool{}
	for _, b := range *builds {
		switch {
		case b.flow == idx:
			if b.from != 0 {
				t.Errorf("new flow's view %+v resumed, want a build from empty", b)
			}
		case b.from != nOld:
			t.Errorf("neighbour view %+v scanned from flow %d, want a resume from %d", b, b.from, nOld)
		default:
			resumed[b.flow] = true
		}
	}
	if len(resumed) != 9 {
		t.Errorf("resumed views of %d flows, want the probe's 9 neighbours", len(resumed))
	}
	requireWarmMatchesCold(t, "after admit", a, Options{})
	requireViewsMatchCold(t, "after admit", a, Options{})
}

// TestNewestLifecycleRebuildsNothing: renegotiating the flow just
// admitted is an undo plus an add — the neighbours resume from their
// pre-admit views and the undo chain survives — so releasing it is the
// O(1) undo, and the Bounds after it builds no view at all.
func TestNewestLifecycleRebuildsNothing(t *testing.T) {
	var events obs.Collector
	a, probe := lifecycleFixture(t, Options{Tracer: &events})
	nOld := a.FlowSet().N()
	idx, err := a.AddFlow(probe)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Bounds(); err != nil {
		t.Fatal(err)
	}

	builds, stop := recordBuilds()
	defer stop()
	reneg := probe.Clone()
	reneg.Period = reneg.Period * 9 / 10
	events.Reset()
	if err := a.UpdateFlow(idx, reneg); err != nil {
		t.Fatal(err)
	}
	if ev := events.Events(); len(ev) != 1 || ev[0].Type != obs.EvDelta || ev[0].Op != "update" {
		t.Fatalf("update events %+v, want one delta event with op update", ev)
	}
	if _, err := a.Bounds(); err != nil {
		t.Fatal(err)
	}
	for _, b := range *builds {
		if b.flow != idx && b.from != nOld {
			t.Errorf("renegotiation built view %+v, want neighbours resumed from %d", b, nOld)
		}
	}
	requireWarmMatchesCold(t, "after renegotiate", a, Options{})
	requireViewsMatchCold(t, "after renegotiate", a, Options{})

	*builds = nil
	events.Reset()
	if err := a.RemoveFlow(idx); err != nil {
		t.Fatal(err)
	}
	if ev := events.Events(); len(ev) != 1 || ev[0].Outcome != "undo" {
		t.Fatalf("release events %+v, want the O(1) undo", ev)
	}
	if _, err := a.Bounds(); err != nil {
		t.Fatal(err)
	}
	if len(*builds) != 0 {
		t.Errorf("release rebuilt views %+v, want none", *builds)
	}
	requireWarmMatchesCold(t, "after release", a, Options{})
	requireViewsMatchCold(t, "after release", a, Options{})
}

// TestResumeAfterSharedRowRestore covers a view resumed in a prefix row
// an add shared with the undo chain. Admit x (a neighbour of f12), then
// y (not one), query: f12's prefix views resume with x's row inside the
// row the state after x shares. Releasing y restores that state with
// views built against one flow more than it holds. Admitting z, another
// neighbour, must not resume them from that count, which would skip z.
func TestResumeAfterSharedRowRestore(t *testing.T) {
	a, _ := lifecycleFixture(t, Options{})
	steps := []func() error{
		func() error { _, err := a.AddFlow(model.UniformFlow("x", 50, 0, 0, 2, 14, 15)); return err },
		func() error { _, err := a.AddFlow(model.UniformFlow("y", 50, 0, 0, 2, 2, 3)); return err },
		func() error { _, err := a.Bounds(); return err },
		func() error { return a.RemoveFlow(a.FlowSet().N() - 1) },
		func() error { _, err := a.Bounds(); return err },
		func() error { _, err := a.AddFlow(model.UniformFlow("z", 50, 0, 0, 2, 13, 14)); return err },
	}
	for k, st := range steps {
		if err := st(); err != nil {
			t.Fatalf("step %d: %v", k, err)
		}
	}
	requireWarmMatchesCold(t, "after z", a, Options{})
	requireViewsMatchCold(t, "after z", a, Options{})
}

// TestResumeKeepsSaturation: a view whose build saturated must stay
// saturated when it resumes with a row that saturates nothing, so its
// bound stays the explicit Unbounded verdict and the view equals a
// cold build, flag included. With 2^57 link delays, the A constant of
// "far" against "big" is Jj − Smin_j − M ≈ −8·2^57, which rails at
// −TimeInfinity.
func TestResumeKeepsSaturation(t *testing.T) {
	const huge = model.Time(1) << 57
	net := model.Network{Lmin: huge, Lmax: huge}
	fs, err := model.NewFlowSet(net, []*model.Flow{
		model.UniformFlow("big", 4*huge, 0, 0, huge, 11, 10, 9),
		model.UniformFlow("far", 4*huge, 0, 0, 1, 3, 4, 5, 6, 7, 8, 9, 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Smax: SmaxNoQueue, Horizon: model.TimeInfinity}
	a, err := NewAnalyzer(fs, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Unbounded(0) {
		t.Fatalf("base bound %d, want Unbounded", res.Bounds[0])
	}
	if _, err := a.AddFlow(model.UniformFlow("near", 4*huge, 0, 0, 1, 12, 11)); err != nil {
		t.Fatal(err)
	}
	requireWarmMatchesCold(t, "after near", a, opt)
	requireViewsMatchCold(t, "after near", a, opt)
	if b, _ := a.AnalyzeFlow(0); !model.IsUnbounded(b) {
		t.Fatalf("resumed bound %d, want Unbounded", b)
	}
}
