package trajectory

import (
	"runtime"
	"runtime/debug"
	"strconv"
	"testing"

	"trajan/internal/model"
)

// staggeredFlows is the 64-flow admission fabric of the root package's
// AdmissionChurn benchmark: n five-hop flows, flow k on nodes k+1..k+5,
// so neighbours overlap on four nodes and the Smax fixed point needs
// several sweeps.
func staggeredFlows(tb testing.TB, n, hops int) *model.FlowSet {
	tb.Helper()
	flows := make([]*model.Flow, n)
	for k := range flows {
		path := make([]model.NodeID, hops)
		for i := range path {
			path[i] = model.NodeID(k + i + 1)
		}
		flows[k] = model.UniformFlow("f"+strconv.Itoa(k), model.Time(10*hops), 0, 0, 2, path...)
	}
	fs, err := model.NewFlowSet(model.UnitDelayNetwork(), flows)
	if err != nil {
		tb.Fatal(err)
	}
	return fs
}

// mallocsPerRun is testing.AllocsPerRun without its GOMAXPROCS(1) pin:
// it counts heap allocations at whatever GOMAXPROCS the caller set,
// which is the variable under test here. One warm-up call and a forced
// collection precede the measured runs (the collection starts the
// runtime's per-P mark workers, whose goroutines would otherwise count
// against the first measurement after GOMAXPROCS grows). Collection is
// then paused for the measured runs, so a GC cycle landing inside the
// window cannot add the runtime's own allocations; the result is the
// integer mean, as in AllocsPerRun.
func mallocsPerRun(runs int, f func()) uint64 {
	f()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs)
}

// TestAllocsIndependentOfGOMAXPROCS: with Options.Parallelism left at
// its default, the allocation count of a cold Analyze and of a warm
// AddFlow → Bounds → RemoveFlow admission cycle must not depend on
// GOMAXPROCS. The fixed-point sweeps are serial, so nothing on these
// paths may allocate per core. (WhatIf is left out: its candidate
// fan-out legitimately scales with the worker count.)
func TestAllocsIndependentOfGOMAXPROCS(t *testing.T) {
	fs := staggeredFlows(t, 64, 5)
	probe := model.UniformFlow("probe", 50, 0, 0, 2, 33, 34, 35, 36, 37)
	opt := Options{Parallelism: 0}

	warm, err := NewAnalyzer(fs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Bounds(); err != nil {
		t.Fatal(err)
	}
	workloads := []struct {
		name string
		runs int
		fn   func()
	}{
		{"cold Analyze", 10, func() {
			if _, err := Analyze(fs, opt); err != nil {
				t.Fatal(err)
			}
		}},
		{"warm churn", 50, func() {
			idx, err := warm.AddFlow(probe)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := warm.Bounds(); err != nil {
				t.Fatal(err)
			}
			if err := warm.RemoveFlow(idx); err != nil {
				t.Fatal(err)
			}
		}},
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, w := range workloads {
		var base uint64
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			got := mallocsPerRun(w.runs, w.fn)
			if procs == 1 {
				base = got
				t.Logf("%s: %d allocs/op at GOMAXPROCS=1", w.name, got)
				continue
			}
			if got != base {
				t.Errorf("%s: %d allocs/op at GOMAXPROCS=%d, %d at GOMAXPROCS=1", w.name, got, procs, base)
			}
		}
	}
}
