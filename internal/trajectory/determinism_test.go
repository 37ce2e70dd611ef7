package trajectory

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"trajan/internal/model"
	"trajan/internal/obs"
	"trajan/internal/workload"
)

// determinismSets is the corpus the byte-identity properties run over:
// the paper example plus fuzzed line topologies with jitter, reverse
// flows and mixed path lengths.
func determinismSets(t *testing.T) []*model.FlowSet {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	sets := []*model.FlowSet{model.PaperExample()}
	for trial := 0; trial < 4; trial++ {
		fs, err := workload.RandomLine(rng, workload.RandomLineParams{
			Nodes: 6, Flows: 7, MaxUtilization: 0.5,
			CostLo: 1, CostHi: 4, JitterHi: 3, AllowReverse: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, fs)
	}
	return sets
}

// schedulerGrid runs fn under every GOMAXPROCS × Options.Parallelism
// combination the determinism properties quantify over, restoring the
// previous GOMAXPROCS afterwards.
func schedulerGrid(t *testing.T, fn func(t *testing.T, procs, workers int)) {
	t.Helper()
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{1, 4} {
			fn(t, procs, workers)
		}
	}
}

// TestColdAnalyzeDeterminism pins the tentpole's determinism contract:
// a cold Analyze must produce a byte-identical obs trace log and a
// deeply equal Result across every GOMAXPROCS × worker-count
// combination, for both Smax estimators. The fixed-point sweeps are
// serial, so what this pins is that nothing in the analysis — sweep
// order, Jacobi commits in slot order, trace emission from the sweep
// driver — reads the scheduler: neither GOMAXPROCS nor
// Options.Parallelism (which bounds only WhatIf candidate concurrency)
// may change a byte of the trace or the Result.
func TestColdAnalyzeDeterminism(t *testing.T) {
	for si, fs := range determinismSets(t) {
		for _, mode := range []SmaxMode{SmaxPrefixFixpoint, SmaxGlobalTail} {
			var refLog []byte
			var refRes *Result
			var refErr string
			first := true
			schedulerGrid(t, func(t *testing.T, procs, workers int) {
				var buf bytes.Buffer
				res, err := Analyze(fs, Options{
					Smax: mode, Parallelism: workers, Tracer: obs.NewJSONTracer(&buf),
				})
				errStr := ""
				if err != nil {
					errStr = err.Error()
				}
				if first {
					refLog, refRes, refErr = buf.Bytes(), res, errStr
					first = false
					return
				}
				if errStr != refErr {
					t.Fatalf("set %d mode %v procs %d workers %d: error %q ≠ baseline %q",
						si, mode, procs, workers, errStr, refErr)
				}
				if !bytes.Equal(buf.Bytes(), refLog) {
					t.Errorf("set %d mode %v procs %d workers %d: trace log diverges (%d vs %d bytes)",
						si, mode, procs, workers, buf.Len(), len(refLog))
				}
				if !reflect.DeepEqual(res, refRes) {
					t.Errorf("set %d mode %v procs %d workers %d: Result diverges",
						si, mode, procs, workers)
				}
			})
		}
	}
}

// TestWarmDeltaDeterminism extends the byte-identity property over the
// warm path: converge a base, admit a probe flow (delta re-analysis
// seeded from the converged table), analyze, evict it, analyze again.
// The full lifecycle log — cold fixpoint, both warm re-analyses and
// every bound event — must be byte-identical across the scheduler
// grid.
func TestWarmDeltaDeterminism(t *testing.T) {
	probe := model.UniformFlow("probe", 40, 1, 0, 2, 2, 3, 4)
	for si, fs := range determinismSets(t) {
		var refLog []byte
		var refErr string
		first := true
		schedulerGrid(t, func(t *testing.T, procs, workers int) {
			var buf bytes.Buffer
			errStr := func() string {
				a, err := NewAnalyzer(fs, Options{
					Parallelism: workers, Tracer: obs.NewJSONTracer(&buf),
				})
				if err != nil {
					return err.Error()
				}
				if _, err := a.Analyze(); err != nil {
					return err.Error()
				}
				idx, err := a.AddFlow(probe)
				if err != nil {
					return err.Error()
				}
				if _, err := a.Analyze(); err != nil {
					return err.Error()
				}
				if err := a.RemoveFlow(idx); err != nil {
					return err.Error()
				}
				if _, err := a.Analyze(); err != nil {
					return err.Error()
				}
				return ""
			}()
			if first {
				refLog, refErr = buf.Bytes(), errStr
				first = false
				return
			}
			if errStr != refErr {
				t.Fatalf("set %d procs %d workers %d: error %q ≠ baseline %q",
					si, procs, workers, errStr, refErr)
			}
			if !bytes.Equal(buf.Bytes(), refLog) {
				t.Errorf("set %d procs %d workers %d: warm lifecycle log diverges (%d vs %d bytes)",
					si, procs, workers, buf.Len(), len(refLog))
			}
		})
	}
}

// TestUntracedMatchesTraced pins tracing as observation only: traced
// and untraced analyzers run the same view builder (buildAll), and the
// tracer-on run must produce a Result deeply equal to the tracer-off
// run (bounds, details, sweep counts) and an identical error string.
func TestUntracedMatchesTraced(t *testing.T) {
	for si, fs := range determinismSets(t) {
		for _, mode := range []SmaxMode{SmaxPrefixFixpoint, SmaxGlobalTail} {
			fused, fusedErr := Analyze(fs, Options{Smax: mode})
			var buf bytes.Buffer
			lazy, lazyErr := Analyze(fs, Options{Smax: mode, Tracer: obs.NewJSONTracer(&buf)})
			if (fusedErr == nil) != (lazyErr == nil) ||
				(fusedErr != nil && fusedErr.Error() != lazyErr.Error()) {
				t.Fatalf("set %d mode %v: fused err %v ≠ lazy err %v", si, mode, fusedErr, lazyErr)
			}
			if !reflect.DeepEqual(fused, lazy) {
				t.Errorf("set %d mode %v: fused Result ≠ lazy Result", si, mode)
			}
		}
	}
}
