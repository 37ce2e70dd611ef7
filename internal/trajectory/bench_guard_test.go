package trajectory

import (
	"fmt"
	"testing"

	"trajan/internal/model"
)

// guardTandem is the root package's tandemSet: n identical flows over
// one shared five-hop path, period 10·n — every flow meets every other
// at every hop, the dense regime the fused builder targets.
func guardTandem(t *testing.T, n int) *model.FlowSet {
	t.Helper()
	flows := make([]*model.Flow, n)
	for k := range flows {
		flows[k] = model.UniformFlow(fmt.Sprintf("f%d", k), model.Time(10*n), 0, 0, 2, 1, 2, 3, 4, 5)
	}
	fs, err := model.NewFlowSet(model.UnitDelayNetwork(), flows)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestBenchGuardAnalyzeScaling pins the cold-analysis speed of the
// flows32/64/128 tandem tiers against the straight-line reference
// analysis (reference.go) timed on the same sets in the same process,
// so host speed cancels out: the guard fails when the engine — the
// fused all-prefix builder, dirty-propagated sweeps, run-merged jump
// streams and the Lemma-3 t-scan cutoffs — loses about half of its
// lead. Measured engine speed-ups over the reference on
// a shared 2-vCPU Xeon @ 2.10GHz, go1.24, five runs each at GOMAXPROCS
// 1 and 2: flows32 6.5–12.3×, flows64 6.8–12.4×, flows128 6.9–10.6×.
// The 5× floor sits below the smallest of them. Under the race detector
// the ratio shrinks to about 5× (it slows the engine's tight loops
// more), so the guard runs only in uninstrumented builds.
func TestBenchGuardAnalyzeScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark guard skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("timing guard skipped under the race detector")
	}
	const floor = 5.0
	for _, n := range []int{32, 64, 128} {
		fs := guardTandem(t, n)
		engine := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Analyze(fs, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		ref := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := referenceAnalyze(fs, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		speedup := float64(ref.NsPerOp()) / float64(engine.NsPerOp())
		if speedup < floor {
			t.Errorf("flows%d: engine only %.1fx faster than the reference (want >= %.0fx): engine %d ns/op, reference %d ns/op",
				n, speedup, floor, engine.NsPerOp(), ref.NsPerOp())
		} else {
			t.Logf("flows%d: engine %.1fx faster than the reference (engine %d ns/op, reference %d ns/op)",
				n, speedup, engine.NsPerOp(), ref.NsPerOp())
		}
	}
}
