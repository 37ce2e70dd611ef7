package trajectory

import (
	"math/rand"
	"reflect"
	"testing"

	"trajan/internal/model"
	"trajan/internal/workload"
)

// fuzzedSets draws randomized line-network flow sets spanning forward
// and reversed segments, jitter, and varying density — the differential
// corpus for the engine-vs-reference tests.
func fuzzedSets(t *testing.T, trials int) []*model.FlowSet {
	t.Helper()
	var sets []*model.FlowSet
	for seed := int64(0); seed < int64(trials); seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomLineParams{
			Nodes:          3 + rng.Intn(5),
			Flows:          2 + rng.Intn(8),
			MaxUtilization: 0.4 + 0.4*rng.Float64(),
			CostLo:         1,
			CostHi:         model.Time(1 + rng.Intn(6)),
			JitterHi:       model.Time(rng.Intn(9)),
			AllowReverse:   seed%2 == 0,
		}
		fs, err := workload.RandomLine(rng, p)
		if err != nil {
			continue // target admitted no flows at this seed
		}
		sets = append(sets, fs)
	}
	if len(sets) < trials/2 {
		t.Fatalf("fuzz corpus too small: %d sets", len(sets))
	}
	return sets
}

// engineOptionMatrix enumerates the Options settings the differential
// tests cover: all three Smax estimators crossed with the window and
// scan variants, a non-default Parallelism (which must not change
// anything: sweeps are serial), and Property 3's non-preemption penalty.
func engineOptionMatrix(fs *model.FlowSet) []Options {
	np := make([][]model.Time, fs.N())
	for i, f := range fs.Flows {
		np[i] = make([]model.Time, len(f.Path))
		for k := range np[i] {
			np[i][k] = model.Time((i + k) % 3)
		}
	}
	var opts []Options
	for _, mode := range []SmaxMode{SmaxPrefixFixpoint, SmaxGlobalTail, SmaxNoQueue} {
		opts = append(opts,
			Options{Smax: mode},
			Options{Smax: mode, StrictWindow: true},
			Options{Smax: mode, DisableTScan: true},
			Options{Smax: mode, Parallelism: 3},
			Options{Smax: mode, NonPreemption: np},
		)
	}
	return opts
}

// TestEngineMatchesReferenceFuzzed is the tentpole's correctness bar:
// the incremental Analyzer must return bit-identical Results to the
// straight-line reference implementation for every fuzzed flow set at
// every Options setting.
func TestEngineMatchesReferenceFuzzed(t *testing.T) {
	for si, fs := range fuzzedSets(t, 24) {
		for oi, opt := range engineOptionMatrix(fs) {
			want, wantErr := referenceAnalyze(fs, opt)
			got, gotErr := Analyze(fs, opt)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("set %d opt %d: reference err %v, engine err %v", si, oi, wantErr, gotErr)
			}
			if wantErr != nil {
				if wantErr.Error() != gotErr.Error() {
					t.Fatalf("set %d opt %d: reference err %q, engine err %q", si, oi, wantErr, gotErr)
				}
				continue
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("set %d opt %d (%+v): engine Result diverges\nreference: %+v\nengine:    %+v",
					si, oi, opt, want, got)
			}
		}
	}
}

// TestEngineMatchesReferencePaperExample pins the differential on the
// paper's Section-5 example, where the golden bounds are known.
func TestEngineMatchesReferencePaperExample(t *testing.T) {
	fs := model.PaperExample()
	for oi, opt := range engineOptionMatrix(fs) {
		want, err := referenceAnalyze(fs, opt)
		if err != nil {
			t.Fatalf("opt %d: reference: %v", oi, err)
		}
		got, err := Analyze(fs, opt)
		if err != nil {
			t.Fatalf("opt %d: engine: %v", oi, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("opt %d (%+v): engine Result diverges", oi, opt)
		}
	}
}

// TestEngineAnalyzeFlowMatchesReference checks the single-flow entry
// point against its reference, including the out-of-range error.
func TestEngineAnalyzeFlowMatchesReference(t *testing.T) {
	for si, fs := range fuzzedSets(t, 8) {
		for _, mode := range []SmaxMode{SmaxPrefixFixpoint, SmaxGlobalTail, SmaxNoQueue} {
			opt := Options{Smax: mode}
			for i := 0; i < fs.N(); i++ {
				want, wantErr := referenceAnalyzeFlow(fs, opt, i)
				got, gotErr := AnalyzeFlow(fs, opt, i)
				if (wantErr == nil) != (gotErr == nil) || want != got {
					t.Fatalf("set %d mode %v flow %d: reference (%d,%v), engine (%d,%v)",
						si, mode, i, want, wantErr, got, gotErr)
				}
			}
		}
	}
	fs := model.PaperExample()
	if _, err := AnalyzeFlow(fs, Options{}, -1); err == nil {
		t.Error("negative index accepted")
	}
}

// TestEngineErrorParity: failure modes must surface identically —
// overload divergence, unknown mode, malformed seeds and malformed
// non-preemption vectors.
func TestEngineErrorParity(t *testing.T) {
	over := model.MustNewFlowSet(model.UnitDelayNetwork(), []*model.Flow{
		model.UniformFlow("f1", 5, 0, 0, 3, 1, 2),
		model.UniformFlow("f2", 5, 0, 0, 3, 1, 2),
	})
	ok := model.PaperExample()
	cases := []struct {
		name string
		fs   *model.FlowSet
		opt  Options
	}{
		{"overload prefix", over, Options{Smax: SmaxPrefixFixpoint}},
		{"overload global", over, Options{Smax: SmaxGlobalTail}},
		{"overload noqueue", over, Options{Smax: SmaxNoQueue}},
		{"unknown mode", ok, Options{Smax: SmaxMode(99)}},
		{"bad seed length", ok, Options{Smax: SmaxGlobalTail, SeedBounds: []model.Time{1}}},
		{"bad nonpreemption shape", ok, Options{NonPreemption: make([][]model.Time, 1)}},
	}
	for _, c := range cases {
		_, wantErr := referenceAnalyze(c.fs, c.opt)
		_, gotErr := Analyze(c.fs, c.opt)
		if wantErr == nil || gotErr == nil {
			t.Fatalf("%s: expected errors, reference %v, engine %v", c.name, wantErr, gotErr)
		}
		if wantErr.Error() != gotErr.Error() {
			t.Errorf("%s: reference err %q, engine err %q", c.name, wantErr, gotErr)
		}
	}
}

// TestAnalyzerReuse: repeated queries against one Analyzer must be
// idempotent and mutually consistent — the amortized entry points
// return exactly what a fresh one-shot analysis returns.
func TestAnalyzerReuse(t *testing.T) {
	for _, fs := range fuzzedSets(t, 6) {
		for _, mode := range []SmaxMode{SmaxPrefixFixpoint, SmaxGlobalTail} {
			a, err := NewAnalyzer(fs, Options{Smax: mode})
			if err != nil {
				t.Fatal(err)
			}
			first, err := a.Analyze()
			if err != nil {
				// Some fuzzed sets defeat the holistic busy-period seed
				// (jitter growth); the error must at least be stable.
				if _, err2 := a.Analyze(); err2 == nil || err2.Error() != err.Error() {
					t.Fatalf("unstable error: %v then %v", err, err2)
				}
				continue
			}
			second, err := a.Analyze()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(first, second) {
				t.Fatal("repeated Analyze() diverged")
			}
			bounds, err := a.Bounds()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(bounds, first.Bounds) {
				t.Fatalf("Bounds() %v != Analyze().Bounds %v", bounds, first.Bounds)
			}
			for i := range fs.Flows {
				r, err := a.AnalyzeFlow(i)
				if err != nil {
					t.Fatal(err)
				}
				if r != first.Bounds[i] {
					t.Fatalf("AnalyzeFlow(%d) = %d, Analyze %d", i, r, first.Bounds[i])
				}
			}
			if _, err := a.AnalyzeFlow(fs.N()); err == nil {
				t.Error("out-of-range index accepted")
			}
		}
	}
}

// TestPrefixRelationMatchesRelateToPath: the allocation-free
// FlowSet.PrefixRelation must agree with the general RelateToPath on
// every (flow, prefix length, interferer) triple, in every field the
// analysis consumes (Shared is intentionally omitted).
func TestPrefixRelationMatchesRelateToPath(t *testing.T) {
	sets := fuzzedSets(t, 12)
	sets = append(sets, model.PaperExample())
	for si, fs := range sets {
		for i, f := range fs.Flows {
			for plen := 1; plen <= len(f.Path); plen++ {
				for j := range fs.Flows {
					if j == i {
						continue
					}
					want := model.RelateToPath(f.Path[:plen], fs.Flows[j])
					got := fs.PrefixRelation(i, plen, j)
					want.Shared = nil
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("set %d (i=%d plen=%d j=%d): RelateToPath %+v, PrefixRelation %+v",
							si, i, plen, j, want, got)
					}
				}
			}
		}
	}
}
