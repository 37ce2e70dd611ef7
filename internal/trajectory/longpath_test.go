package trajectory

import (
	"math/rand"
	"reflect"
	"testing"

	"trajan/internal/model"
	"trajan/internal/obs"
)

// segment returns the line path from node a to node b inclusive, in
// either direction.
func segment(a, b int) []model.NodeID {
	var p []model.NodeID
	step := 1
	if b < a {
		step = -1
	}
	for v := a; ; v += step {
		p = append(p, model.NodeID(v))
		if v == b {
			return p
		}
	}
}

// longPathSet builds a line network whose first two flows are longer
// than one 64-bit word of prefix lengths: a 70-hop flow running
// backwards over nodes 69..0 and a 130-hop flow running forwards over
// 10..139, crossed in both directions by a 66-hop flow and by short
// seeded segments. With overloaded set, two heavy flows saturate node
// 100 — position 90 on the 130-hop flow — so that flow's busy period
// diverges at a prefix past the first word.
func longPathSet(t *testing.T, overloaded bool) *model.FlowSet {
	t.Helper()
	rng := rand.New(rand.NewSource(70))
	flows := []*model.Flow{
		model.UniformFlow("long70", 400, 2, 0, 1, segment(69, 0)...),
		model.UniformFlow("long130", 500, 0, 0, 1, segment(10, 139)...),
		model.UniformFlow("mid66", 300, 1, 0, 2, segment(120, 55)...),
	}
	for k := 0; k < 14; k++ {
		length := 2 + rng.Intn(7)
		a := rng.Intn(140 - length)
		b := a + length - 1
		if rng.Intn(2) == 0 {
			a, b = b, a
		}
		flows = append(flows, model.UniformFlow("s"+string(rune('a'+k)),
			model.Time(60+rng.Intn(90)), model.Time(rng.Intn(4)), 0,
			model.Time(1+rng.Intn(3)), segment(a, b)...))
	}
	if overloaded {
		flows = append(flows,
			model.UniformFlow("hot1", 10, 0, 0, 6, segment(100, 102)...),
			model.UniformFlow("hot2", 10, 0, 0, 5, segment(100, 98)...))
	}
	fs, err := model.NewFlowSet(model.UnitDelayNetwork(), flows)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// requireMatchesReference compares an engine Result/error against the
// reference analysis of the same flow set: identical error strings, or
// deeply equal Results. warm excludes SmaxSweeps, which a warm-started
// fixed point legitimately reduces.
func requireMatchesReference(t *testing.T, tag string, got *Result, gotErr error, fs *model.FlowSet, opt Options, warm bool) {
	t.Helper()
	opt.Tracer = nil
	want, wantErr := referenceAnalyze(fs, opt)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: engine err %v, reference err %v", tag, gotErr, wantErr)
	}
	if wantErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: engine err %q, reference err %q", tag, gotErr, wantErr)
		}
		return
	}
	if warm {
		g, w := *got, *want
		g.SmaxSweeps, w.SmaxSweeps = 0, 0
		got, want = &g, &w
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: engine Result diverges from reference", tag)
	}
}

// TestLongPathsMatchReference is the engine-vs-reference differential
// for paths longer than 64 hops, traced and untraced, under each Smax
// estimator: cold analyses of a feasible and an overloaded set, then a
// warm analyzer after each of a scripted add, same-length update,
// length-changing update, general remove, undone add and a divergent
// admission.
func TestLongPathsMatchReference(t *testing.T) {
	feasible := longPathSet(t, false)
	overloaded := longPathSet(t, true)
	for _, traced := range []bool{false, true} {
		for _, mode := range []SmaxMode{SmaxPrefixFixpoint, SmaxGlobalTail} {
			opt := Options{Smax: mode}
			if traced {
				opt.Tracer = &obs.Collector{}
			}
			tag := mode.String()
			if traced {
				tag += "/traced"
			}
			for _, fs := range []*model.FlowSet{feasible, overloaded} {
				res, err := Analyze(fs, opt)
				requireMatchesReference(t, tag+"/cold", res, err, fs, opt, false)
			}

			a, err := NewAnalyzer(feasible, opt)
			if err != nil {
				t.Fatal(err)
			}
			res, err := a.Analyze()
			requireMatchesReference(t, tag+"/base", res, err, a.FlowSet(), opt, false)
			steps := []struct {
				name string
				do   func() error
			}{
				{"add-crossing", func() error {
					_, err := a.AddFlow(model.UniformFlow("x1", 200, 1, 0, 2, segment(60, 75)...))
					return err
				}},
				{"update-long130", func() error {
					return a.UpdateFlow(1, model.UniformFlow("long130", 450, 3, 0, 1, segment(10, 139)...))
				}},
				{"update-mid66-shorter", func() error {
					return a.UpdateFlow(2, model.UniformFlow("mid66", 300, 1, 0, 2, segment(120, 60)...))
				}},
				{"remove-long70", func() error { return a.RemoveFlow(0) }},
				{"add-then-undo", func() error {
					idx, err := a.AddFlow(model.UniformFlow("x2", 90, 0, 0, 3, segment(130, 66)...))
					if err != nil {
						return err
					}
					if _, err := a.Bounds(); err != nil {
						return err
					}
					return a.RemoveFlow(idx)
				}},
				{"add-overload", func() error {
					_, err := a.AddFlow(model.UniformFlow("hot", 10, 0, 0, 9, segment(99, 101)...))
					return err
				}},
			}
			for _, st := range steps {
				if err := st.do(); err != nil {
					t.Fatalf("%s/%s: mutation: %v", tag, st.name, err)
				}
				res, err := a.Analyze()
				requireMatchesReference(t, tag+"/"+st.name, res, err, a.FlowSet(), opt, true)
			}
		}
	}
}
