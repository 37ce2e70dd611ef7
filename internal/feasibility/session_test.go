package feasibility

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"trajan/internal/model"
	"trajan/internal/obs"
	"trajan/internal/trajectory"
)

// sessionStep is one scripted Session call. reason is the expected
// outcome on the trajectory backend ("" committed and feasible,
// "deadline miss", "unstable"); wantErr, when set, is the error class
// the call must fail with. failHook makes the commit hook fail.
type sessionStep struct {
	op       string // admit | renegotiate | release | update
	flow     *model.Flow
	name     string
	failHook bool
	reason   string
	wantErr  error
}

var errHook = errors.New("hook failed")

func sessionScript() []sessionStep {
	mk := func(name string, period, deadline, cost model.Time, path ...model.NodeID) *model.Flow {
		return model.UniformFlow(name, period, 0, deadline, cost, path...)
	}
	return []sessionStep{
		{op: "admit", flow: mk("a", 50, 25, 2, 1, 2, 3)}, // into the empty set
		{op: "admit", flow: mk("b", 50, 25, 2, 2, 3, 4)},
		{op: "admit", flow: mk("c", 40, 30, 3, 3, 2, 1)},
		{op: "admit", flow: mk("tight", 50, 6, 2, 1, 2, 3), reason: "deadline miss"},
		{op: "admit", flow: mk("hog", 4, 100, 4, 2, 3), reason: "unstable"},
		{op: "admit", flow: mk("a", 60, 40, 2, 4, 5), wantErr: model.ErrInvalidConfig}, // duplicate name
		{op: "renegotiate", flow: mk("b", 50, 7, 2, 2, 3, 4), reason: "deadline miss"},
		{op: "renegotiate", flow: mk("b", 60, 40, 2, 2, 3, 4)},
		{op: "renegotiate", flow: mk("ghost", 60, 40, 2, 2, 3), wantErr: ErrUnknownFlow},
		{op: "admit", flow: mk("d", 50, 40, 2, 4, 5), failHook: true, wantErr: errHook},
		{op: "renegotiate", flow: mk("a", 70, 40, 2, 1, 2, 3), failHook: true, wantErr: errHook},
		{op: "release", name: "b", failHook: true, wantErr: errHook},
		{op: "admit", flow: mk("d", 50, 40, 2, 4, 5)},
		{op: "release", name: "a"},
		{op: "release", name: "b"},
		{op: "release", name: "d"},
		{op: "release", name: "c"}, // the last flow
		{op: "release", name: "c", wantErr: ErrUnknownFlow},
		{op: "admit", flow: mk("c", 40, 30, 3, 3, 2, 1)}, // re-admit
		{op: "admit", flow: mk("e", 50, 20, 2, 2, 3)},
		{op: "update", flow: mk("e", 50, 5, 2, 2, 3), reason: "deadline miss"},
		{op: "release", name: "e"},
	}
}

// oracleVerdict decides a hypothetical set from scratch: the cold EF
// pipeline (coldSetOracle) for the trajectory backend, AnalyzeBackend
// of a freshly built set for the others and for the empty set, which
// has no EF flow for the EF pipeline to analyse. It runs untraced.
func oracleVerdict(t *testing.T, net model.Network, b Backend, flows []*model.Flow) (reason string, bounds []model.Time) {
	t.Helper()
	opt := trajectory.Options{}
	if b == BackendTrajectory && len(flows) > 0 {
		ok, rep := coldSetOracle(t, net, opt, flows)
		if rep.Verdicts == nil {
			return "unstable", nil
		}
		for _, v := range rep.Verdicts {
			bounds = append(bounds, v.Bound)
		}
		if !ok {
			reason = "deadline miss"
		}
		return reason, bounds
	}
	cl := make([]*model.Flow, len(flows))
	for i, f := range flows {
		cl[i] = f.Clone()
	}
	fs, err := model.NewFlowSet(net, cl)
	if err != nil {
		t.Fatalf("oracle flow set: %v", err)
	}
	res, err := AnalyzeBackend(context.Background(), fs, b, opt)
	if IsRefusal(err) {
		return "unstable", nil
	}
	if err != nil {
		t.Fatalf("oracle %s analysis: %v", b, err)
	}
	if ok, _ := SetVerdict(fs.Flows, res.Bounds); !ok {
		reason = "deadline miss"
	}
	return reason, res.Bounds
}

func names(flows []*model.Flow) []string {
	var out []string
	for _, f := range flows {
		out = append(out, f.Name)
	}
	return out
}

// TestSessionMatchesColdOracle replays the script through one Session
// and checks every decision, the Decision's bounds and the committed
// set after every step against a cold analysis of the expected set —
// bit for bit, in set order. Hook failures must leave exactly the last
// committed set, and the hook runs after the verdict of a refusable
// mutation and before that of an unconditional one (the event order
// trajand's journal relies on). The script runs once per backend; on
// the trajectory
// backend each step's outcome is also pinned, so the script provably
// covers every decision path.
func TestSessionMatchesColdOracle(t *testing.T) {
	net := model.UnitDelayNetwork()
	for _, b := range Backends() {
		t.Run(string(b), func(t *testing.T) {
			events := &obs.Collector{}
			opt := trajectory.Options{Tracer: events}
			s, err := NewSession(net, opt, b, nil)
			if err != nil {
				t.Fatal(err)
			}
			failHook := false
			var hooked []string
			// verdicts counts Verdict calls; stepStart is the count when
			// the step began and atHook the step's count when the hook ran.
			verdicts, stepStart, atHook := 0, 0, -1
			testVerdictHook = func() { verdicts++ }
			defer func() { testVerdictHook = nil }()
			s.Commit = func(op, name string, f *model.Flow) error {
				atHook = verdicts - stepStart
				if failHook {
					return errHook
				}
				if f != nil {
					name = f.Name
				}
				hooked = append(hooked, op+" "+name)
				return nil
			}
			var want []*model.Flow // the expected committed set, in order
			var wantHooked []string
			reasons := map[string]bool{}
			for k, st := range sessionScript() {
				at := fmt.Sprintf("step %d (%s %s%s)", k, st.op, st.name, flowName(st.flow))
				trial := append([]*model.Flow(nil), want...)
				name := st.name
				if st.flow != nil {
					name = st.flow.Name
				}
				i := indexOf(want, name)
				switch {
				case st.op == "admit":
					trial = append(trial, st.flow)
				case i < 0:
				case st.op == "release":
					trial = append(trial[:i], trial[i+1:]...)
				default:
					trial[i] = st.flow
				}

				failHook = st.failHook
				stepStart, atHook = verdicts, -1
				var d Decision
				ctx := context.Background()
				switch st.op {
				case "admit":
					d, err = s.Admit(ctx, st.flow.Clone())
				case "renegotiate":
					d, err = s.Renegotiate(ctx, st.flow.Clone())
				case "release":
					d, err = s.Release(ctx, st.name)
				case "update":
					d, err = s.Update(ctx, st.flow.Clone())
				}

				if st.wantErr != nil {
					if !errors.Is(err, st.wantErr) {
						t.Fatalf("%s: err %v, want %v", at, err, st.wantErr)
					}
				} else {
					if err != nil {
						t.Fatalf("%s: %v", at, err)
					}
					reason, bounds := oracleVerdict(t, net, b, trial)
					if b == BackendTrajectory && reason != st.reason {
						t.Fatalf("%s: oracle says %q, script expects %q", at, reason, st.reason)
					}
					reasons[reason] = true
					unconditional := st.op == "release" || st.op == "update"
					if d.Committed != (unconditional || reason == "") || d.Reason != reason {
						t.Fatalf("%s: committed=%v reason %q, oracle reason %q", at, d.Committed, d.Reason, reason)
					}
					if !reflect.DeepEqual(d.Bounds, bounds) {
						t.Fatalf("%s: decision bounds %v, cold oracle %v", at, d.Bounds, bounds)
					}
					if len(trial) > 0 && !reflect.DeepEqual(names(d.Set.Flows), names(trial)) {
						t.Fatalf("%s: decision set %v, want %v", at, names(d.Set.Flows), names(trial))
					}
					if d.Committed {
						want = trial
						wantHooked = append(wantHooked, st.op+" "+name)
						// Admit and Renegotiate call the hook after their
						// verdict, Release and Update before it.
						wantAtHook := 1
						if unconditional {
							wantAtHook = 0
						}
						if ran := verdicts - stepStart; atHook != wantAtHook || ran != 1 {
							t.Fatalf("%s: commit hook ran after %d of the step's %d verdicts, want after %d of 1", at, atHook, ran, wantAtHook)
						}
					}
				}

				// The committed set and its bounds, after every step.
				if got := s.Flows(); len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
					t.Fatalf("%s: committed %v, want %v", at, names(got), names(want))
				}
				if !reflect.DeepEqual(hooked, wantHooked) {
					t.Fatalf("%s: hook calls %v, want %v", at, hooked, wantHooked)
				}
				failHook = false
				v, err := s.Verdict(ctx)
				reason, bounds := oracleVerdict(t, net, b, want)
				if reason == "unstable" {
					if !IsRefusal(err) {
						t.Fatalf("%s: committed-set verdict %v, oracle unstable", at, err)
					}
					continue
				}
				if err != nil || v.Reason != reason || !reflect.DeepEqual(v.Bounds, bounds) {
					t.Fatalf("%s: committed bounds %v (%q, %v), cold oracle %v (%q)", at, v.Bounds, v.Reason, err, bounds, reason)
				}
			}
			if b == BackendTrajectory && !(reasons["deadline miss"] && reasons["unstable"] && reasons[""]) {
				t.Fatalf("script covered %v", reasons)
			}
		})
	}
}

func flowName(f *model.Flow) string {
	if f == nil {
		return ""
	}
	return f.Name
}

// TestSessionRoutesChecksNameFirst: a route=auto admit reusing a
// committed name is the manual path's duplicate-name error, and an
// unknown route=auto renegotiation the manual path's unknown-flow
// error — before any candidate is built or scored.
func TestSessionRoutesChecksNameFirst(t *testing.T) {
	topo, _, f := closFixture(t)
	s, err := NewSession(model.UnitDelayNetwork(), trajectory.Options{}, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Admit(context.Background(), f.Clone()); err != nil {
		t.Fatal(err)
	}
	_, manual := s.Admit(context.Background(), f.Clone())
	cands, win, auto := s.Routes(context.Background(), topo, f, 4, false)
	if auto == nil || cands != nil || win != -1 || auto.Error() != manual.Error() || !errors.Is(auto, model.ErrInvalidConfig) {
		t.Fatalf("route=auto duplicate: cands %v win %d err %v; manual err %v", cands, win, auto, manual)
	}
	ghost := f.Clone()
	ghost.Name = "ghost"
	if _, _, err := s.Routes(context.Background(), topo, ghost, 4, true); !errors.Is(err, ErrUnknownFlow) {
		t.Fatalf("route=auto unknown renegotiation: %v", err)
	}
}

// TestSessionRejectsConfig: per-flow NonPreemption vectors and unknown
// backends are configuration errors.
func TestSessionRejectsConfig(t *testing.T) {
	net := model.UnitDelayNetwork()
	if _, err := NewSession(net, trajectory.Options{NonPreemption: [][]model.Time{{1}}}, "", nil); !errors.Is(err, model.ErrInvalidConfig) {
		t.Fatalf("NonPreemption: %v", err)
	}
	if _, err := NewSession(net, trajectory.Options{}, "simplex", nil); !errors.Is(err, model.ErrInvalidConfig) {
		t.Fatalf("unknown backend: %v", err)
	}
}
