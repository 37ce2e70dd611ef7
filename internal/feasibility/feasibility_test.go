package feasibility

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"trajan/internal/ef"
	"trajan/internal/holistic"
	"trajan/internal/model"
	"trajan/internal/trajectory"
)

// TestCheckPaperExample reproduces the paper's Section-5 verdicts: all
// flows feasible under the trajectory bounds, none under the holistic
// ones.
func TestCheckPaperExample(t *testing.T) {
	fs := model.PaperExample()
	traj, err := trajectory.Analyze(fs, trajectory.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Check(fs, traj.Bounds, traj.Jitters, "trajectory")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.AllFeasible {
		t.Error("trajectory verdicts must all be feasible")
	}
	for _, v := range rep.Verdicts {
		if !v.Feasible || v.Slack != v.Deadline-v.Bound || v.Slack < 0 {
			t.Errorf("verdict %+v", v)
		}
	}
	hol, err := holistic.Analyze(fs, holistic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hrep, err := Check(fs, hol.Bounds, hol.Jitters, "holistic")
	if err != nil {
		t.Fatal(err)
	}
	if hrep.AllFeasible {
		t.Error("holistic verdicts must not all be feasible")
	}
	for _, v := range hrep.Verdicts {
		if v.Feasible {
			t.Errorf("%s: holistic bound %d within deadline %d", v.Name, v.Bound, v.Deadline)
		}
	}
}

// TestCheckNoDeadlineVacuouslyFeasible: Deadline 0 means "unbounded".
func TestCheckNoDeadline(t *testing.T) {
	f := model.UniformFlow("f", 10, 0, 0, 2, 1)
	fs := model.MustNewFlowSet(model.UnitDelayNetwork(), []*model.Flow{f})
	rep, err := Check(fs, []model.Time{999}, nil, "x")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.AllFeasible || !rep.Verdicts[0].Feasible {
		t.Error("deadline-free flow must be vacuously feasible")
	}
}

func TestCheckArity(t *testing.T) {
	fs := model.PaperExample()
	if _, err := Check(fs, []model.Time{1}, nil, "x"); err == nil {
		t.Error("wrong-length bounds accepted")
	}
}

// TestControllerAdmitsUntilSaturation: identical EF flows over one
// tandem are admitted while deadlines hold, then refused; the state
// must not change on refusal.
func TestControllerAdmitsUntilSaturation(t *testing.T) {
	c := NewController(model.UnitDelayNetwork(), trajectory.Options{})
	mk := func(k int) *model.Flow {
		return model.UniformFlow(
			// The n-th identical flow's bound is 2n+6, so deadline 20
			// admits exactly 7 flows.
			"call"+string(rune('a'+k)), 50, 0, 20, 2, 1, 2, 3)
	}
	admittedCount := 0
	for k := 0; k < 12; k++ {
		ok, rep, err := c.TryAdmit(mk(k))
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			admittedCount++
			if !rep.AllFeasible {
				t.Fatal("admission with infeasible report")
			}
		} else {
			if rep.AllFeasible {
				t.Fatal("refusal with feasible report")
			}
			break
		}
	}
	if admittedCount == 0 || admittedCount == 12 {
		t.Fatalf("admitted %d flows; expected saturation strictly inside 1..11", admittedCount)
	}
	if len(c.Admitted()) != admittedCount {
		t.Errorf("state has %d flows after %d admissions", len(c.Admitted()), admittedCount)
	}
	// A later, laxer flow can still be admitted: refusal is per
	// candidate, not terminal. (Deadline-free candidate never misses.)
	lax := model.UniformFlow("lax", 50, 0, 0, 2, 7, 8)
	ok, _, err := c.TryAdmit(lax)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("off-path deadline-free flow refused")
	}
}

// TestControllerPreloadBackground: preloaded BE flows are not deadline-
// checked but inflate the EF bound through δ.
func TestControllerPreloadBackground(t *testing.T) {
	bulk := model.UniformFlow("bulk", 100, 0, 1, 9, 1, 2) // absurd deadline, non-EF
	bulk.Class = model.ClassBE

	withBG := NewController(model.UnitDelayNetwork(), trajectory.Options{})
	withBG.Preload(bulk)
	voice := model.UniformFlow("v", 50, 0, 20, 2, 1, 2)
	ok, rep, err := withBG.TryAdmit(voice)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("voice refused: %+v", rep)
	}
	var boundWithBG model.Time
	for _, v := range rep.Verdicts {
		if v.Name == "v" {
			boundWithBG = v.Bound
		}
	}
	without := NewController(model.UnitDelayNetwork(), trajectory.Options{})
	ok2, rep2, err := without.TryAdmit(voice.Clone())
	if err != nil || !ok2 {
		t.Fatal(err)
	}
	if rep2.Verdicts[0].Bound >= boundWithBG {
		t.Errorf("background blocking did not inflate the bound: %d vs %d",
			boundWithBG, rep2.Verdicts[0].Bound)
	}
}

// TestControllerRefusesOverload: a candidate that saturates a node is
// refused via the divergence path rather than erroring out.
func TestControllerRefusesOverload(t *testing.T) {
	c := NewController(model.UnitDelayNetwork(), trajectory.Options{})
	c.Preload(model.UniformFlow("base", 4, 0, 0, 3, 1))
	ok, rep, err := c.TryAdmit(model.UniformFlow("cand", 4, 0, 100, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if ok || rep.AllFeasible {
		t.Error("overloading candidate admitted")
	}
	if len(c.Admitted()) != 1 {
		t.Error("refusal mutated state")
	}
}

// TestControllerSplitsForAssumption1: a candidate weaving across an
// admitted path is split, not rejected.
func TestControllerSplitsForAssumption1(t *testing.T) {
	c := NewController(model.UnitDelayNetwork(), trajectory.Options{})
	c.Preload(model.UniformFlow("base", 50, 0, 0, 2, 1, 2, 3, 4, 5))
	weave := model.UniformFlow("weave", 50, 0, 0, 2, 2, 3, 9, 4, 5)
	ok, _, err := c.TryAdmit(weave)
	if err != nil {
		t.Fatalf("assumption-1 candidate errored: %v", err)
	}
	if !ok {
		t.Error("weaving deadline-free candidate refused")
	}
}

// coldAdmitOracle replicates the cold TryAdmit decision (the
// EnforceAssumption1 + ef.Analyze pipeline) for a hypothetical
// admitted-set + candidate, without touching any controller state.
func coldAdmitOracle(t *testing.T, net model.Network, opt trajectory.Options,
	admitted []*model.Flow, f *model.Flow) (bool, *Report) {
	t.Helper()
	return coldSetOracle(t, net, opt, append(append([]*model.Flow(nil), admitted...), f))
}

// coldSetOracle decides a whole hypothetical set cold: it is admissible
// iff the EF pipeline succeeds and every deadline holds.
func coldSetOracle(t *testing.T, net model.Network, opt trajectory.Options, flows []*model.Flow) (bool, *Report) {
	t.Helper()
	trial := make([]*model.Flow, 0, len(flows))
	for _, g := range flows {
		trial = append(trial, g.Clone())
	}
	trial = model.EnforceAssumption1(trial)
	fs, err := model.NewFlowSet(net, trial)
	if err != nil {
		t.Fatalf("oracle flow set: %v", err)
	}
	res, err := ef.Analyze(fs, opt)
	if err != nil {
		if errors.Is(err, model.ErrUnstable) || errors.Is(err, model.ErrOverflow) {
			return false, &Report{Method: "trajectory-ef", AllFeasible: false}
		}
		t.Fatalf("oracle analysis: %v", err)
	}
	rep := &Report{Method: "trajectory-ef", AllFeasible: true}
	for k, idx := range res.EFIndex {
		fl := fs.Flows[idx]
		v := Verdict{Flow: idx, Name: fl.Name, Bound: res.Trajectory.Bounds[k],
			Deadline: fl.Deadline, Jitter: res.Trajectory.Jitters[k]}
		if fl.Deadline > 0 {
			var sat bool
			v.Slack = model.SubSat(fl.Deadline, v.Bound, &sat)
			v.Feasible = v.Bound <= fl.Deadline
		} else {
			v.Feasible = true
		}
		if !v.Feasible {
			rep.AllFeasible = false
		}
		rep.Verdicts = append(rep.Verdicts, v)
	}
	return rep.AllFeasible, rep
}

// TestControllerWarmMatchesColdOracle: a long all-EF admission sequence
// through the warm fast path produces, decision by decision, the exact
// verdicts of the cold ef.Analyze pipeline.
func TestControllerWarmMatchesColdOracle(t *testing.T) {
	net := model.UnitDelayNetwork()
	opt := trajectory.Options{}
	c := NewController(net, opt)
	mk := func(k int, dl model.Time, path ...model.NodeID) *model.Flow {
		return model.UniformFlow("f"+string(rune('a'+k)), 40+model.Time(k%3)*10, model.Time(k%2), dl, 2, path...)
	}
	cands := []*model.Flow{
		mk(0, 25, 1, 2, 3),
		mk(1, 25, 2, 3, 4),
		mk(2, 25, 3, 2, 1), // reverse direction
		mk(3, 18, 1, 2, 3, 4),
		mk(4, 14, 4, 3, 2),
		mk(5, 12, 2, 3),
		mk(6, 12, 1, 2, 3),
		mk(7, 10, 3, 4),
		mk(8, 60, 1, 2, 3, 4),
	}
	for k, f := range cands {
		wantOK, wantRep := coldAdmitOracle(t, net, opt, c.Admitted(), f)
		gotOK, gotRep, err := c.TryAdmit(f)
		if err != nil {
			t.Fatalf("cand %d: %v", k, err)
		}
		if gotOK != wantOK {
			t.Fatalf("cand %d: warm admit=%v, cold oracle=%v", k, gotOK, wantOK)
		}
		if !reflect.DeepEqual(gotRep, wantRep) {
			t.Fatalf("cand %d: report mismatch\nwarm: %+v\ncold: %+v", k, gotRep, wantRep)
		}
	}
	if len(c.Admitted()) == 0 || len(c.Admitted()) == len(cands) {
		t.Fatalf("admitted %d of %d: want a mix of accepts and refusals", len(c.Admitted()), len(cands))
	}
	// Duplicate-name candidate: identical wrapped validation error.
	dup := c.Admitted()[0].Clone()
	if _, _, err := c.TryAdmit(dup); err == nil ||
		!strings.Contains(err.Error(), "duplicate flow name") ||
		!errors.Is(err, model.ErrInvalidConfig) {
		t.Fatalf("duplicate candidate: %v", err)
	}
}
