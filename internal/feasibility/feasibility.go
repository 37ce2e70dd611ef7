// Package feasibility turns response-time bounds into schedulability
// verdicts and implements the deterministic admission control the paper
// motivates for the EF class (Section 6): a new flow is admitted only
// if, with it included, every EF flow still meets its end-to-end
// deadline under the trajectory bounds.
package feasibility

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"trajan/internal/ef"
	"trajan/internal/model"
	"trajan/internal/obs"
	"trajan/internal/trajectory"
)

// Verdict is one flow's schedulability decision.
type Verdict struct {
	// Flow is the flow's index in the flow set.
	Flow int
	// Name is the flow's name.
	Name string
	// Bound is the analysed worst-case end-to-end response time.
	Bound model.Time
	// Deadline is the flow's end-to-end deadline Di.
	Deadline model.Time
	// Slack is Deadline - Bound (negative when infeasible).
	Slack model.Time
	// Jitter is the end-to-end jitter bound (Definition 2).
	Jitter model.Time
	// Feasible reports Bound ≤ Deadline. Flows with no deadline
	// (Deadline == 0) are vacuously feasible.
	Feasible bool
}

// Report is the verdict set of a whole analysis.
type Report struct {
	Method      string
	Verdicts    []Verdict
	AllFeasible bool
}

// Check evaluates bounds against the flow set's deadlines. Jitters may
// be nil.
func Check(fs *model.FlowSet, bounds, jitters []model.Time, method string) (*Report, error) {
	if len(bounds) != fs.N() {
		return nil, model.Errorf(model.ErrInvalidConfig, "feasibility: %d bounds for %d flows", len(bounds), fs.N())
	}
	rep := &Report{Method: method, AllFeasible: true}
	for i, f := range fs.Flows {
		var jitter model.Time
		if jitters != nil {
			jitter = jitters[i]
		}
		rep.add(i, f, bounds[i], jitter)
	}
	return rep, nil
}

// add appends flow i's verdict. An Unbounded bound (TimeInfinity)
// always misses any finite deadline; SubSat keeps the slack a
// well-defined saturated negative instead of a wrapped number.
func (rep *Report) add(i int, f *model.Flow, bound, jitter model.Time) {
	v := Verdict{Flow: i, Name: f.Name, Bound: bound, Deadline: f.Deadline, Jitter: jitter, Feasible: true}
	if f.Deadline > 0 {
		var sat bool
		v.Slack = model.SubSat(f.Deadline, bound, &sat)
		v.Feasible = bound <= f.Deadline
	}
	if !v.Feasible {
		rep.AllFeasible = false
	}
	rep.Verdicts = append(rep.Verdicts, v)
}

// Controller is an incremental EF admission controller: it maintains
// the set of admitted flows (EF flows under test plus the fixed
// lower-class background) and accepts a candidate only if the whole
// resulting set remains feasible under the trajectory analysis
// (Property 3 when non-EF background flows are present).
type Controller struct {
	net      model.Network
	opt      trajectory.Options
	admitted []*model.Flow
	// warm is the admission Session over the admitted set while the warm
	// engine can represent it (see warmable); nil otherwise, and rebuilt
	// on the next warm decision.
	warm *Session
}

// NewController starts a controller over an empty network. Background
// (non-EF) flows may be pre-installed with Preload; they are never
// checked for deadlines but contribute non-preemption blocking.
func NewController(net model.Network, opt trajectory.Options) *Controller {
	return &Controller{net: net, opt: opt}
}

// Preload installs flows without an admission test (e.g. the AF/BE
// background, or already-contracted EF flows).
func (c *Controller) Preload(flows ...*model.Flow) {
	for _, f := range flows {
		c.admitted = append(c.admitted, f.Clone())
	}
	c.warm = nil // the set changed outside the warm engine
}

// Admitted returns the currently admitted flows.
func (c *Controller) Admitted() []*model.Flow { return c.admitted }

// emitDecision records one admission verdict on the configured tracer:
// Op names the path taken (warm Session vs cold rebuild), Outcome
// starts with "admitted" or "rejected" (the metrics aggregation keys on
// the first word).
func (c *Controller) emitDecision(op, flow, outcome string) {
	if tr := c.opt.Tracer; tr != nil {
		tr.Emit(obs.Event{Type: obs.EvAdmission, Op: op, Flow: flow, Outcome: outcome})
	}
}

// warmable reports whether the warm engine can represent trial: every
// flow is EF, Assumption 1 holds without splitting and no per-flow
// NonPreemption vectors are set. The EF analysis then reduces to the
// plain trajectory analysis of the set (δi ≡ 0), which is what Session
// decides on. Other sets take the cold ef.Analyze path.
func (c *Controller) warmable(trial []*model.Flow) bool {
	if c.opt.NonPreemption != nil {
		return false
	}
	for _, g := range trial {
		if g.Class != model.ClassEF {
			return false
		}
	}
	return len(model.CheckAssumption1(trial)) == 0
}

// decide runs one warm decision on trial through the Session, or the
// cold path when the warm engine cannot represent trial.
func (c *Controller) decide(trial []*model.Flow, name string, op func(*Session) (Decision, error)) (bool, *Report, error) {
	if !c.warmable(trial) {
		return c.tryCold(trial, name)
	}
	if c.warm == nil {
		s, err := NewSession(c.net, c.opt, BackendTrajectory, c.admitted)
		if err != nil {
			return false, nil, err
		}
		c.warm = s
	}
	d, err := op(c.warm)
	return c.settle(name, d, err)
}

// Release evicts an admitted flow by name. Removal can only shrink
// interference, so no feasibility test is needed. It reports whether
// the name matched an admitted flow.
func (c *Controller) Release(name string) bool {
	if c.warm != nil {
		// Any other error comes from the re-analysis after the removal
		// committed; Release reports only whether the name matched.
		if _, err := c.warm.Release(context.TODO(), name); errors.Is(err, ErrUnknownFlow) {
			return false
		}
		c.admitted = append([]*model.Flow(nil), c.warm.Flows()...)
		c.emitDecision("warm", name, "released")
		return true
	}
	i := indexOf(c.admitted, name)
	if i < 0 {
		return false
	}
	c.admitted = slices.Delete(c.admitted, i, i+1)
	c.emitDecision("cold", name, "released")
	return true
}

// TryRenegotiate replaces an admitted flow's contract (matched by
// f.Name) in place and accepts only if the resulting set remains
// feasible; a rejected renegotiation leaves the previous contract in
// force. The returned report describes the hypothetical set either
// way, exactly as TryAdmit does.
func (c *Controller) TryRenegotiate(f *model.Flow) (bool, *Report, error) {
	idx := indexOf(c.admitted, f.Name)
	if idx < 0 {
		return false, nil, model.Errorf(model.ErrInvalidConfig, "feasibility: renegotiate: unknown flow %q", f.Name)
	}
	trial := append([]*model.Flow(nil), c.admitted...)
	trial[idx] = f.Clone()
	return c.decide(trial, f.Name, func(s *Session) (Decision, error) {
		return s.Renegotiate(context.TODO(), trial[idx])
	})
}

// TryAdmit tests the candidate flow against the current set. On
// success the flow is committed and the post-admission report returned;
// on refusal the state is unchanged and the hypothetical report
// explains which flow would have missed its deadline.
func (c *Controller) TryAdmit(f *model.Flow) (bool, *Report, error) {
	trial := make([]*model.Flow, 0, len(c.admitted)+1)
	trial = append(append(trial, c.admitted...), f.Clone())
	return c.decide(trial, f.Name, func(s *Session) (Decision, error) {
		return s.Admit(context.TODO(), trial[len(trial)-1])
	})
}

// settle turns a warm Session decision into the Controller's answer.
// The report is exactly the one the cold path builds for the same set:
// for an all-EF set every flow is an EF flow and ef.Analyze's bounds
// and jitters are the plain trajectory ones.
func (c *Controller) settle(name string, d Decision, err error) (bool, *Report, error) {
	if err != nil {
		return false, nil, fmt.Errorf("feasibility: candidate %q: %w", name, err)
	}
	if d.Reason == "unstable" {
		c.emitDecision("warm", name, "rejected (unstable)")
		return false, &Report{Method: "trajectory-ef", AllFeasible: false}, nil
	}
	rep, err := Check(d.Set, d.Bounds, jittersFor(d.Set, d.Bounds), "trajectory-ef")
	if err != nil {
		return false, nil, err
	}
	if !d.Committed {
		c.emitDecision("warm", name, "rejected")
		return false, rep, nil
	}
	c.admitted = append([]*model.Flow(nil), c.warm.Flows()...)
	c.emitDecision("warm", name, "admitted")
	return true, rep, nil
}

// tryCold decides trial — the admitted set with the candidate appended
// or substituted — with the full EF pipeline: Assumption-1 splitting,
// then ef.Analyze with the non-preemption penalty of the non-EF flows.
// On acceptance trial (unsplit) becomes the admitted set.
func (c *Controller) tryCold(trial []*model.Flow, name string) (bool, *Report, error) {
	split := make([]*model.Flow, len(trial))
	for i, g := range trial {
		split[i] = g.Clone()
	}
	fs, err := model.NewFlowSet(c.net, model.EnforceAssumption1(split))
	if err != nil {
		return false, nil, model.Classify(model.ErrInvalidConfig, fmt.Errorf("feasibility: candidate %q: %w", name, err))
	}
	res, err := ef.Analyze(fs, c.opt)
	if err != nil {
		// Analysis divergence or overflow (overload) is a refusal, not a
		// failure; anything else — bad config, cancellation, an internal
		// panic — propagates to the caller.
		if IsRefusal(err) {
			c.emitDecision("cold", name, "rejected (unstable)")
			return false, &Report{Method: "trajectory-ef", AllFeasible: false}, nil
		}
		return false, nil, err
	}
	rep := &Report{Method: "trajectory-ef", AllFeasible: true}
	for k, idx := range res.EFIndex {
		rep.add(idx, fs.Flows[idx], res.Trajectory.Bounds[k], res.Trajectory.Jitters[k])
	}
	if !rep.AllFeasible {
		c.emitDecision("cold", name, "rejected")
		return false, rep, nil
	}
	c.admitted = trial
	c.warm = nil // the set changed behind the warm engine
	c.emitDecision("cold", name, "admitted")
	return true, rep, nil
}
