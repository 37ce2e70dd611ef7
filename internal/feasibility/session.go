package feasibility

import (
	"context"
	"errors"
	"slices"

	"trajan/internal/model"
	"trajan/internal/trajectory"
)

// ErrUnknownFlow marks renegotiate, release and update targets that
// name no committed flow. Session wraps it in ErrInvalidConfig; the
// serving layer maps it to 404.
var ErrUnknownFlow = errors.New("feasibility: unknown flow")

// IsRefusal reports whether an analysis error means "refused" — the
// set diverges (ErrUnstable) or overflows the time domain
// (ErrOverflow) — rather than a request or server failure.
func IsRefusal(err error) bool {
	return errors.Is(err, model.ErrUnstable) || errors.Is(err, model.ErrOverflow)
}

// Decision is the outcome of one Session mutation.
type Decision struct {
	// Committed reports whether the mutation is now part of the set.
	Committed bool
	// Reason is "deadline miss" or "unstable" when the analysed set
	// fails — why Admit or Renegotiate refused, or the verdict a
	// committed Release or Update left — and empty otherwise.
	Reason string
	// Set is the analysed set (the committed one, or the refused
	// hypothetical) and Bounds its bounds (nil when Reason is
	// "unstable").
	Set    *model.FlowSet
	Bounds []model.Time
	// MinSlack is Set's tightest deadline slack: TimeInfinity when no
	// flow has a deadline, 0 when Reason is "unstable".
	MinSlack model.Time
}

// Session is the one admission core behind trajand, trajan -admit and
// Controller's warm case: a warm trajectory.Analyzer over the last
// committed flow set — empty at the start of the paper's Section 6,
// which admits flows one at a time — and its rule: a flow joins only
// if, with it installed, every flow still meets its deadline. Every
// mutation runs the same steps:
//
//  1. mutate the engine: AddFlow / UpdateFlow / RemoveFlow;
//  2. take the verdict: warm BoundsContext, or AnalyzeBackend when the
//     backend is not trajectory, summarized by SetVerdict;
//  3. Admit and Renegotiate undo the mutation on a deadline miss or a
//     refusal error (IsRefusal) and report a refusal; any other error
//     is undone and returned;
//  4. call the Commit hook, then commit.
//
// Release and Update commit whatever the verdict, so they call the hook
// before taking it. When an undo or the hook fails, the last committed
// set is restored exactly — same flows, same order, bit-identical
// bounds — by a cold rebuild. A Session is not safe for concurrent use.
type Session struct {
	opt     trajectory.Options
	backend Backend
	a       *trajectory.Analyzer
	fs      *model.FlowSet // last committed set

	// Commit, when non-nil, is called once per mutation about to commit:
	// op is "admit", "renegotiate", "release" or "update", name the
	// released flow, f the new contract (nil on release). An error
	// restores the last committed set and is returned.
	Commit func(op, name string, f *model.Flow) error
}

// NewSession starts a session over flows, installed without an
// admission test. An empty backend selects BackendTrajectory.
// NonPreemption vectors are refused: they index flows and cannot follow
// the set's mutations.
func NewSession(net model.Network, opt trajectory.Options, b Backend, flows []*model.Flow) (*Session, error) {
	if opt.NonPreemption != nil {
		return nil, model.Errorf(model.ErrInvalidConfig,
			"feasibility: per-flow NonPreemption vectors cannot be remapped across mutations")
	}
	if b == "" {
		b = BackendTrajectory
	}
	b, err := ParseBackend(string(b))
	if err != nil {
		return nil, err
	}
	cl := make([]*model.Flow, len(flows))
	for i, f := range flows {
		cl[i] = f.Clone()
	}
	s := &Session{opt: opt, backend: b}
	if s.fs, err = model.NewFlowSet(net, cl); err != nil {
		return nil, err
	}
	s.restore()
	return s, nil
}

// Set returns the last committed flow set. Sets are copy-on-write, so
// the result stays valid after later mutations.
func (s *Session) Set() *model.FlowSet { return s.fs }

// Flows returns the committed flows in set order.
func (s *Session) Flows() []*model.Flow { return s.fs.Flows }

// Analyzer returns the warm engine over the committed set, for
// read-only use such as what-if batches.
func (s *Session) Analyzer() *trajectory.Analyzer { return s.a }

// Index returns the position of the committed flow named name, or -1.
func (s *Session) Index(name string) int { return indexOf(s.Flows(), name) }

func indexOf(flows []*model.Flow, name string) int {
	return slices.IndexFunc(flows, func(f *model.Flow) bool { return f.Name == name })
}

// Admit commits f if every deadline still holds with it installed. A
// name already in the set is an ErrInvalidConfig error.
func (s *Session) Admit(ctx context.Context, f *model.Flow) (Decision, error) {
	if _, err := s.lookup(f.Name, false); err != nil {
		return Decision{}, err
	}
	i, err := s.a.AddFlow(f)
	if err != nil {
		return Decision{}, model.Classify(model.ErrInvalidConfig, err)
	}
	return s.try(ctx, "admit", f, func() error { return s.a.RemoveFlow(i) })
}

// Renegotiate replaces the contract of the committed flow named f.Name
// in place and keeps it only if every deadline still holds; a refusal
// leaves the old contract in force at its old position.
func (s *Session) Renegotiate(ctx context.Context, f *model.Flow) (Decision, error) {
	i, old, err := s.replace(f)
	if err != nil {
		return Decision{}, err
	}
	return s.try(ctx, "renegotiate", f, func() error { return s.a.UpdateFlow(i, old) })
}

// Update replaces the contract of the committed flow named f.Name in
// place and commits it whatever the verdict.
func (s *Session) Update(ctx context.Context, f *model.Flow) (Decision, error) {
	if _, _, err := s.replace(f); err != nil {
		return Decision{}, err
	}
	return s.force(ctx, "update", "", f)
}

// Release removes the committed flow named name. The removal commits
// before the verdict, so a verdict error comes back with a committed
// Decision.
func (s *Session) Release(ctx context.Context, name string) (Decision, error) {
	i, err := s.lookup(name, true)
	if err != nil {
		return Decision{}, err
	}
	if err := s.a.RemoveFlow(i); err != nil {
		return Decision{}, err
	}
	return s.force(ctx, "release", name, nil)
}

// Routes is the scoring half of a route=auto admit (or, with
// renegotiate, renegotiation): RouteCandidates re-routes f onto up to
// k shortest paths over topo, every candidate is scored against the
// committed set as one WhatIf batch on the warm engine, and ChooseRoute
// picks the winner (-1 when none is feasible). The name is checked
// first, so a duplicate admit or an unknown renegotiation fails exactly
// as on the manual path. The caller commits the winner with Admit or
// Renegotiate, after recording the candidates.
func (s *Session) Routes(ctx context.Context, topo *model.Topology, f *model.Flow, k int, renegotiate bool) ([]RouteCandidate, int, error) {
	idx, err := s.lookup(f.Name, renegotiate)
	if err != nil {
		return nil, -1, err
	}
	cfs, err := RouteCandidates(topo, f, k)
	if err != nil {
		return nil, -1, err
	}
	cands := ScoreRoutesWhatIf(ctx, s.a, cfs, idx)
	return cands, ChooseRoute(cands), nil
}

// Verdict analyses the engine's current set (after a mutation, the
// hypothetical one). Refusal errors come back as errors; a deadline
// miss sets Reason.
func (s *Session) Verdict(ctx context.Context) (Decision, error) {
	d := Decision{Set: s.a.FlowSet()}
	var err error
	if s.backend == BackendTrajectory {
		d.Bounds, err = s.a.BoundsContext(ctx)
	} else {
		var res *BackendResult
		if res, err = AnalyzeBackend(ctx, d.Set, s.backend, s.opt); err == nil {
			d.Bounds = res.Bounds
		}
	}
	if err != nil {
		return Decision{Set: d.Set}, err
	}
	ok, minSlack := SetVerdict(d.Set.Flows, d.Bounds)
	d.MinSlack = minSlack
	if !ok {
		d.Reason = "deadline miss"
	}
	return d, nil
}

// lookup finds name in the committed set: it must be there when
// present is true (ErrUnknownFlow otherwise) and must not be otherwise.
func (s *Session) lookup(name string, present bool) (int, error) {
	i := s.Index(name)
	switch {
	case present && i < 0:
		return -1, model.Errorf(model.ErrInvalidConfig, "%w %q", ErrUnknownFlow, name)
	case !present && i >= 0:
		return -1, model.Errorf(model.ErrInvalidConfig, "flowset: duplicate flow name %q", name)
	}
	return i, nil
}

// replace puts f in place of the committed flow of the same name and
// returns its index and old contract.
func (s *Session) replace(f *model.Flow) (int, *model.Flow, error) {
	i, err := s.lookup(f.Name, true)
	if err != nil {
		return -1, nil, err
	}
	old := s.fs.Flows[i]
	if err := s.a.UpdateFlow(i, f); err != nil {
		return -1, nil, model.Classify(model.ErrInvalidConfig, err)
	}
	return i, old, nil
}

// try finishes Admit and Renegotiate: undo and refuse on a failed
// verdict, commit otherwise.
func (s *Session) try(ctx context.Context, op string, f *model.Flow, undo func() error) (Decision, error) {
	d, err := s.Verdict(ctx)
	if IsRefusal(err) {
		d.Reason, err = "unstable", nil
	}
	if err != nil || d.Reason != "" {
		if undo() != nil {
			s.restore()
		}
		return d, err
	}
	if err := s.commit(op, "", f); err != nil {
		return Decision{}, err
	}
	d.Committed = true
	return d, nil
}

// force finishes Release and Update: commit, then take the verdict.
func (s *Session) force(ctx context.Context, op, name string, f *model.Flow) (Decision, error) {
	if err := s.commit(op, name, f); err != nil {
		return Decision{}, err
	}
	d, err := s.Verdict(ctx)
	if IsRefusal(err) {
		d.Reason, err = "unstable", nil
	}
	d.Committed = true
	return d, err
}

// commit runs the hook and makes the engine's set the committed one.
func (s *Session) commit(op, name string, f *model.Flow) error {
	if s.Commit != nil {
		if err := s.Commit(op, name, f); err != nil {
			s.restore()
			return err
		}
	}
	s.fs = s.a.FlowSet()
	return nil
}

// restore rebuilds the engine cold from the last committed set. A cold
// analysis of a set is bit-identical to a warm one, so nothing
// observable changes.
func (s *Session) restore() {
	// NewAnalyzer fails only on NonPreemption vectors, which NewSession
	// refuses.
	s.a, _ = trajectory.NewAnalyzer(s.fs, s.opt)
}
