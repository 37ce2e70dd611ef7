package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"time"

	"trajan/internal/model"
	"trajan/internal/serve"
)

// opRec is the compact record of one answered request, kept for the
// output checks that run after the timed window.
type opRec struct {
	kind     byte // 'w' whatif, 'a' admit, 'b' bounds, 'r' renegotiate, 'x' release
	round    int
	decision string
	reason   string
	seq      int64
	flows    int
	slack    model.Time
	bounds   []model.Time
	names    uint64
}

// tenantLog is what one closed-loop client saw.
type tenantLog struct {
	recs      []opRec
	decisions timeline // admit, renegotiate, release
	probes    timeline // whatif
	reads     timeline // bounds
	err       error    // first failure; the client stops on it
}

func slackOf(p *model.Time) model.Time {
	if p == nil {
		return model.TimeInfinity
	}
	return *p
}

func namesHash(names []string) uint64 {
	h := fnv.New64a()
	for _, n := range names {
		h.Write([]byte(n))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

func flowNames(flows []*model.Flow) []string {
	out := make([]string, len(flows))
	for i, f := range flows {
		out[i] = f.Name
	}
	return out
}

func flowCfg(f *model.Flow) *model.FlowConfig {
	c := model.ConfigOfFlow(f)
	return &c
}

// buildStanding admits a tenant's standing set one flow at a time; each
// admit must be accepted with the oracle's slack.
func buildStanding(c *client, t *churnTenant) error {
	for k, f := range t.Standing.Flows {
		var dr serve.DecisionResponse
		if _, err := c.call("POST", "/v1/"+t.Name+"/admit", serve.AdmitRequest{Flow: flowCfg(f)}, &dr); err != nil {
			return err
		}
		_, want := verdictOf(t.Standing.Flows[:k+1], t.BuildBounds[k])
		if dr.Decision != "admitted" || dr.Flows != k+1 || slackOf(dr.MinSlack) != want {
			return fmt.Errorf("perfbench: %s standing admit %d: got %s flows=%d slack=%d, oracle admitted flows=%d slack=%d",
				t.Name, k, dr.Decision, dr.Flows, slackOf(dr.MinSlack), k+1, want)
		}
	}
	return nil
}

// churnLoop drives one tenant closed-loop until end: each round probes
// X, admits X, reads the bounds and, when X was admitted, renegotiates
// it to X2 and releases it, so every round returns the tenant to its
// standing set.
func churnLoop(c *client, t *churnTenant, end time.Time, cnt *counts) *tenantLog {
	lg := &tenantLog{}
	fail := func(err error) bool {
		cnt.record(err)
		if err != nil {
			lg.err = err
			return true
		}
		return false
	}
	base := "/v1/" + t.Name
	for k := 0; time.Now().Before(end); k++ {
		i := k % len(t.Rounds)
		r := &t.Rounds[i]

		var wr serve.WhatIfResponse
		rtt, err := c.call("POST", base+"/whatif", serve.WhatIfRequest{Candidates: []serve.WhatIfCandidate{{Op: "add", Flow: flowCfg(r.X)}}}, &wr)
		if fail(err) {
			return lg
		}
		lg.probes.add(rtt)
		rec := opRec{kind: 'w', round: i, seq: wr.Seq}
		if len(wr.Outcomes) == 1 {
			o := wr.Outcomes[0]
			rec.decision, rec.slack = o.Decision, slackOf(o.MinSlack)
			names := make([]string, len(o.Verdicts))
			rec.bounds = make([]model.Time, len(o.Verdicts))
			for j, v := range o.Verdicts {
				names[j], rec.bounds[j] = v.Flow, v.Bound
			}
			rec.names = namesHash(names)
		}
		lg.recs = append(lg.recs, rec)

		var dr serve.DecisionResponse
		rtt, err = c.call("POST", base+"/admit", serve.AdmitRequest{Flow: flowCfg(r.X)}, &dr)
		if fail(err) {
			return lg
		}
		lg.decisions.add(rtt)
		lg.recs = append(lg.recs, decisionRec('a', i, &dr))

		var br serve.BoundsResponse
		rtt, err = c.call("GET", base+"/bounds", nil, &br)
		if fail(err) {
			return lg
		}
		lg.reads.add(rtt)
		rec = opRec{kind: 'b', round: i, seq: br.Seq, flows: br.Flows, slack: slackOf(br.MinSlack), decision: fmt.Sprint(br.AllFeasible)}
		rec.bounds = make([]model.Time, len(br.Verdicts))
		names := make([]string, len(br.Verdicts))
		for j, v := range br.Verdicts {
			names[j], rec.bounds[j] = v.Flow, v.Bound
		}
		rec.names = namesHash(names)
		lg.recs = append(lg.recs, rec)

		if dr.Decision != "admitted" {
			continue
		}
		dr = serve.DecisionResponse{}
		rtt, err = c.call("POST", base+"/renegotiate", serve.AdmitRequest{Flow: flowCfg(r.X2)}, &dr)
		if fail(err) {
			return lg
		}
		lg.decisions.add(rtt)
		lg.recs = append(lg.recs, decisionRec('r', i, &dr))

		dr = serve.DecisionResponse{}
		rtt, err = c.call("POST", base+"/release", serve.ReleaseRequest{Name: r.X.Name}, &dr)
		if fail(err) {
			return lg
		}
		lg.decisions.add(rtt)
		lg.recs = append(lg.recs, decisionRec('x', i, &dr))
	}
	return lg
}

func decisionRec(kind byte, round int, dr *serve.DecisionResponse) opRec {
	return opRec{kind: kind, round: round, decision: dr.Decision, reason: dr.Reason, seq: dr.Seq, flows: dr.Flows, slack: slackOf(dr.MinSlack)}
}

// verifyChurn checks every answer a tenant's client received against
// the cold oracle of the seeded plan: verdicts, reasons, set sizes,
// sequence numbers, slacks and bit-identical bounds.
func verifyChurn(t *churnTenant, startSeq int64, lg *tenantLog) error {
	n := t.Standing.N()
	_, slackS := verdictOf(t.Standing.Flows, t.Bounds)
	standingNames := namesHash(flowNames(t.Standing.Flows))
	seq := startSeq
	next := 0
	expect := func(kind byte, round int) (*opRec, error) {
		if next >= len(lg.recs) {
			return nil, nil
		}
		rec := &lg.recs[next]
		next++
		if rec.kind != kind || rec.round != round {
			return nil, fmt.Errorf("record %d: got op %c round %d, want op %c round %d", next-1, rec.kind, rec.round, kind, round)
		}
		return rec, nil
	}
	bad := func(rec *opRec, format string, a ...any) error {
		return fmt.Errorf("%s: op %c of round %d (seq %d): %s", t.Name, rec.kind, rec.round, rec.seq, fmt.Sprintf(format, a...))
	}
	for k := 0; next < len(lg.recs); k++ {
		i := k % len(t.Rounds)
		r := &t.Rounds[i]
		withX := append(flowNames(t.Standing.Flows), r.X.Name)

		rec, err := expect('w', i)
		if err != nil || rec == nil {
			return err
		}
		wantW := "infeasible"
		if r.AdmitOK {
			wantW = "feasible"
		}
		if rec.decision != wantW || rec.slack != r.SlackX || rec.names != namesHash(withX) || !reflect.DeepEqual(rec.bounds, r.BoundsX) {
			return bad(rec, "whatif %s slack %d, oracle %s slack %d (or bounds differ)", rec.decision, rec.slack, wantW, r.SlackX)
		}

		if rec, err = expect('a', i); err != nil || rec == nil {
			return err
		}
		if r.AdmitOK {
			seq++
			if rec.decision != "admitted" || rec.seq != seq || rec.flows != n+1 || rec.slack != r.SlackX {
				return bad(rec, "admit %s flows %d slack %d, oracle admitted seq %d flows %d slack %d", rec.decision, rec.flows, rec.slack, seq, n+1, r.SlackX)
			}
		} else if rec.decision != "rejected" || rec.reason != "deadline miss" || rec.seq != seq || rec.flows != n || rec.slack != slackS {
			return bad(rec, "admit %s (%s) flows %d slack %d, oracle rejected (deadline miss) seq %d", rec.decision, rec.reason, rec.flows, rec.slack, seq)
		}

		if rec, err = expect('b', i); err != nil || rec == nil {
			return err
		}
		wantB, wantN, wantS, wantNames := t.Bounds, n, slackS, standingNames
		if r.AdmitOK {
			wantB, wantN, wantS, wantNames = r.BoundsX, n+1, r.SlackX, namesHash(withX)
		}
		if rec.seq != seq || rec.flows != wantN || rec.slack != wantS || rec.decision != "true" || rec.names != wantNames || !reflect.DeepEqual(rec.bounds, wantB) {
			return bad(rec, "bounds read differs from the cold oracle")
		}
		if !r.AdmitOK {
			continue
		}

		if rec, err = expect('r', i); err != nil || rec == nil {
			return err
		}
		if r.RenegOK {
			seq++
			if rec.decision != "renegotiated" || rec.seq != seq || rec.flows != n+1 || rec.slack != r.SlackX2 {
				return bad(rec, "renegotiate %s slack %d, oracle renegotiated seq %d slack %d", rec.decision, rec.slack, seq, r.SlackX2)
			}
		} else if rec.decision != "rejected" || rec.reason != "deadline miss" || rec.seq != seq || rec.slack != r.SlackX {
			return bad(rec, "renegotiate %s (%s) slack %d, oracle rejected (deadline miss) slack %d", rec.decision, rec.reason, rec.slack, r.SlackX)
		}

		if rec, err = expect('x', i); err != nil || rec == nil {
			return err
		}
		seq++
		if rec.decision != "released" || rec.seq != seq || rec.flows != n || rec.slack != slackS {
			return bad(rec, "release %s flows %d slack %d, oracle released seq %d flows %d slack %d", rec.decision, rec.flows, rec.slack, seq, n, slackS)
		}
	}
	return nil
}

// servedSet reads a tenant's admitted flows and bounds and checks the
// bounds bit-identical to a cold analysis of those flows.
func servedSet(c *client, prefix string) (*serve.FlowsResponse, error) {
	var fr serve.FlowsResponse
	if _, err := c.call("GET", prefix+"/flows", nil, &fr); err != nil {
		return nil, err
	}
	var br serve.BoundsResponse
	if _, err := c.call("GET", prefix+"/bounds", nil, &br); err != nil {
		return nil, err
	}
	if fr.Seq != br.Seq || len(fr.Flows) != len(br.Verdicts) {
		return nil, fmt.Errorf("perfbench: %s: flows (seq %d) and bounds (seq %d) disagree", prefix, fr.Seq, br.Seq)
	}
	if len(fr.Flows) == 0 {
		return &fr, nil
	}
	if err := checkServedBounds(prefix, &fr, &br); err != nil {
		return nil, err
	}
	return &fr, nil
}

// checkServedBounds compares served bounds, flow by flow, with a cold
// analysis of the served flows.
func checkServedBounds(prefix string, fr *serve.FlowsResponse, br *serve.BoundsResponse) error {
	flows := make([]*model.Flow, len(fr.Flows))
	for i, fi := range fr.Flows {
		f := model.UniformFlow(fi.Name, fi.Period, fi.Jitter, fi.Deadline, 1, fi.Path...)
		copy(f.Cost, fi.Cost)
		flows[i] = f
	}
	fs, err := model.NewFlowSet(benchNet, flows)
	if err != nil {
		return fmt.Errorf("perfbench: %s: served flows do not form a valid set: %w", prefix, err)
	}
	want, err := coldBounds(fs)
	if err != nil {
		return fmt.Errorf("perfbench: %s: cold analysis of the served flows: %w", prefix, err)
	}
	for i, v := range br.Verdicts {
		if v.Flow != fr.Flows[i].Name || v.Bound != want[i] {
			return fmt.Errorf("perfbench: %s: served bound of %s is %d, cold analysis gives %d", prefix, v.Flow, v.Bound, want[i])
		}
	}
	return nil
}

// setupReps is how many times each run repeats its set-up; setup_s is
// the median.
const setupReps = 5

// runChurn is the untraced churn-journal workload against trajand.
func runChurn(o *runOpts, rep *report) (*outcome, error) {
	tenants, err := planChurn(o.seed)
	if err != nil {
		return nil, err
	}
	jdir := filepath.Join(o.workdir, "journal")
	if err := os.RemoveAll(jdir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		return nil, err
	}
	o.env.JournalFS = fsType(jdir)
	args := []string{"-journal-dir", jdir}

	d, err := startDaemon(o.trajand, args...)
	if err != nil {
		return nil, err
	}
	c := newClient(d.base)
	for _, t := range tenants {
		if err := buildStanding(c, t); err != nil {
			d.kill()
			return nil, err
		}
	}
	c.close()
	if err := d.stop(); err != nil {
		return nil, err
	}

	// Set-up is a restart: recover every tenant from checkpoint + tail.
	var setups []float64
	startSeq := make([]int64, len(tenants))
	for k := 0; k < setupReps; k++ {
		t0, c0 := time.Now(), readCPU()
		d, err = startDaemon(o.trajand, args...)
		if err != nil {
			return nil, err
		}
		c = newClient(d.base)
		for i, t := range tenants {
			var h serve.HealthResponse
			if _, err := c.call("GET", "/v1/"+t.Name+"/healthz", nil, &h); err != nil {
				d.kill()
				return nil, err
			}
			startSeq[i] = h.Seq
			if h.Flows != t.Standing.N() {
				d.kill()
				return nil, fmt.Errorf("perfbench: %s recovered %d flows, want %d", t.Name, h.Flows, t.Standing.N())
			}
		}
		setups = append(setups, netOfSteal(time.Since(t0), c0, readCPU()).Seconds())
		c.close()
		if k < setupReps-1 {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
	}
	defer func() {
		if d != nil {
			d.kill()
		}
	}()

	cnt := &counts{}
	logs := make([]*tenantLog, len(tenants))
	start := time.Now()
	end := start.Add(o.seconds)
	meter := startStealMeter(start, o.seconds, servingWindows)
	var wg sync.WaitGroup
	for i, t := range tenants {
		wg.Add(1)
		go func(i int, t *churnTenant) {
			defer wg.Done()
			cl := loadClient(d.base)
			defer cl.close()
			logs[i] = churnLoop(cl, t, end, cnt)
		}(i, t)
	}
	wg.Wait()
	elapsed := time.Since(start)
	shares := meter.finish()
	rss, err := peakRSSMB(d.pid())
	if err != nil {
		return nil, err
	}

	out := &outcome{attempted: cnt.attempted, failed: cnt.failed}
	if cnt.firstErr != "" {
		out.problem("first failure: %s", cnt.firstErr)
	}
	// Output checks, outside the timed window.
	for i, t := range tenants {
		if err := verifyChurn(t, startSeq[i], logs[i]); err != nil {
			out.problem("%v", err)
		}
	}
	c = newClient(d.base)
	before := make([]*serve.FlowsResponse, len(tenants))
	for i, t := range tenants {
		if before[i], err = servedSet(c, "/v1/"+t.Name); err != nil {
			out.problem("%v", err)
		}
	}
	c.close()
	if err := d.stop(); err != nil {
		return nil, err
	}
	// A graceful restart must recover exactly the pre-shutdown sets.
	d, err = startDaemon(o.trajand, args...)
	if err != nil {
		return nil, err
	}
	c = newClient(d.base)
	for i, t := range tenants {
		after, err := servedSet(c, "/v1/"+t.Name)
		if err != nil {
			out.problem("%v", err)
		} else if before[i] != nil && !reflect.DeepEqual(before[i], after) {
			out.problem("%s: restart recovered seq %d with %d flows, shut down at seq %d with %d flows",
				t.Name, after.Seq, len(after.Flows), before[i].Seq, len(before[i].Flows))
		}
	}
	c.close()
	err = d.stop()
	d = nil
	if err != nil {
		return nil, err
	}

	var dec, probe, reads timeline
	for _, lg := range logs {
		dec.merge(&lg.decisions)
		probe.merge(&lg.probes)
		reads.merge(&lg.reads)
	}
	if err := servingMetrics(rep, &dec, &probe, &reads, meter, shares, start.Add(elapsed), rss, setups); err != nil {
		return nil, err
	}
	return out, nil
}

// planChurn draws one tenant per client.
func planChurn(seed int64) ([]*churnTenant, error) {
	var out []*churnTenant
	for i := 0; i < clientCount(); i++ {
		t, err := planChurnTenant(seed, fmt.Sprintf("t%d", i))
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// servingMetrics adds the end-to-end metrics of a serving workload:
// medians over the steal meter's windows (see timeline.windowed). The
// probes are the what-if reads, which run an analysis; snapshot reads
// of /bounds cost a fraction of that and would make the probe latency
// bimodal, so they are printed on their own.
func servingMetrics(rep *report, dec, probe, reads *timeline, m *stealMeter, shares []float64, end time.Time, rss float64, setups []float64) error {
	if err := dec.windowed(rep, "decision", m, shares, end); err != nil {
		return err
	}
	if err := probe.windowed(rep, "probe", m, shares, end); err != nil {
		return err
	}
	_, tail, _ := reads.d.tail(99)
	rep.line("bounds reads raw wall clock: p50 %.3f ms, tail %.3f ms, n=%d", ms(reads.d.median()), ms(tail), len(reads.d))
	rep.line("steal share of busy CPU per window: %.3f", shares)
	rep.add("peak_rss_mb", rss, "MiB", "daemon VmHWM")
	rep.add("setup_s", medianFloat(setups), "s", fmt.Sprintf("net of steal, median of %d", len(setups)))
	return nil
}
