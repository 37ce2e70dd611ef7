package main

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"time"

	"trajan/internal/model"
	"trajan/internal/serve"
	"trajan/internal/workload"
)

// routeRec is one route=auto decision, kept for the path checks.
type routeRec struct {
	flow     *model.Flow
	decision string
	path     []model.NodeID
	cands    [][]model.NodeID
	chosen   int
}

// closLog is what one route-clos client saw.
type closLog struct {
	routes    []routeRec
	decisions timeline // admit, renegotiate, release
	probes    timeline // whatif
	reads     timeline // bounds
	unfeas    int      // bounds reads whose committed set missed a deadline
	badProbes int      // what-if probes answered with an error
	err       error
}

// closLoop drives one client closed-loop until end over its transient
// pool: what-if probes of the flow on its direct (spine 0) route and on
// its last k-shortest alternative, a route=auto admit, a bounds read and, when admitted, a route=auto
// renegotiation to the tightened deadline and a release.
func closLoop(c *client, pool []closTransient, end time.Time, cnt *counts) *closLog {
	lg := &closLog{}
	fail := func(err error) bool {
		cnt.record(err)
		if err != nil {
			lg.err = err
			return true
		}
		return false
	}
	for k := 0; time.Now().Before(end); k++ {
		tr := &pool[k%len(pool)]
		for _, pf := range tr.Probes {
			var wr serve.WhatIfResponse
			rtt, err := c.call("POST", "/v1/whatif", serve.WhatIfRequest{Candidates: []serve.WhatIfCandidate{{Op: "add", Flow: flowCfg(pf)}}}, &wr)
			if fail(err) {
				return lg
			}
			lg.probes.add(rtt)
			if len(wr.Outcomes) != 1 || wr.Outcomes[0].Decision == "error" {
				lg.badProbes++
			}
		}
		var dr serve.DecisionResponse
		rtt, err := c.call("POST", "/v1/admit?route=auto", serve.AdmitRequest{Flow: flowCfg(tr.Flow)}, &dr)
		if fail(err) {
			return lg
		}
		lg.decisions.add(rtt)
		lg.routes = append(lg.routes, routeOf(tr.Flow, &dr))
		admitted := dr.Decision == "admitted"

		var br serve.BoundsResponse
		rtt, err = c.call("GET", "/v1/bounds", nil, &br)
		if fail(err) {
			return lg
		}
		lg.reads.add(rtt)
		if !br.AllFeasible {
			lg.unfeas++
		}
		if !admitted {
			continue
		}
		tight := tr.Flow.Clone()
		tight.Deadline = tr.Tight
		dr = serve.DecisionResponse{}
		rtt, err = c.call("POST", "/v1/renegotiate?route=auto", serve.AdmitRequest{Flow: flowCfg(tight)}, &dr)
		if fail(err) {
			return lg
		}
		lg.decisions.add(rtt)
		lg.routes = append(lg.routes, routeOf(tight, &dr))

		dr = serve.DecisionResponse{}
		rtt, err = c.call("POST", "/v1/release", serve.ReleaseRequest{Name: tr.Flow.Name}, &dr)
		if fail(err) {
			return lg
		}
		lg.decisions.add(rtt)
	}
	return lg
}

func routeOf(f *model.Flow, dr *serve.DecisionResponse) routeRec {
	r := routeRec{flow: f, decision: dr.Decision, path: dr.Path, chosen: -1}
	for i, c := range dr.RouteCandidates {
		r.cands = append(r.cands, c.Path)
		if c.Chosen {
			r.chosen = i
		}
	}
	return r
}

// verifyRoutes checks every route=auto answer against the topology: the
// candidates are exactly KShortestPaths(k) in order, and a committed
// path is the chosen candidate.
func verifyRoutes(topo *model.Topology, lg *closLog) error {
	ksp := make(map[[2]model.NodeID][]model.Path)
	for _, r := range lg.routes {
		key := [2]model.NodeID{r.flow.Path.First(), r.flow.Path.Last()}
		want, ok := ksp[key]
		if !ok {
			var err error
			if want, err = topo.KShortestPaths(key[0], key[1], closRouteK); err != nil {
				return err
			}
			ksp[key] = want
		}
		if len(r.cands) != len(want) {
			return fmt.Errorf("%s: %d route candidates, KShortestPaths gives %d", r.flow.Name, len(r.cands), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(model.Path(r.cands[i]), want[i]) {
				return fmt.Errorf("%s: candidate %d is %v, KShortestPaths gives %v", r.flow.Name, i, r.cands[i], want[i])
			}
		}
		switch r.decision {
		case "admitted", "renegotiated":
			if r.chosen < 0 || !reflect.DeepEqual(r.path, r.cands[r.chosen]) {
				return fmt.Errorf("%s: committed path %v is not the chosen candidate", r.flow.Name, r.path)
			}
		case "rejected":
		default:
			return fmt.Errorf("%s: unexpected decision %q", r.flow.Name, r.decision)
		}
	}
	return nil
}

// closSetup writes the preload file and returns the daemon flags.
func closSetup(o *runOpts, p *closPlan) ([]string, error) {
	pre := filepath.Join(o.workdir, "preload.json")
	if err := writeJSONFile(pre, p.Preload.MarshalConfig()); err != nil {
		return nil, err
	}
	return []string{"-topology", closSpec, "-preload", pre}, nil
}

// startTimed starts trajand setupReps times, each until it answers
// /healthz, and returns the last (running) one with the median start-up.
func startTimed(o *runOpts, args []string) (*daemon, []float64, error) {
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0, c0 := time.Now(), readCPU()
		d, err := startDaemon(o.trajand, args...)
		if err != nil {
			return nil, nil, err
		}
		c := newClient(d.base)
		_, err = c.call("GET", "/healthz", nil, nil)
		c.close()
		if err != nil {
			d.kill()
			return nil, nil, err
		}
		setups = append(setups, netOfSteal(time.Since(t0), c0, readCPU()).Seconds())
		if i == setupReps-1 {
			return d, setups, nil
		}
		if err := d.stop(); err != nil {
			return nil, nil, err
		}
	}
	return nil, nil, nil
}

// runClos is the untraced route-clos workload against trajand.
func runClos(o *runOpts, rep *report) (*outcome, error) {
	p, err := planClos(o.seed, clientCount())
	if err != nil {
		return nil, err
	}
	args, err := closSetup(o, p)
	if err != nil {
		return nil, err
	}
	d, setups, err := startTimed(o, args)
	if err != nil {
		return nil, err
	}
	defer func() {
		if d != nil {
			d.kill()
		}
	}()

	cnt := &counts{}
	logs := make([]*closLog, len(p.Clients))
	start := time.Now()
	end := start.Add(o.seconds)
	meter := startStealMeter(start, o.seconds, servingWindows)
	var wg sync.WaitGroup
	for i := range p.Clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := loadClient(d.base)
			defer cl.close()
			logs[i] = closLoop(cl, p.Clients[i], end, cnt)
		}(i)
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
	out.checkClos(p, logs)
	c := newClient(d.base)
	if fr, err := servedSet(c, "/v1"); err != nil {
		out.problem("%v", err)
	} else if !reflect.DeepEqual(fr.Flows, flowInfos(p.Preload.Flows)) {
		out.problem("route-clos: %d flows served after every transient was released, want the %d preloaded", len(fr.Flows), p.Preload.N())
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
	rep.line("route=auto outcomes: %s", routeOutcomes(logs))
	return out, nil
}

// routeOutcomes tallies the route=auto decisions and re-routes.
func routeOutcomes(logs []*closLog) string {
	n := map[string]int{}
	moved := 0
	for _, lg := range logs {
		var prev []model.NodeID
		for _, r := range lg.routes {
			n[r.decision]++
			if r.decision == "renegotiated" && !reflect.DeepEqual(r.path, prev) {
				moved++
			}
			prev = r.path
		}
	}
	return fmt.Sprintf("admitted=%d renegotiated=%d (re-routed %d) rejected=%d", n["admitted"], n["renegotiated"], moved, n["rejected"])
}

// checkClos runs the per-answer route-clos checks.
func (out *outcome) checkClos(p *closPlan, logs []*closLog) {
	topo, err := workload.ClosTopology(closSpines, closLeaves, closHosts)
	if err != nil {
		out.problem("%v", err)
		return
	}
	for i, lg := range logs {
		if err := verifyRoutes(topo, lg); err != nil {
			out.problem("client %d: %v", i, err)
		}
		if lg.unfeas > 0 {
			out.problem("client %d: %d bounds reads showed an admitted flow missing its deadline", i, lg.unfeas)
		}
		if lg.badProbes > 0 {
			out.problem("client %d: %d what-if probes answered with an error", i, lg.badProbes)
		}
	}
}

// flowInfos renders flows the way /v1/flows serves them.
func flowInfos(flows []*model.Flow) []serve.FlowInfo {
	out := make([]serve.FlowInfo, len(flows))
	for i, f := range flows {
		out[i] = serve.FlowInfo{
			Name: f.Name, Period: f.Period, Jitter: f.Jitter, Deadline: f.Deadline,
			Class: f.Class.String(), Path: f.Path, Cost: f.Cost,
		}
	}
	return out
}
