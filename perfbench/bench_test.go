package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"trajan/internal/model"
	"trajan/internal/serve"
	"trajan/internal/workload"
)

// inputs renders everything a workload's seed generates — the requests
// the daemon will receive, or the sets the analyses will run — as JSON.
func inputs(t *testing.T, name string, seed int64) []byte {
	t.Helper()
	cfgs := func(flows []*model.Flow) []model.FlowConfig {
		out := make([]model.FlowConfig, len(flows))
		for i, f := range flows {
			out[i] = model.ConfigOfFlow(f)
		}
		return out
	}
	var v any
	switch name {
	case "churn-journal":
		type round struct {
			X, X2            *model.FlowConfig
			AdmitOK, RenegOK bool
		}
		var tenants [][]any
		for i := 0; i < 2; i++ {
			ct, err := planChurnTenant(seed, fmt.Sprintf("t%d", i))
			if err != nil {
				t.Fatal(err)
			}
			var rounds []round
			for _, r := range ct.Rounds {
				rd := round{X: flowCfg(r.X), AdmitOK: r.AdmitOK, RenegOK: r.RenegOK}
				if r.X2 != nil {
					rd.X2 = flowCfg(r.X2)
				}
				rounds = append(rounds, rd)
			}
			tenants = append(tenants, []any{cfgs(ct.Standing.Flows), rounds})
		}
		v = tenants
	case "route-clos":
		p, err := planClos(seed, 2)
		if err != nil {
			t.Fatal(err)
		}
		type transient struct {
			Flow   model.FlowConfig
			Probes []model.FlowConfig
			Tight  model.Time
		}
		var pools [][]transient
		for _, pool := range p.Clients {
			var ts []transient
			for _, tr := range pool {
				ts = append(ts, transient{model.ConfigOfFlow(tr.Flow), cfgs(tr.Probes), tr.Tight})
			}
			pools = append(pools, ts)
		}
		v = []any{cfgs(p.Preload.Flows), pools}
	case "analyze-cold":
		sets, err := planCold(seed)
		if err != nil {
			t.Fatal(err)
		}
		var all []any
		for _, s := range sets {
			all = append(all, []any{s.Name, s.Probe, cfgs(s.Flows)})
		}
		v = all
	default:
		t.Fatalf("unknown workload %s", name)
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSeedDeterminesInputs(t *testing.T) {
	for name := range workloads {
		a, b, c := inputs(t, name, 7), inputs(t, name, 7), inputs(t, name, 8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated two different input sequences", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated the same input sequence", name)
		}
	}
}

func TestTailWithheldBelowTenBeyond(t *testing.T) {
	mk := func(n int) samples {
		s := make(samples, n)
		for i := range s {
			s[i] = time.Duration(i+1) * time.Millisecond
		}
		return s
	}
	for _, tc := range []struct {
		n, want int
		value   time.Duration
	}{
		{1000, 99, 990 * time.Millisecond}, // exactly 10 samples lie above p99
		{999, 98, 980 * time.Millisecond},  // 9 above p99: withheld, p98 reported
		{500, 98, 490 * time.Millisecond},
		{100, 90, 90 * time.Millisecond},
		{20, 50, 10 * time.Millisecond},
		{19, 47, 9 * time.Millisecond}, // too few for a median: the highest supported percentile
	} {
		p, v, ok := mk(tc.n).tail(99)
		if !ok || p != tc.want || v != tc.value {
			t.Errorf("n=%d: tail = p%d %v (ok=%v), want p%d %v", tc.n, p, v, ok, tc.want, tc.value)
		}
	}
	if _, _, ok := mk(10).tail(99); ok {
		t.Errorf("n=10: a tail was reported with fewer than 10 samples above it")
	}
	rep := &report{}
	if err := rep.latency("a_p50_ms", "a_p99_ms", mk(10), ms, "ms"); err == nil {
		t.Errorf("latency accepted 10 samples")
	}
}

func TestQuietWindowsPreferLaterOnEqualSteal(t *testing.T) {
	start := time.Now()
	m := &stealMeter{start: start, w: time.Second}
	var tl timeline
	for k := 0; k < servingWindows; k++ {
		d := time.Millisecond // the second half of the run
		if k < servingWindows/2 {
			d = 10 * time.Millisecond // warm-up
		}
		for i := 0; i < 100; i++ {
			tl.at = append(tl.at, start.Add(time.Duration(k)*time.Second+time.Duration(i)*time.Millisecond))
			tl.d = append(tl.d, d)
		}
	}
	shares := make([]float64, servingWindows)
	shares[7] = 0.004 // rounds to the same whole percent as no steal
	rep := &report{}
	end := start.Add(servingWindows * time.Second)
	if err := tl.windowed(rep, "decision", m, shares, end); err != nil {
		t.Fatal(err)
	}
	if got := rep.metrics[0]; got.Name != "decision_p50_ms" || got.Value != 1 {
		t.Errorf("with equal steal, %s = %v, want 1 (the later windows)", got.Name, got.Value)
	}
	shares[2], shares[3], shares[4] = 0, 0, 0
	shares[5], shares[6], shares[8] = 0.2, 0.2, 0.2
	rep = &report{}
	if err := tl.windowed(rep, "decision", m, shares, end); err != nil {
		t.Fatal(err)
	}
	// Quietest five: 9, 7 and 4, 3, 2 (0-1%); median of 1, 1, 10, 10, 10 ms.
	if got := rep.metrics[0].Value; got != 10 {
		t.Errorf("with steal in windows 5, 6 and 8, decision_p50_ms = %v, want 10", got)
	}
}

// clonePlan deep-copies the parts of a churn plan the checks read.
func clonePlan(ct *churnTenant) *churnTenant {
	c := *ct
	c.Rounds = append([]churnRound(nil), ct.Rounds...)
	for i := range c.Rounds {
		c.Rounds[i].BoundsX = append([]model.Time(nil), ct.Rounds[i].BoundsX...)
	}
	return &c
}

func TestChurnChecksFire(t *testing.T) {
	ct, err := planChurnTenant(3, "t0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := daemonConfig()
	reg, err := serve.NewRegistry(serve.RegistryConfig{Template: cfg, JournalDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	p, err := serveInProcess(reg.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = p.stop(5 * time.Second)
		_ = reg.Close(context.Background())
	}()
	c := newClient(p.base)
	defer c.close()
	if err := buildStanding(c, ct); err != nil {
		t.Fatal(err)
	}
	lg := churnLoop(c, ct, time.Now().Add(time.Second), &counts{})
	if lg.err != nil {
		t.Fatal(lg.err)
	}
	startSeq := int64(ct.Standing.N()) + 1
	if err := verifyChurn(ct, startSeq, lg); err != nil {
		t.Fatalf("honest run failed its checks: %v", err)
	}

	bound := clonePlan(ct)
	bound.Rounds[0].BoundsX[len(bound.Rounds[0].BoundsX)-1]++
	if verifyChurn(bound, startSeq, lg) == nil {
		t.Errorf("a corrupted oracle bound passed the churn check")
	}
	verdict := clonePlan(ct)
	verdict.Rounds[0].AdmitOK = !verdict.Rounds[0].AdmitOK
	if verifyChurn(verdict, startSeq, lg) == nil {
		t.Errorf("a corrupted oracle verdict passed the churn check")
	}
	if verifyChurn(ct, startSeq+1, lg) == nil {
		t.Errorf("a wrong starting sequence passed the churn check")
	}

	var fr serve.FlowsResponse
	var br serve.BoundsResponse
	if _, err := c.call("GET", "/v1/t0/flows", nil, &fr); err != nil {
		t.Fatal(err)
	}
	if _, err := c.call("GET", "/v1/t0/bounds", nil, &br); err != nil {
		t.Fatal(err)
	}
	if err := checkServedBounds("t0", &fr, &br); err != nil {
		t.Fatalf("honest served bounds failed: %v", err)
	}
	br.Verdicts[3].Bound--
	if checkServedBounds("t0", &fr, &br) == nil {
		t.Errorf("a corrupted served bound passed the cold-analysis check")
	}
}

func TestRouteChecksFire(t *testing.T) {
	plan, err := planClos(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := daemonConfig()
	topo, err := workload.LoadTopology(closSpec)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Topology, cfg.Preload = topo, plan.Preload.Flows
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := serveInProcess(srv.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = p.stop(5 * time.Second)
		_ = srv.Shutdown(context.Background())
	}()
	c := newClient(p.base)
	defer c.close()
	lg := closLoop(c, plan.Clients[0], time.Now().Add(time.Second), &counts{})
	if lg.err != nil {
		t.Fatal(lg.err)
	}
	if err := verifyRoutes(topo, lg); err != nil {
		t.Fatalf("honest run failed its checks: %v", err)
	}
	k := -1
	for i, r := range lg.routes {
		if r.decision == "admitted" {
			k = i
			break
		}
	}
	if k < 0 {
		t.Fatal("no route=auto admission in the honest run")
	}
	chosen := *lg
	chosen.routes = append([]routeRec(nil), lg.routes...)
	chosen.routes[k].chosen = (chosen.routes[k].chosen + 1) % len(chosen.routes[k].cands)
	if verifyRoutes(topo, &chosen) == nil {
		t.Errorf("a committed path other than the chosen candidate passed the route check")
	}
	cand := *lg
	cand.routes = append([]routeRec(nil), lg.routes...)
	cand.routes[k].cands = append([][]model.NodeID(nil), lg.routes[k].cands...)
	cand.routes[k].cands[0], cand.routes[k].cands[1] = cand.routes[k].cands[1], cand.routes[k].cands[0]
	if verifyRoutes(topo, &cand) == nil {
		t.Errorf("candidates out of KShortestPaths order passed the route check")
	}
	out := &outcome{}
	lg.unfeas = 1
	out.checkClos(plan, []*closLog{lg})
	if len(out.problems) == 0 {
		t.Errorf("a bounds read with a missed deadline passed the route-clos checks")
	}
}

func TestColdChecksFire(t *testing.T) {
	sets, err := planCold(2)
	if err != nil {
		t.Fatal(err)
	}
	s := sets[1]
	fs, err := model.NewFlowSet(benchNet, s.Flows)
	if err != nil {
		t.Fatal(err)
	}
	b, err := coldBounds(fs)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkColdSet(s, fs, b, b, b[s.Probe]); err != nil {
		t.Fatalf("honest analysis failed its checks: %v", err)
	}
	bad := append([]model.Time(nil), b...)
	bad[0]++
	if checkColdSet(s, fs, bad, b, b[s.Probe]) == nil {
		t.Errorf("a corrupted bound passed the parallel-vs-serial check")
	}
	if checkColdSet(s, fs, b, b, b[s.Probe]+1) == nil {
		t.Errorf("a corrupted probe bound passed the AnalyzeFlow check")
	}
	if err := checkPaperExample(paperBounds); err != nil {
		t.Fatalf("paper example: %v", err)
	}
	if checkPaperExample([]model.Time{31, 37, 47, 47, 41}) == nil {
		t.Errorf("a corrupted golden bound passed the paper-example check")
	}
}

// benchmarkFile is the shape of BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// metricMap is the shape of metric_map.json.
type metricMap struct {
	Workloads map[string]json.RawMessage
	EndToEnd  map[string]map[string]string `json:"end_to_end"`
	PerLayer  map[string]struct {
		How   string
		Moves []struct{ Metric, Workload string }
	} `json:"per_layer"`
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestMetricMapMatchesBenchmark keeps BENCHMARK.json, metric_map.json
// and the metrics the program reports in step.
func TestMetricMapMatchesBenchmark(t *testing.T) {
	var bf benchmarkFile
	readJSON(t, filepath.Join("..", "BENCHMARK.json"), &bf)
	var mm metricMap
	readJSON(t, "metric_map.json", &mm)

	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s has no implementation", w.Name)
		}
		if _, ok := mm.Workloads[w.Name]; !ok {
			t.Errorf("metric_map.json has no rationale for workload %s", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(names), len(workloads))
	}
	var e2e []string
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.Name)
		for _, w := range names {
			if mm.EndToEnd[m.Name][w] == "" {
				t.Errorf("metric_map.json does not say what %s means on %s", m.Name, w)
			}
		}
	}
	if !reflect.DeepEqual(e2e, endToEndNames) {
		t.Errorf("BENCHMARK.json end_to_end %v, program reports %v", e2e, endToEndNames)
	}
	if len(bf.PerLayer) != len(perLayerNames) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program reports %d", len(bf.PerLayer), len(perLayerNames))
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayerNames[i].name || m.Unit != perLayerNames[i].unit {
			t.Errorf("per_layer[%d] is %s (%s), program reports %s (%s)", i, m.Name, m.Unit, perLayerNames[i].name, perLayerNames[i].unit)
		}
		entry, ok := mm.PerLayer[m.Name]
		if !ok || entry.How == "" || len(entry.Moves) == 0 {
			t.Errorf("metric_map.json does not map %s to an end-to-end metric", m.Name)
			continue
		}
		for _, mv := range entry.Moves {
			if !contains(e2e, mv.Metric) || !contains(names, mv.Workload) {
				t.Errorf("%s moves %s on %s: no such end-to-end metric or workload", m.Name, mv.Metric, mv.Workload)
			}
		}
	}
	if len(mm.PerLayer) != len(bf.PerLayer) {
		t.Errorf("metric_map.json maps %d per-layer metrics, BENCHMARK.json lists %d", len(mm.PerLayer), len(bf.PerLayer))
	}
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
