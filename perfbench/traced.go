package main

import (
	"context"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"trajan/internal/feasibility"
	"trajan/internal/journal"
	"trajan/internal/model"
	"trajan/internal/obs"
	"trajan/internal/serve"
	"trajan/internal/trajectory"
	"trajan/internal/workload"
)

// The traced run measures each layer from outside: it times calls into
// each module's public functions from this package and never
// instruments the program itself. It has three phases, the first two
// half the measured time each:
//
//  1. the real trajand, untraced, under the same load as the untraced
//     run, with /metrics scraped before and after and the queue-depth
//     gauge sampled throughout (exact engine counts);
//  2. the same serving core in-process, built with the options trajand
//     builds (obs.Metrics as the tracer), its Handler wrapped in a
//     timer and its journal on a timing journal.FS;
//  3. a direct replay of the same seeded operations on the trajectory,
//     feasibility, model and journal APIs.
//
// Every per-layer metric is printed on every workload; a layer a
// workload does not exercise reads 0 and is marked "not exercised".

// perLayerNames lists the per-layer metrics in print order, with units.
var perLayerNames = []struct{ name, unit string }{
	{"serve.handler_ms.p50", "ms"}, {"serve.handler_ms.p99", "ms"},
	{"serve.transport_ms.p50", "ms"}, {"serve.self_ms.p50", "ms"},
	{"serve.whatif_batch_size", "count"}, {"serve.queue_depth.max", "count"},
	{"serve.traced_decisions_per_s", "1/s"}, {"serve.tracing_overhead_ratio", "ratio"},
	{"trajectory.add_us.p50", "us"}, {"trajectory.add_us.p99", "us"},
	{"trajectory.remove_us.p50", "us"}, {"trajectory.update_us.p50", "us"},
	{"trajectory.bounds_us.p50", "us"},
	{"trajectory.whatif_us.p50", "us"}, {"trajectory.whatif_us.p99", "us"},
	{"trajectory.sweeps_per_decision", "count"}, {"trajectory.evals_per_decision", "count"},
	{"trajectory.warm_fallback_share", "ratio"},
	{"trajectory.alloc_kb_per_decision", "KiB"}, {"trajectory.allocs_per_decision", "count"},
	{"trajectory.tracer_cost_ratio", "ratio"},
	{"trajectory.new_analyzer_ms.p50", "ms"}, {"trajectory.fixpoint_ms.p50", "ms"},
	{"trajectory.sweeps_per_analysis", "count"},
	{"model.ksp_us.p50", "us"}, {"model.new_flowset_ms.p50", "ms"},
	{"feasibility.route_candidates_us.p50", "us"},
	{"feasibility.score_routes_us.p50", "us"}, {"feasibility.score_routes_us.p99", "us"},
	{"feasibility.route_feasible_share", "ratio"},
	{"journal.sync_us.p50", "us"}, {"journal.sync_us.p99", "us"},
	{"journal.append_us.p50", "us"},
	{"journal.syncs_per_decision", "count"}, {"journal.bytes_per_decision", "B"},
	{"journal.recover_ms", "ms"},
}

// layers collects per-layer figures by name before they are reported
// in perLayerNames order.
type layers struct {
	vals  map[string]float64
	notes map[string]string
}

func newLayers() *layers {
	return &layers{vals: map[string]float64{}, notes: map[string]string{}}
}

func (l *layers) set(name string, v float64, note string) {
	l.vals[name] = v
	l.notes[name] = note
}

// pct sets name.p50 and/or name.p99 from s; a tail resting on too few
// samples falls back to the highest supported percentile (or the
// maximum) and says so.
func (l *layers) pct(name string, s samples, scale func(time.Duration) float64, tails ...int) {
	if len(s) == 0 {
		return
	}
	for _, p := range tails {
		key := fmt.Sprintf("%s.p%d", name, p)
		if p == 50 {
			l.set(key, scale(s.median()), fmt.Sprintf("n=%d", len(s)))
			continue
		}
		if got, v, ok := s.tail(p); ok {
			l.set(key, scale(v), fmt.Sprintf("p%d, n=%d", got, len(s)))
		} else {
			l.set(key, scale(s.sorted()[len(s)-1]), fmt.Sprintf("max, n=%d", len(s)))
		}
	}
}

// emitTo reports every per-layer metric into rep.
func (l *layers) emitTo(rep *report) {
	for _, m := range perLayerNames {
		v, ok := l.vals[m.name]
		note := l.notes[m.name]
		if !ok {
			note = "not exercised on this workload"
		}
		rep.add(m.name, v, m.unit, note)
	}
}

// daemonOptions are the analysis options trajand builds with its
// default flags; the tracer is its obs.Metrics registry.
func daemonOptions(tr obs.Tracer) trajectory.Options {
	return trajectory.Options{Smax: trajectory.SmaxPrefixFixpoint, Tracer: tr}
}

// daemonConfig is the serve.Config trajand builds with its default
// flags: obs.Metrics as both the metrics registry and the tracer.
func daemonConfig() serve.Config {
	m := obs.NewMetrics()
	m.GaugeFunc("trajan_scratch_pool_news", trajectory.ScratchPoolNews)
	return serve.Config{
		Network:        benchNet,
		Options:        daemonOptions(obs.Tee(m)),
		RequestTimeout: 5 * time.Second,
		Metrics:        m,
	}
}

// ---- phase 1: untraced daemon counts ----

// queueSampler polls /metrics and keeps the largest serve queue depth.
type queueSampler struct {
	stop chan struct{}
	done chan struct{}
	max  float64
}

func sampleQueue(base string) *queueSampler {
	q := &queueSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(q.done)
		c := newClient(base)
		defer c.close()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-q.stop:
				return
			case <-tick.C:
				if m, err := scrape(c.http, base); err == nil {
					q.max = max(q.max, sumSeries(m, "trajan_serve_queue_depth"))
				}
			}
		}
	}()
	return q
}

func (q *queueSampler) finish() float64 {
	close(q.stop)
	<-q.done
	return q.max
}

// daemonCounts turns two /metrics scrapes around a load phase of
// `decisions` mutation decisions into per-decision engine counts.
func daemonCounts(l *layers, before, after map[string]float64, decisions int) {
	d := func(name string) float64 { return sumSeries(after, name) - sumSeries(before, name) }
	n := float64(decisions)
	note := fmt.Sprintf("daemon /metrics, %d decisions", decisions)
	l.set("trajectory.sweeps_per_decision", d("trajan_smax_sweeps_total")/n, note+", what-if forks included")
	l.set("trajectory.evals_per_decision", d("trajan_smax_sweep_evals_sum")/n, note+", what-if forks included")
	hits, falls := d("trajan_warm_hits_total"), d("trajan_warm_fallbacks_total")
	if hits+falls > 0 {
		l.set("trajectory.warm_fallback_share", falls/(hits+falls), fmt.Sprintf("%.0f of %.0f warm runs", falls, hits+falls))
	}
	if b := d("trajan_whatif_batches_total"); b > 0 {
		l.set("serve.whatif_batch_size", d("trajan_whatif_candidates_total")/b, fmt.Sprintf("%.0f batches", b))
	}
}

// runClients runs fn(i) for every client concurrently and returns the
// wall time until all have returned.
func runClients(n int, fn func(i int)) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
	return time.Since(start)
}

// ---- phase 2: in-process serving core ----

// handlerTimer wraps a serving Handler and records how long it took to
// answer each tagged request.
type handlerTimer struct {
	next http.Handler
	mu   sync.Mutex
	took map[string]time.Duration
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	el := time.Since(t0)
	if id := r.Header.Get("X-Perfbench-Op"); id != "" {
		h.mu.Lock()
		h.took[id] = el
		h.mu.Unlock()
	}
}

// inProcess is a serving core on a loopback listener.
type inProcess struct {
	base  string
	timer *handlerTimer
	stop  func(time.Duration) error
}

func serveInProcess(h http.Handler) (*inProcess, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t := &handlerTimer{next: h, took: map[string]time.Duration{}}
	stop := serve.StartHTTP(ln, t, nil)
	return &inProcess{base: "http://" + ln.Addr().String(), timer: t, stop: stop}, nil
}

// decisionKinds are the mutation operations, by request path suffix.
var decisionKinds = []string{"admit", "renegotiate", "release"}

// decisionKind returns the mutation a request path makes, or "" for a
// read.
func decisionKind(path string) string {
	p, _, _ := strings.Cut(path, "?")
	for _, k := range decisionKinds {
		if strings.HasSuffix(p, "/"+k) {
			return k
		}
	}
	return ""
}

// handlerFigures pairs every tagged client request with the handler's
// own timing: handler time of decisions, and transport time (client
// round trip minus handler time) of every request. It returns the
// handler times of decisions by kind.
func handlerFigures(l *layers, p *inProcess, clients []*client) map[string]samples {
	var handler, transport samples
	byKind := map[string]samples{}
	p.timer.mu.Lock()
	defer p.timer.mu.Unlock()
	for _, c := range clients {
		for _, t := range c.timings {
			h, ok := p.timer.took[t.id]
			if !ok {
				continue
			}
			transport = append(transport, t.rtt-h)
			if k := decisionKind(t.path); k != "" {
				handler = append(handler, h)
				byKind[k] = append(byKind[k], h)
			}
		}
	}
	l.pct("serve.handler_ms", handler, ms, 50, 99)
	l.pct("serve.transport_ms", transport, ms, 50)
	return byKind
}

// timingFS is the real journal filesystem with every fsync timed and
// every written byte counted.
type timingFS struct {
	journal.OSFS
	mu       sync.Mutex
	syncs    samples
	dirSyncs int
	bytes    atomic.Int64
}

type timingFile struct {
	journal.File
	fs *timingFS
}

func (t *timingFS) OpenFile(name string, flag int, perm fs.FileMode) (journal.File, error) {
	f, err := t.OSFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: f, fs: t}, nil
}

func (t *timingFS) SyncDir(name string) error {
	err := t.OSFS.SyncDir(name)
	t.mu.Lock()
	t.dirSyncs++
	t.mu.Unlock()
	return err
}

func (f *timingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.bytes.Add(int64(n))
	return n, err
}

func (f *timingFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	el := time.Since(t0)
	f.fs.mu.Lock()
	f.fs.syncs = append(f.fs.syncs, el)
	f.fs.mu.Unlock()
	return err
}

// reset forgets everything recorded so far (the build-up phase).
func (t *timingFS) reset() {
	t.mu.Lock()
	t.syncs, t.dirSyncs = nil, 0
	t.mu.Unlock()
	t.bytes.Store(0)
}

// ---- phase 3: direct replay ----

// replay times calls into the analysis layers. A decision's time is
// the sum of the layer calls it makes, so the oracle checks between
// them stay out of it. call, decided and commit accept a nil replay,
// which times nothing.
type replay struct {
	add, remove, update, bounds, whatif samples
	ksp, cands, score, appends          samples
	decisions                           map[string]samples // per decision kind
	cur                                 time.Duration      // layer time of the decision in progress
	// jl, when set, receives a record for every committed decision, as
	// the serve loop's journal does.
	jl               *journal.Journal
	seq              int64
	feasible, scored int
}

// call runs one layer call of the decision in progress, timed into
// *pick(r) unless pick is nil.
func (r *replay) call(pick func(*replay) *samples, fn func() error) error {
	if r == nil {
		return fn()
	}
	t0 := time.Now()
	err := fn()
	el := time.Since(t0)
	if pick != nil {
		s := pick(r)
		*s = append(*s, el)
	}
	r.cur += el
	return err
}

// timed times fn into s alone, outside any decision.
func timed(s *samples, fn func() error) error {
	t0 := time.Now()
	err := fn()
	*s = append(*s, time.Since(t0))
	return err
}

// decided closes the decision in progress as one of kind.
func (r *replay) decided(kind string) {
	if r == nil {
		return
	}
	if r.decisions == nil {
		r.decisions = map[string]samples{}
	}
	r.decisions[kind] = append(r.decisions[kind], r.cur)
	r.cur = 0
}

// commit appends the record of a committed decision to r.jl, as part
// of the decision in progress.
func (r *replay) commit(op string, f *model.Flow) error {
	if r == nil || r.jl == nil {
		return nil
	}
	r.seq++
	rec := journal.Record{Seq: r.seq, Op: op, Name: f.Name}
	if op != "release" {
		rec.Flow = flowCfg(f)
	}
	return r.call(func(r *replay) *samples { return &r.appends }, func() error { return r.jl.Append(rec) })
}

// total is the summed time of every decision replayed.
func (r *replay) total() time.Duration {
	var sum time.Duration
	for _, s := range r.decisions {
		for _, d := range s {
			sum += d
		}
	}
	return sum
}

func (r *replay) report(l *layers) {
	l.pct("trajectory.add_us", r.add, us, 50, 99)
	l.pct("trajectory.remove_us", r.remove, us, 50)
	l.pct("trajectory.update_us", r.update, us, 50)
	l.pct("trajectory.bounds_us", r.bounds, us, 50)
	l.pct("trajectory.whatif_us", r.whatif, us, 50, 99)
	l.pct("model.ksp_us", r.ksp, us, 50)
	l.pct("feasibility.route_candidates_us", r.cands, us, 50)
	l.pct("feasibility.score_routes_us", r.score, us, 50, 99)
	l.pct("journal.append_us", r.appends, us, 50)
	if r.scored > 0 {
		l.set("feasibility.route_feasible_share", float64(r.feasible)/float64(r.scored), fmt.Sprintf("%d of %d candidates", r.feasible, r.scored))
	}
}

// allocsPer runs fn (which makes `decisions` decisions) between two
// runtime.MemStats reads and reports the allocation per decision. An
// analyzer fn replays on is built and warmed before, so that only the
// decisions are counted.
func allocsPer(l *layers, fn func() (int, error)) error {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	n, err := fn()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	note := fmt.Sprintf("MemStats over %d decisions", n)
	l.set("trajectory.alloc_kb_per_decision", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/float64(n), note)
	l.set("trajectory.allocs_per_decision", float64(m1.Mallocs-m0.Mallocs)/float64(n), note)
	return nil
}

// tracerRatio runs fn three times with the daemon's metrics tracer and
// three times with no tracer, alternating which goes first, and reports
// the ratio of the median times fn measured.
func tracerRatio(l *layers, fn func(tr obs.Tracer) (time.Duration, error)) error {
	var with, without []float64
	for i := 0; i < 3; i++ {
		for _, traced := range []bool{i%2 == 0, i%2 != 0} {
			var tr obs.Tracer
			if traced {
				tr = obs.NewMetrics()
			}
			d, err := fn(tr)
			if err != nil {
				return err
			}
			if el := d.Seconds(); traced {
				with = append(with, el)
			} else {
				without = append(without, el)
			}
		}
	}
	l.set("trajectory.tracer_cost_ratio", medianFloat(with)/medianFloat(without),
		fmt.Sprintf("median of %d replays each, %.1f ms with obs.Metrics vs %.1f ms with Tracer nil", len(with), medianFloat(with)*1e3, medianFloat(without)*1e3))
	return nil
}

// warmAnalyzer builds an analyzer of fs and runs its cold fixed point.
func warmAnalyzer(fs *model.FlowSet, opt trajectory.Options) (*trajectory.Analyzer, error) {
	a, err := trajectory.NewAnalyzer(fs, opt)
	if err != nil {
		return nil, err
	}
	_, err = a.Bounds()
	return a, err
}

// coldStart times NewAnalyzer and the first Bounds (the cold fixed
// point) on fs, and the Smax sweeps of a cold analysis.
func coldStart(fs *model.FlowSet, opt trajectory.Options) (newA, fix time.Duration, sweeps int, err error) {
	t0 := time.Now()
	a, err := trajectory.NewAnalyzer(fs, opt)
	if err != nil {
		return 0, 0, 0, err
	}
	newA = time.Since(t0)
	t0 = time.Now()
	if _, err := a.Bounds(); err != nil {
		return 0, 0, 0, err
	}
	fix = time.Since(t0)
	res, err := a.Analyze()
	if err != nil {
		return 0, 0, 0, err
	}
	return newA, fix, res.SmaxSweeps, nil
}

// coldStarts reports coldStart over several repetitions of every set.
func coldStarts(l *layers, sets []*model.FlowSet, opt trajectory.Options, reps int, what string) error {
	var newA, fix samples
	sweeps := 0
	for r := 0; r < reps; r++ {
		var a, f time.Duration
		for _, fs := range sets {
			na, fx, sw, err := coldStart(fs, opt)
			if err != nil {
				return err
			}
			a, f = a+na, f+fx
			if r == 0 {
				sweeps += sw
			}
		}
		newA, fix = append(newA, a), append(fix, f)
	}
	l.pct("trajectory.new_analyzer_ms", newA, ms, 50)
	l.pct("trajectory.fixpoint_ms", fix, ms, 50)
	l.notes["trajectory.new_analyzer_ms.p50"] += ", " + what
	l.notes["trajectory.fixpoint_ms.p50"] += ", " + what
	l.set("trajectory.sweeps_per_analysis", float64(sweeps)/float64(len(sets)), what)
	return nil
}

// newFlowSets times model.NewFlowSet over every set.
func newFlowSets(l *layers, sets [][]*model.Flow, reps int, what string) error {
	var s samples
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		for _, flows := range sets {
			if _, err := model.NewFlowSet(benchNet, flows); err != nil {
				return err
			}
		}
		s = append(s, time.Since(t0))
	}
	l.pct("model.new_flowset_ms", s, ms, 50)
	l.notes["model.new_flowset_ms.p50"] += ", " + what
	return nil
}

// ---- churn-journal ----

// replayChurnTenant replays rounds of t on a, exactly as the serve
// loop applies them (a refused admit or renegotiation is undone without
// a re-analysis), checking every bound against the oracle. When r is
// non-nil every call is timed and each round's what-if probe runs too.
func replayChurnTenant(a *trajectory.Analyzer, t *churnTenant, passes int, r *replay) (decisions int, err error) {
	var b []model.Time
	analyse := func() error {
		return r.call(func(r *replay) *samples { return &r.bounds }, func() error {
			var err error
			b, err = a.Bounds()
			return err
		})
	}
	check := func(what string, round int, want []model.Time) error {
		if !slices.Equal(b, want) {
			return fmt.Errorf("perfbench: replay %s of %s round %d: bounds differ from the cold oracle", what, t.Name, round)
		}
		return nil
	}
	decide := func(kind string) {
		decisions++
		r.decided(kind)
	}
	for p := 0; p < passes; p++ {
		for i := range t.Rounds {
			rd := &t.Rounds[i]
			if r != nil {
				var out []trajectory.WhatIfOutcome
				if err := timed(&r.whatif, func() error {
					out = a.WhatIf([]trajectory.Candidate{{Add: rd.X}})
					return out[0].Err
				}); err != nil {
					return 0, err
				}
				b = out[0].Result.Bounds
				if err := check("whatif", i, rd.BoundsX); err != nil {
					return 0, err
				}
			}
			var idx int
			if err := r.call(func(r *replay) *samples { return &r.add }, func() error {
				var err error
				idx, err = a.AddFlow(rd.X)
				return err
			}); err != nil {
				return 0, err
			}
			if err := analyse(); err != nil {
				return 0, err
			}
			if err := check("admit", i, rd.BoundsX); err != nil {
				return 0, err
			}
			if ok, _ := verdictOf(a.FlowSet().Flows, b); ok != rd.AdmitOK {
				return 0, fmt.Errorf("perfbench: replay admit of %s round %d: verdict %v, oracle %v", t.Name, i, ok, rd.AdmitOK)
			}
			if rd.AdmitOK {
				err = r.commit("admit", rd.X)
			} else {
				err = r.call(nil, func() error { return a.RemoveFlow(idx) })
			}
			if err != nil {
				return 0, err
			}
			decide("admit")
			if !rd.AdmitOK {
				continue
			}

			if err := r.call(func(r *replay) *samples { return &r.update }, func() error { return a.UpdateFlow(idx, rd.X2) }); err != nil {
				return 0, err
			}
			if err := analyse(); err != nil {
				return 0, err
			}
			if err := check("renegotiate", i, rd.BoundsX2); err != nil {
				return 0, err
			}
			if rd.RenegOK {
				err = r.commit("renegotiate", rd.X2)
			} else {
				err = r.call(nil, func() error { return a.UpdateFlow(idx, rd.X) })
			}
			if err != nil {
				return 0, err
			}
			decide("renegotiate")

			if err := r.call(func(r *replay) *samples { return &r.remove }, func() error { return a.RemoveFlow(idx) }); err != nil {
				return 0, err
			}
			if err := analyse(); err != nil {
				return 0, err
			}
			if err := check("release", i, t.Bounds); err != nil {
				return 0, err
			}
			if err := r.commit("release", rd.X); err != nil {
				return 0, err
			}
			decide("release")
		}
	}
	return decisions, nil
}

func traceChurn(o *runOpts, rep *report) (*outcome, error) {
	tenants, err := planChurn(o.seed)
	if err != nil {
		return nil, err
	}
	l := newLayers()
	out := &outcome{}
	cnt := &counts{}

	// Phase 1: the real trajand, untraced.
	jdir := filepath.Join(o.workdir, "journal")
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		return nil, err
	}
	o.env.JournalFS = fsType(jdir)
	d, err := startDaemon(o.trajand, "-journal-dir", jdir)
	if err != nil {
		return nil, err
	}
	untracedDPS, err := func() (float64, error) {
		defer d.kill()
		c := newClient(d.base)
		defer c.close()
		for _, t := range tenants {
			if err := buildStanding(c, t); err != nil {
				return 0, err
			}
		}
		before, err := scrape(c.http, d.base)
		if err != nil {
			return 0, err
		}
		q := sampleQueue(d.base)
		logs := make([]*tenantLog, len(tenants))
		end := time.Now().Add(o.seconds / 2)
		elapsed := runClients(len(tenants), func(i int) {
			cl := loadClient(d.base)
			defer cl.close()
			logs[i] = churnLoop(cl, tenants[i], end, cnt)
		})
		l.set("serve.queue_depth.max", q.finish(), "sampled every 100ms from the untraced daemon")
		after, err := scrape(c.http, d.base)
		if err != nil {
			return 0, err
		}
		n := 0
		for i, lg := range logs {
			n += len(lg.decisions.d)
			if err := verifyChurn(tenants[i], int64(tenants[i].Standing.N())+1, lg); err != nil {
				out.problem("untraced: %v", err)
			}
		}
		daemonCounts(l, before, after, n)
		return float64(n) / elapsed.Seconds(), d.stop()
	}()
	if err != nil {
		return nil, err
	}

	// Phase 2: the same serving core in-process, timed at its Handler
	// and its journal filesystem.
	cfg := daemonConfig()
	tfs := &timingFS{}
	jdir2 := filepath.Join(o.workdir, "journal-traced")
	reg, err := serve.NewRegistry(serve.RegistryConfig{Template: cfg, JournalDir: jdir2, JournalFS: tfs})
	if err != nil {
		return nil, err
	}
	p, err := serveInProcess(reg.Handler())
	if err != nil {
		_ = reg.Close(context.Background())
		return nil, err
	}
	running := true
	defer func() {
		if running {
			_ = p.stop(10 * time.Second)
			_ = reg.Close(context.Background())
		}
	}()
	c := newClient(p.base)
	for _, t := range tenants {
		if err := buildStanding(c, t); err != nil {
			return nil, err
		}
	}
	c.close()
	tfs.reset()
	clients := make([]*client, len(tenants))
	logs := make([]*tenantLog, len(tenants))
	end := time.Now().Add(o.seconds / 2)
	elapsed := runClients(len(tenants), func(i int) {
		clients[i] = loadClient(p.base)
		clients[i].tag = tenants[i].Name
		defer clients[i].close()
		logs[i] = churnLoop(clients[i], tenants[i], end, cnt)
	})
	running = false
	if err := p.stop(10 * time.Second); err != nil {
		_ = reg.Close(context.Background())
		return nil, err
	}
	if err := reg.Close(context.Background()); err != nil {
		return nil, err
	}
	handler := handlerFigures(l, p, clients)
	dec := 0
	for i, lg := range logs {
		dec += len(lg.decisions.d)
		if err := verifyChurn(tenants[i], int64(tenants[i].Standing.N())+1, lg); err != nil {
			out.problem("traced: %v", err)
		}
	}
	tracedDPS := float64(dec) / elapsed.Seconds()
	l.set("serve.traced_decisions_per_s", tracedDPS, fmt.Sprintf("n=%d", dec))
	l.set("serve.tracing_overhead_ratio", untracedDPS/tracedDPS, fmt.Sprintf("untraced %.1f/s over traced %.1f/s", untracedDPS, tracedDPS))
	l.pct("journal.sync_us", tfs.syncs, us, 50, 99)
	l.set("journal.syncs_per_decision", float64(len(tfs.syncs)+tfs.dirSyncs)/float64(dec), fmt.Sprintf("%d file + %d directory fsyncs", len(tfs.syncs), tfs.dirSyncs))
	l.set("journal.bytes_per_decision", float64(tfs.bytes.Load())/float64(dec), "checkpoints included")

	// Recovery: journal.Open + Replay of every tenant, as a restart does.
	var recov []float64
	for r := 0; r < 3; r++ {
		for _, t := range tenants {
			t0 := time.Now()
			j, rec, err := journal.Open(filepath.Join(jdir2, t.Name), journal.Options{})
			if err != nil {
				return nil, err
			}
			_, flows, err := rec.Replay()
			el := time.Since(t0)
			if cerr := j.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return nil, err
			}
			if len(flows) != t.Standing.N() {
				out.problem("%s: journal replays %d flows, want %d", t.Name, len(flows), t.Standing.N())
			}
			recov = append(recov, el.Seconds()*1e3)
		}
	}
	l.set("journal.recover_ms", medianFloat(recov), fmt.Sprintf("median of %d Open+Replay", len(recov)))

	// Phase 3: direct replay of the same seeded rounds, every committed
	// decision appended and fsynced into a tenant journal of its own on
	// the same filesystem.
	rp := &replay{}
	opt := daemonOptions(obs.NewMetrics())
	var standing []*model.FlowSet
	var flows [][]*model.Flow
	var warm []*trajectory.Analyzer
	for _, t := range tenants {
		standing = append(standing, t.Standing)
		flows = append(flows, t.Standing.Flows)
		a, err := warmAnalyzer(t.Standing, opt)
		if err != nil {
			return nil, err
		}
		warm = append(warm, a)
		jl, _, err := journal.Open(filepath.Join(o.workdir, "journal-replay", t.Name), journal.Options{})
		if err != nil {
			return nil, err
		}
		rp.jl, rp.seq = jl, 0
		_, err = replayChurnTenant(a, t, 2, rp)
		if cerr := jl.Close(); err == nil && cerr != nil {
			return nil, cerr
		}
		if err != nil {
			out.problem("%v", err)
		}
	}
	rp.report(l)
	// The replayed analyzers are back at their standing sets.
	if err := allocsPer(l, func() (int, error) {
		total := 0
		for i, t := range tenants {
			n, err := replayChurnTenant(warm[i], t, 1, nil)
			if err != nil {
				return 0, err
			}
			total += n
		}
		return total, nil
	}); err != nil {
		return nil, err
	}
	if err := tracerRatio(l, func(tr obs.Tracer) (time.Duration, error) {
		r := &replay{}
		for _, t := range tenants {
			a, err := warmAnalyzer(t.Standing, daemonOptions(tr))
			if err != nil {
				return 0, err
			}
			if _, err := replayChurnTenant(a, t, 1, r); err != nil {
				return 0, err
			}
		}
		return r.total(), nil
	}); err != nil {
		return nil, err
	}
	if err := coldStarts(l, standing, opt, 5, "standing sets of every tenant"); err != nil {
		return nil, err
	}
	if err := newFlowSets(l, flows, 5, "standing sets of every tenant"); err != nil {
		return nil, err
	}
	selfTime(l, handler, rp.decisions)

	out.attempted, out.failed = cnt.attempted, cnt.failed
	if cnt.firstErr != "" {
		out.problem("first failure: %s", cnt.firstErr)
	}
	l.emitTo(rep)
	return out, nil
}

// selfTime reports the serve layer's own share of a decision: for each
// decision kind, handler p50 minus the p50 of the replayed layer calls
// of the same kind (analysis and, on a journaled workload, the append),
// averaged over the kinds weighted by how often the handler served
// each.
func selfTime(l *layers, handler, replayed map[string]samples) {
	var sum float64
	n := 0
	var parts []string
	for _, k := range decisionKinds {
		h, r := handler[k], replayed[k]
		if len(h) == 0 || len(r) == 0 {
			continue
		}
		d := ms(h.median()) - ms(r.median())
		sum += d * float64(len(h))
		n += len(h)
		parts = append(parts, fmt.Sprintf("%s %.3f (n=%d/%d)", k, d, len(h), len(r)))
	}
	if n == 0 {
		return
	}
	// A difference of medians: within noise of 0 when the serve layer
	// adds less than the run-to-run jitter of the layers below it.
	l.set("serve.self_ms.p50", sum/float64(n), "handler p50 (queue wait included) - replayed layer calls p50, per kind: "+strings.Join(parts, ", "))
}

// ---- route-clos ----

// replayClos replays the transient pools sequentially on a, through the
// same public calls trajand's route=auto path makes, checking that every
// committed route leaves the set feasible. When r is non-nil every call
// is timed, and the KShortestPaths search and the what-if batch inside
// each admission are also timed on their own, outside the decision.
func replayClos(a *trajectory.Analyzer, topo *model.Topology, p *closPlan, r *replay) (decisions int, err error) {
	ctx := context.Background()
	var b []model.Time
	bounds := func() error {
		return r.call(func(r *replay) *samples { return &r.bounds }, func() error {
			var err error
			b, err = a.Bounds()
			return err
		})
	}
	score := func(f *model.Flow, update int) ([]*model.Flow, int, error) {
		var cfs []*model.Flow
		if err := r.call(func(r *replay) *samples { return &r.cands }, func() error {
			var err error
			cfs, err = feasibility.RouteCandidates(topo, f, closRouteK)
			return err
		}); err != nil {
			return nil, -1, err
		}
		var cands []feasibility.RouteCandidate
		_ = r.call(func(r *replay) *samples { return &r.score }, func() error {
			cands = feasibility.ScoreRoutesWhatIf(ctx, a, cfs, update)
			return nil
		})
		if r != nil {
			for _, c := range cands {
				r.scored++
				if c.Outcome == "feasible" {
					r.feasible++
				}
			}
		}
		return cfs, feasibility.ChooseRoute(cands), nil
	}
	decide := func(kind string) {
		decisions++
		r.decided(kind)
	}
	for _, pool := range p.Clients {
		for _, tr := range pool {
			f := tr.Flow
			cfs, win, err := score(f, -1)
			if err != nil {
				return 0, err
			}
			if r != nil {
				_ = timed(&r.ksp, func() error {
					_, err := topo.KShortestPaths(f.Path.First(), f.Path.Last(), closRouteK)
					return err
				})
				// The what-if batch alone, as trajectory sees it.
				tc := make([]trajectory.Candidate, len(cfs))
				for i, cf := range cfs {
					tc[i] = trajectory.Candidate{Add: cf}
				}
				_ = timed(&r.whatif, func() error { a.WhatIf(tc); return nil })
			}
			if win < 0 {
				decide("admit")
				continue
			}
			var idx int
			if err := r.call(func(r *replay) *samples { return &r.add }, func() error {
				var err error
				idx, err = a.AddFlow(cfs[win])
				return err
			}); err != nil {
				return 0, err
			}
			if err := bounds(); err != nil {
				return 0, err
			}
			if ok, _ := verdictOf(a.FlowSet().Flows, b); !ok {
				return 0, fmt.Errorf("perfbench: replay of %s: chosen route is not feasible", f.Name)
			}
			decide("admit")

			tight := f.Clone()
			tight.Deadline = tr.Tight
			cfs, win, err = score(tight, idx)
			if err != nil {
				return 0, err
			}
			if win >= 0 {
				if err := r.call(func(r *replay) *samples { return &r.update }, func() error { return a.UpdateFlow(idx, cfs[win]) }); err != nil {
					return 0, err
				}
				if err := bounds(); err != nil {
					return 0, err
				}
			}
			decide("renegotiate")

			if err := r.call(func(r *replay) *samples { return &r.remove }, func() error { return a.RemoveFlow(idx) }); err != nil {
				return 0, err
			}
			if err := bounds(); err != nil {
				return 0, err
			}
			decide("release")
		}
	}
	return decisions, nil
}

func traceClos(o *runOpts, rep *report) (*outcome, error) {
	p, err := planClos(o.seed, clientCount())
	if err != nil {
		return nil, err
	}
	args, err := closSetup(o, p)
	if err != nil {
		return nil, err
	}
	l := newLayers()
	out := &outcome{}
	cnt := &counts{}

	// Phase 1: the real trajand, untraced.
	d, err := startDaemon(o.trajand, args...)
	if err != nil {
		return nil, err
	}
	untracedDPS, err := func() (float64, error) {
		defer d.kill()
		c := newClient(d.base)
		defer c.close()
		before, err := scrape(c.http, d.base)
		if err != nil {
			return 0, err
		}
		q := sampleQueue(d.base)
		logs := make([]*closLog, len(p.Clients))
		end := time.Now().Add(o.seconds / 2)
		elapsed := runClients(len(p.Clients), func(i int) {
			cl := loadClient(d.base)
			defer cl.close()
			logs[i] = closLoop(cl, p.Clients[i], end, cnt)
		})
		l.set("serve.queue_depth.max", q.finish(), "sampled every 100ms from the untraced daemon")
		after, err := scrape(c.http, d.base)
		if err != nil {
			return 0, err
		}
		n := 0
		for _, lg := range logs {
			n += len(lg.decisions.d)
		}
		out.checkClos(p, logs)
		daemonCounts(l, before, after, n)
		return float64(n) / elapsed.Seconds(), d.stop()
	}()
	if err != nil {
		return nil, err
	}

	// Phase 2: the same serving core in-process.
	cfg := daemonConfig()
	topo, err := workload.LoadTopology(closSpec)
	if err != nil {
		return nil, err
	}
	cfg.Topology = topo
	cfg.Preload = p.Preload.Flows
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ip, err := serveInProcess(srv.Handler())
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, err
	}
	clients := make([]*client, len(p.Clients))
	logs := make([]*closLog, len(p.Clients))
	end := time.Now().Add(o.seconds / 2)
	elapsed := runClients(len(p.Clients), func(i int) {
		clients[i] = loadClient(ip.base)
		clients[i].tag = fmt.Sprintf("c%d", i)
		defer clients[i].close()
		logs[i] = closLoop(clients[i], p.Clients[i], end, cnt)
	})
	if err := ip.stop(10 * time.Second); err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, err
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		return nil, err
	}
	handler := handlerFigures(l, ip, clients)
	out.checkClos(p, logs)
	dec := 0
	for _, lg := range logs {
		dec += len(lg.decisions.d)
	}
	tracedDPS := float64(dec) / elapsed.Seconds()
	l.set("serve.traced_decisions_per_s", tracedDPS, fmt.Sprintf("n=%d", dec))
	l.set("serve.tracing_overhead_ratio", untracedDPS/tracedDPS, fmt.Sprintf("untraced %.1f/s over traced %.1f/s", untracedDPS, tracedDPS))

	// Phase 3: direct replay.
	rp := &replay{}
	opt := daemonOptions(obs.NewMetrics())
	a, err := warmAnalyzer(p.Preload, opt)
	if err != nil {
		return nil, err
	}
	if _, err := replayClos(a, topo, p, rp); err != nil {
		out.problem("%v", err)
	}
	rp.report(l)
	// The replayed analyzer is back at the preloaded set.
	if err := allocsPer(l, func() (int, error) { return replayClos(a, topo, p, nil) }); err != nil {
		return nil, err
	}
	if err := tracerRatio(l, func(tr obs.Tracer) (time.Duration, error) {
		a, err := warmAnalyzer(p.Preload, daemonOptions(tr))
		if err != nil {
			return 0, err
		}
		r := &replay{}
		_, err = replayClos(a, topo, p, r)
		return r.total(), err
	}); err != nil {
		return nil, err
	}
	if err := coldStarts(l, []*model.FlowSet{p.Preload}, opt, 5, "preloaded set"); err != nil {
		return nil, err
	}
	if err := newFlowSets(l, [][]*model.Flow{p.Preload.Flows}, 5, "preloaded set"); err != nil {
		return nil, err
	}
	selfTime(l, handler, rp.decisions)

	out.attempted, out.failed = cnt.attempted, cnt.failed
	if cnt.firstErr != "" {
		out.problem("first failure: %s", cnt.firstErr)
	}
	l.emitTo(rep)
	return out, nil
}

// ---- analyze-cold ----

func traceCold(o *runOpts, rep *report) (*outcome, error) {
	plan, err := planCold(o.seed)
	if err != nil {
		return nil, err
	}
	sets, err := buildColdSets(plan)
	if err != nil {
		return nil, err
	}
	l := newLayers()
	out := &outcome{}
	opt := cliOptions()
	var flows [][]*model.Flow
	for _, s := range plan {
		flows = append(flows, s.Flows)
	}
	if err := newFlowSets(l, flows, 5, "per suite sweep"); err != nil {
		return nil, err
	}
	if err := coldStarts(l, sets, opt, 5, "per suite sweep"); err != nil {
		return nil, err
	}
	cnt := &counts{}
	sweep := func(tr obs.Tracer) (time.Duration, error) {
		o := opt
		o.Tracer = tr
		t0 := time.Now()
		for _, fs := range sets {
			_, err := trajectory.Analyze(fs, o)
			cnt.record(err)
			if err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	}
	if err := allocsPer(l, func() (int, error) { _, err := sweep(nil); return 1, err }); err != nil {
		return nil, err
	}
	l.notes["trajectory.alloc_kb_per_decision"] += " (one decision = one suite sweep)"
	if err := tracerRatio(l, sweep); err != nil {
		return nil, err
	}
	// Exact engine counts of one sweep, from the metrics tracer.
	m := obs.NewMetrics()
	if _, err := sweep(m); err != nil {
		return nil, err
	}
	l.set("trajectory.sweeps_per_decision", float64(m.Counter("trajan_smax_sweeps_total").Value()), "Smax sweeps per suite sweep")
	l.set("trajectory.evals_per_decision", float64(m.Histogram("trajan_smax_sweep_evals").Sum()), "view evaluations per suite sweep")
	out.attempted, out.failed = cnt.attempted, cnt.failed
	l.emitTo(rep)
	return out, nil
}
