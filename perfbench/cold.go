package main

import (
	"fmt"
	"os"
	"reflect"
	"time"

	"trajan/internal/model"
	"trajan/internal/trajectory"
)

// cliOptions are the analysis options the trajan CLI uses by default:
// prefix-fixpoint Smax, GOMAXPROCS workers, no tracer.
func cliOptions() trajectory.Options {
	return trajectory.Options{Smax: trajectory.SmaxPrefixFixpoint}
}

// buildColdSets validates every suite set with model.NewFlowSet — the
// program's own set-up before an analysis.
func buildColdSets(plan []coldSet) ([]*model.FlowSet, error) {
	out := make([]*model.FlowSet, len(plan))
	for i, s := range plan {
		fs, err := model.NewFlowSet(benchNet, s.Flows)
		if err != nil {
			return nil, fmt.Errorf("perfbench: cold set %s: %w", s.Name, err)
		}
		out[i] = fs
	}
	return out, nil
}

// coldSetup builds the suite setupReps times and returns the sets with
// the build times in seconds.
func coldSetup(plan []coldSet) ([]*model.FlowSet, []float64, error) {
	var sets []*model.FlowSet
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0, c0 := time.Now(), readCPU()
		var err error
		if sets, err = buildColdSets(plan); err != nil {
			return nil, nil, err
		}
		setups = append(setups, netOfSteal(time.Since(t0), c0, readCPU()).Seconds())
	}
	return sets, setups, nil
}

// runCold is the untraced analyze-cold workload. One decision is one
// sweep of cold trajectory.Analyze calls over the whole suite (every
// size, connected and in pods) — the unit of offline work — and one
// probe is the matching sweep of single-flow trajectory.AnalyzeFlow
// queries, as `trajan -explain` asks them. Sweeps alternate until the
// measured time is up.
func runCold(o *runOpts, rep *report) (*outcome, error) {
	plan, err := planCold(o.seed)
	if err != nil {
		return nil, err
	}
	sets, setups, err := coldSetup(plan)
	if err != nil {
		return nil, err
	}
	opt := cliOptions()
	out := &outcome{}
	cnt := &counts{}
	first := make([][]model.Time, len(sets))
	last := make([][]model.Time, len(sets))
	probeVal := make([]model.Time, len(sets))
	perSet := make([]samples, len(sets))
	var dec, probe, rawDec samples
	var analysing time.Duration
	var steal []float64

	start, startCPU := time.Now(), readCPU()
	end := start.Add(o.seconds)
	for time.Now().Before(end) {
		var sweep time.Duration
		c0 := readCPU()
		for i, fs := range sets {
			t0 := time.Now()
			res, err := trajectory.Analyze(fs, opt)
			el := time.Since(t0)
			cnt.record(err)
			if err != nil {
				continue
			}
			sweep += el
			perSet[i] = append(perSet[i], el)
			if first[i] == nil {
				first[i] = res.Bounds
			}
			last[i] = res.Bounds
		}
		c1 := readCPU()
		analysing += sweep
		rawDec = append(rawDec, sweep)
		dec = append(dec, netOfSteal(sweep, c0, c1))
		steal = append(steal, stealShare(c0, c1))

		sweep = 0
		for i, fs := range sets {
			t0 := time.Now()
			r, err := trajectory.AnalyzeFlow(fs, opt, plan[i].Probe)
			el := time.Since(t0)
			cnt.record(err)
			if err != nil {
				continue
			}
			sweep += el
			probeVal[i] = r
		}
		probe = append(probe, netOfSteal(sweep, c1, readCPU()))
	}
	elapsed := time.Since(start)
	out.attempted, out.failed = cnt.attempted, cnt.failed
	if cnt.firstErr != "" {
		out.problem("first failure: %s", cnt.firstErr)
	}

	// Output checks, outside the timed window.
	for i, fs := range sets {
		if err := checkColdSet(plan[i], fs, first[i], last[i], probeVal[i]); err != nil {
			out.problem("%v", err)
		}
	}

	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	if err := rep.latency("decision_p50_ms", "decision_p99_ms", dec, ms, "ms"); err != nil {
		return nil, err
	}
	net := 1 - stealShare(startCPU, readCPU())
	rep.add("decisions_per_s", float64(len(dec))/elapsed.Seconds()/net, "1/s", fmt.Sprintf("suite sweeps net of steal, n=%d in %.2fs", len(dec), elapsed.Seconds()))
	if err := rep.latency("probe_p50_ms", "probe_p99_ms", probe, ms, "ms"); err != nil {
		return nil, err
	}
	rep.add("peak_rss_mb", rss, "MiB", "benchmark process VmHWM")
	rep.add("setup_s", medianFloat(setups), "s", fmt.Sprintf("NewFlowSet of the suite net of steal, median of %d", len(setups)))
	rep.line("raw wall clock: sweep p50 %.3f ms; steal share of busy CPU per sweep: median %.3f, max %.3f", ms(rawDec.median()), medianFloat(steal), maxFloat(steal))
	// Per-analysis figures under the names the cold path is known by;
	// printed only, the result line carries the sweep figures above.
	n := 0
	for _, s := range perSet {
		n += len(s)
	}
	rep.line("%-40s %14.6f %-6s n=%d", "analyses_per_s", float64(n)/analysing.Seconds(), "1/s", n)
	for i, s := range perSet {
		if p, v, ok := s.tail(99); ok {
			rep.line("%-40s %14.6f %-6s p50, n=%d; p%d %.3f ms", "analyze_ms."+plan[i].Name, ms(s.median()), "ms", len(s), p, ms(v))
		} else {
			rep.line("%-40s %14.6f %-6s p50, n=%d", "analyze_ms."+plan[i].Name, ms(s.median()), "ms", len(s))
		}
	}
	return out, nil
}

// checkColdSet checks one suite set's timed results: the bounds of the
// first and last timed analysis (default parallelism) must equal a
// serial (Parallelism 1) analysis, and the probed flow's AnalyzeFlow
// bound must equal its Analyze bound.
func checkColdSet(s coldSet, fs *model.FlowSet, first, last []model.Time, probe model.Time) error {
	serial := cliOptions()
	serial.Parallelism = 1
	res, err := trajectory.Analyze(fs, serial)
	switch {
	case err != nil:
		return fmt.Errorf("%s at Parallelism 1: %w", s.Name, err)
	case !reflect.DeepEqual(res.Bounds, first) || !reflect.DeepEqual(res.Bounds, last):
		return fmt.Errorf("%s: bounds at default parallelism differ from Parallelism 1", s.Name)
	case probe != res.Bounds[s.Probe]:
		return fmt.Errorf("%s: AnalyzeFlow(%d) = %d, Analyze gives %d", s.Name, s.Probe, probe, res.Bounds[s.Probe])
	}
	return nil
}

// paperBounds are the repository's golden Property-2 bounds of the
// paper's §5 example.
var paperBounds = []model.Time{31, 37, 47, 47, 40}

// checkPaperExample re-derives the paper's §5 example and compares it
// with want.
func checkPaperExample(want []model.Time) error {
	res, err := trajectory.Analyze(model.PaperExample(), cliOptions())
	if err != nil {
		return fmt.Errorf("paper example: %w", err)
	}
	if !reflect.DeepEqual(res.Bounds, want) {
		return fmt.Errorf("paper example bounds %v, want %v", res.Bounds, want)
	}
	return nil
}
