// Command perfbench is the repository's end-to-end benchmark. It drives
// the trajand binary built from the same tree over loopback with the
// flags a deployment uses, and runs cold analyses in-process through
// trajectory.Analyze with the trajan CLI's default options.
//
//	bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads (see BENCHMARK.json and perfbench/metric_map.json):
//
//	churn-journal  trajand -journal-dir, one tenant per client, exact oracle
//	route-clos     trajand -topology clos:4x4x8 -preload, route=auto churn
//	analyze-cold   in-process cold trajectory.Analyze sweeps
//
// With -trace 0 the run measures the end-to-end metrics with tracing off
// and checks every output; with -trace 1 it measures the per-layer
// metrics by timing calls into each module's public functions from this
// package. The last line of standard output is the JSON result; the
// process exits nonzero when any output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// runOpts are one invocation's settings.
type runOpts struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	trajand  string
	workdir  string
	env      hostEnv
}

// outcome is a run's correctness verdict and failure accounting.
type outcome struct {
	attempted int
	failed    int
	problems  []string
}

func (o *outcome) problem(format string, a ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, a...))
}

// endToEndNames are the metrics an untraced run reports, in order; a
// traced run reports perLayerNames. BENCHMARK.json lists the same.
var endToEndNames = []string{
	"decision_p50_ms", "decision_p99_ms", "decisions_per_s",
	"probe_p50_ms", "probe_p99_ms", "peak_rss_mb", "setup_s",
}

// clientCount is the number of closed-loop clients: one per CPU.
func clientCount() int { return runtime.NumCPU() }

var workloads = map[string]struct {
	untraced func(*runOpts, *report) (*outcome, error)
	traced   func(*runOpts, *report) (*outcome, error)
}{
	"churn-journal": {runChurn, traceChurn},
	"route-clos":    {runClos, traceClos},
	"analyze-cold":  {runCold, traceCold},
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	o := &runOpts{}
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "churn-journal | route-clos | analyze-cold")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&seconds, "seconds", 10, "measured duration")
	flag.IntVar(&trace, "trace", 0, "1 = per-layer traced run")
	flag.StringVar(&o.trajand, "trajand", "", "trajand binary")
	flag.StringVar(&o.workdir, "workdir", "", "working directory for journals and preload files")
	flag.Parse()
	w, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown -workload %q", o.workload)
	}
	if seconds < 1 || o.trajand == "" || o.workdir == "" {
		return fmt.Errorf("need -seconds >= 1, -trajand and -workdir")
	}
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	o.workdir = fmt.Sprintf("%s/%s-%d", o.workdir, o.workload, os.Getpid())
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(o.workdir)
	o.env = recordEnv(".", o.workdir)

	fn := w.untraced
	if o.trace {
		fn = w.traced
	}
	rep := &report{}
	out, err := fn(o, rep)
	if err != nil {
		return err
	}
	if err := checkPaperExample(paperBounds); err != nil {
		out.problem("%v", err)
	}
	return emit(o, rep, out)
}

// emit prints the human-readable table, the environment record and,
// last, the JSON result line.
func emit(o *runOpts, rep *report, out *outcome) error {
	mode := "untraced"
	if o.trace {
		mode = "traced"
	}
	fmt.Printf("perfbench %s seed=%d seconds=%d %s\n", o.workload, o.seed, int(o.seconds/time.Second), mode)
	fmt.Printf("env %s\n", o.env)
	share := 0.0
	if out.attempted > 0 {
		share = float64(out.failed) / float64(out.attempted)
	}
	fmt.Printf("  %-40s %14.6f %-6s attempted=%d failed=%d\n", "failed_share", share, "ratio", out.attempted, out.failed)
	result := struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}{len(out.problems) == 0, out.attempted, out.failed, map[string]json.RawMessage{}}
	if result.Attempted < 1 {
		result.Attempted = 1
		result.Correct = false
		out.problem("no operation was attempted")
	}
	var want []string
	if o.trace {
		for _, m := range perLayerNames {
			want = append(want, m.name)
		}
	} else {
		want = endToEndNames
	}
	var got []string
	for _, m := range rep.metrics {
		got = append(got, m.Name)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		return fmt.Errorf("internal: reported metrics %v, want %v", got, want)
	}
	for _, m := range rep.metrics {
		fmt.Printf("  %-40s %14.6f %-6s %s\n", m.Name, m.Value, m.Unit, m.Note)
		b, err := json.Marshal(struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}{m.Value, m.Unit})
		if err != nil {
			return err
		}
		result.Metrics[m.Name] = b
	}
	for _, l := range rep.lines {
		fmt.Printf("  %s\n", l)
	}
	for _, p := range out.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	b, err := json.Marshal(result)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !result.Correct {
		return fmt.Errorf("%d output check(s) failed: %s", len(out.problems), strings.Join(out.problems, "; "))
	}
	return nil
}
