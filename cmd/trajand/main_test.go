package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"trajan/internal/journal"
	"trajan/internal/model"
	"trajan/internal/serve"
	"trajan/internal/trajectory"
)

// startDaemon runs the daemon on an ephemeral port and returns its
// base URL plus a stop function that triggers graceful shutdown and
// waits for run to return.
func startDaemon(t *testing.T, extraArgs ...string) (baseURL string, out *bytes.Buffer, stop func() (int, error)) {
	t.Helper()
	ready := make(chan net.Addr, 1)
	onReady = func(addr net.Addr) { ready <- addr }
	t.Cleanup(func() { onReady = nil })

	ctx, cancel := context.WithCancel(context.Background())
	out = &bytes.Buffer{}
	args := append([]string{"-addr", "127.0.0.1:0", "-drain-timeout", "5s"}, extraArgs...)
	type result struct {
		code int
		err  error
	}
	done := make(chan result, 1)
	go func() {
		code, err := run(ctx, args, out)
		done <- result{code, err}
	}()
	var addr net.Addr
	select {
	case addr = <-ready:
	case r := <-done:
		t.Fatalf("daemon exited early: code %d, err %v, output %q", r.code, r.err, out.String())
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not become ready")
	}
	stopped := false
	stop = func() (int, error) {
		stopped = true
		cancel()
		select {
		case r := <-done:
			return r.code, r.err
		case <-time.After(10 * time.Second):
			t.Fatal("daemon did not stop")
			return -1, nil
		}
	}
	t.Cleanup(func() {
		if !stopped {
			stop()
		}
	})
	return "http://" + addr.String(), out, stop
}

// TestLoadgenSmoke is the CI smoke test: boot the daemon in-process,
// replay the churn trace from several concurrent clients (a few
// hundred requests), and shut down cleanly with no goroutine leak.
func TestLoadgenSmoke(t *testing.T) {
	before := runtime.NumGoroutine()

	baseURL, out, stop := startDaemon(t)

	var lg bytes.Buffer
	code, err := run(context.Background(), []string{
		"-loadgen", "testdata/churn.json",
		"-target", baseURL,
		"-clients", "8",
		"-repeat", "3",
	}, &lg)
	if err != nil || code != 0 {
		t.Fatalf("loadgen: code %d, err %v, output %q", code, err, lg.String())
	}
	// 8 clients x 3 replays x 8 events, with probe reads alongside each
	// add: comfortably a few hundred requests.
	if !strings.Contains(lg.String(), "errors=0") {
		t.Errorf("loadgen reported errors: %q", lg.String())
	}
	if !strings.Contains(lg.String(), "final_flows=0") {
		t.Errorf("loadgen left flows admitted: %q", lg.String())
	}

	// The daemon is still healthy and empty after the run.
	resp, err := http.Get(baseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after loadgen: HTTP %d", resp.StatusCode)
	}

	code, err = stop()
	if err != nil || code != 0 {
		t.Fatalf("shutdown: code %d, err %v, output %q", code, err, out.String())
	}
	if !strings.Contains(out.String(), "trajand: stopped") {
		t.Errorf("missing shutdown log: %q", out.String())
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Errorf("goroutine leak after daemon shutdown: %d before, %d after", before, n)
	}
}

// TestDaemonPreload boots with -preload and verifies the set is
// installed and served.
func TestDaemonPreload(t *testing.T) {
	baseURL, _, stop := startDaemon(t, "-preload", "testdata/preload.json")
	resp, err := http.Get(baseURL + "/v1/bounds")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bounds: HTTP %d: %s", resp.StatusCode, buf.String())
	}
	for _, want := range []string{`"voice1"`, `"voice2"`, `"all_feasible": true`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("bounds response missing %s: %s", want, buf.String())
		}
	}
	if code, err := stop(); err != nil || code != 0 {
		t.Fatalf("shutdown: code %d, err %v", code, err)
	}
}

// TestMultiTenantLoadgenJournal is the multi-tenant CI smoke: a
// journaled daemon takes mixed churn from two tenants, a handful of
// flows are left admitted in each, and after a clean shutdown the
// on-disk journals replay (checkpoint + tail) into exactly the final
// served state — same flows, bit-identical bounds from a cold analysis.
func TestMultiTenantLoadgenJournal(t *testing.T) {
	dir := t.TempDir()
	baseURL, out, stop := startDaemon(t, "-journal-dir", dir, "-checkpoint-every", "6")

	var lg bytes.Buffer
	code, err := run(context.Background(), []string{
		"-loadgen", "testdata/churn.json",
		"-target", baseURL,
		"-clients", "4",
		"-repeat", "2",
		"-tenants", "acme,globex",
	}, &lg)
	if err != nil || code != 0 {
		t.Fatalf("loadgen: code %d, err %v, output %q", code, err, lg.String())
	}
	for _, want := range []string{"errors=0", "tenant=acme", "tenant=globex"} {
		if !strings.Contains(lg.String(), want) {
			t.Errorf("loadgen output missing %q: %q", want, lg.String())
		}
	}

	// Leave a different number of flows admitted in each tenant, then
	// capture the served verdicts.
	tenants := map[string]int{"acme": 3, "globex": 5}
	served := make(map[string]serve.BoundsResponse)
	for tenant, n := range tenants {
		for k := 0; k < n; k++ {
			body, _ := json.Marshal(serve.AdmitRequest{Flow: &model.FlowConfig{
				Name:     fmt.Sprintf("stay%02d", k),
				Period:   50,
				Deadline: 20,
				Path:     []model.NodeID{1, 2, 3},
				Cost:     json.RawMessage("2"),
			}})
			resp, err := http.Post(baseURL+"/v1/"+tenant+"/admit", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s admit %d: HTTP %d", tenant, k, resp.StatusCode)
			}
		}
		resp, err := http.Get(baseURL + "/v1/" + tenant + "/bounds")
		if err != nil {
			t.Fatal(err)
		}
		var b serve.BoundsResponse
		err = json.NewDecoder(resp.Body).Decode(&b)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if b.Flows != n {
			t.Fatalf("%s: served %d flows, want %d", tenant, b.Flows, n)
		}
		served[tenant] = b
	}

	if code, err := stop(); err != nil || code != 0 {
		t.Fatalf("shutdown: code %d, err %v, output %q", code, err, out.String())
	}

	// Replay each tenant's journal from disk and re-derive the bounds
	// cold: the durable state must equal the final served state exactly.
	for tenant, want := range served {
		jl, rec, err := journal.Open(filepath.Join(dir, tenant), journal.Options{})
		if err != nil {
			t.Fatalf("%s: journal open: %v", tenant, err)
		}
		_ = jl.Close()
		if rec.TornTail {
			t.Errorf("%s: torn tail after clean shutdown", tenant)
		}
		if rec.LastSeq() != want.Seq {
			t.Errorf("%s: journal seq %d, served seq %d", tenant, rec.LastSeq(), want.Seq)
		}
		netCfg, flowCfgs, err := rec.Replay()
		if err != nil {
			t.Fatalf("%s: replay: %v", tenant, err)
		}
		if len(flowCfgs) != want.Flows {
			t.Fatalf("%s: journal replays %d flows, served %d", tenant, len(flowCfgs), want.Flows)
		}
		flows := make([]*model.Flow, len(flowCfgs))
		for i := range flowCfgs {
			f, err := flowCfgs[i].Build()
			if err != nil {
				t.Fatalf("%s: journaled flow %q: %v", tenant, flowCfgs[i].Name, err)
			}
			flows[i] = f
		}
		fs, err := model.NewFlowSet(model.Network{Lmin: netCfg.Lmin, Lmax: netCfg.Lmax}, flows)
		if err != nil {
			t.Fatalf("%s: replayed set: %v", tenant, err)
		}
		a, err := trajectory.NewAnalyzer(fs, trajectory.Options{})
		if err != nil {
			t.Fatalf("%s: cold analyzer: %v", tenant, err)
		}
		bounds, err := a.BoundsContext(context.Background())
		if err != nil {
			t.Fatalf("%s: cold bounds: %v", tenant, err)
		}
		for i, v := range want.Verdicts {
			if fs.Flows[i].Name != v.Flow || bounds[i] != v.Bound {
				t.Errorf("%s flow %d: journal %s/%d, served %s/%d",
					tenant, i, fs.Flows[i].Name, bounds[i], v.Flow, v.Bound)
			}
		}
	}
}

// TestTraceWriteFailureExitsNonzero: an unwritable -trace file must
// fail the run (exit 4), not just leave a truncated log behind.
func TestTraceWriteFailureExitsNonzero(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("/dev/full not available")
	}
	baseURL, _, stop := startDaemon(t, "-trace", "/dev/full")
	// Generate at least one event so the tracer hits ENOSPC.
	body, _ := json.Marshal(serve.AdmitRequest{Flow: &model.FlowConfig{
		Name: "f", Period: 50, Deadline: 20, Path: []model.NodeID{1}, Cost: json.RawMessage("2"),
	}})
	resp, err := http.Post(baseURL+"/v1/admit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	code, err := stop()
	if code != 4 || err == nil || !strings.Contains(err.Error(), "trace") {
		t.Fatalf("trace write failure: code %d, err %v, want code 4 with a trace error", code, err)
	}
}

// TestBadFlags: flag and config errors exit with code 2 (invalid
// configuration), matching the documented contract.
func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-smax", "bogus"},
		{"-smax", "noqueue"}, // unsound: trajan-only
		{"-workers", "-1"},
		{"-loadgen", "testdata/churn.json"}, // missing -target
		{"-preload", "testdata/does-not-exist.json"},
		{"-preload", "testdata/preload.json", "-journal-dir", "x"}, // mutually exclusive
	} {
		code, err := run(context.Background(), args, &bytes.Buffer{})
		if code != 2 || err == nil {
			t.Errorf("args %v: code %d err %v, want code 2 and an error", args, code, err)
		}
	}
	// The daemon admits only on sound estimators: the no-queue floor is
	// refused like any unknown mode.
	if _, err := run(context.Background(), []string{"-smax", "noqueue"}, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "unknown -smax") {
		t.Errorf("-smax noqueue: err %v, want unknown -smax", err)
	}
}
