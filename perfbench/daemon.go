package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one running trajand process.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	stderr *bytes.Buffer
	exited chan struct{} // closed once the process has been reaped
	err    error         // its exit status, valid after exited
}

// startDaemon launches trajand on an ephemeral loopback port with the
// given flags and returns once it is accepting requests.
func startDaemon(bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, stderr: new(bytes.Buffer), exited: make(chan struct{})}
	cmd.Stderr = d.stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("perfbench: starting trajand: %w", err)
	}
	ready := make(chan string, 1)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "serving admission API on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				select {
				case ready <- addr:
				default:
				}
			}
		}
	}()
	go func() {
		<-drained
		d.err = cmd.Wait()
		close(d.exited)
	}()
	select {
	case addr := <-ready:
		d.base = addr
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("perfbench: trajand exited before serving (%v): %s", d.err, d.stderr.String())
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, fmt.Errorf("perfbench: trajand did not start within 60s: %s", d.stderr.String())
	}
}

// pid returns the daemon's process id.
func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop shuts the daemon down gracefully (SIGTERM: drain, close
// journals) and waits for it to exit; it must exit 0.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
		if d.err != nil {
			return fmt.Errorf("perfbench: trajand exited with %v: %s", d.err, d.stderr.String())
		}
		return nil
	case <-time.After(30 * time.Second):
		d.kill()
		return fmt.Errorf("perfbench: trajand did not stop within 30s")
	}
}

// kill ends the daemon without a drain, unless it has already exited,
// and waits for it.
func (d *daemon) kill() {
	select {
	case <-d.exited:
	default:
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// scrape fetches /metrics and returns every sample, keyed by its full
// series name (labels included).
func scrape(c *http.Client, base string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("perfbench: /metrics answered %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sumSeries adds every series of a metric family (any labels).
func sumSeries(m map[string]float64, family string) float64 {
	var s float64
	for k, v := range m {
		if k == family || strings.HasPrefix(k, family+"{") {
			s += v
		}
	}
	return s
}

// counts tallies attempted and failed operations. A failure is a
// transport error or any non-200 answer (429 backpressure, 5xx, 504
// timeouts, 4xx); a typed admission refusal is a 200 and an outcome.
type counts struct {
	mu        sync.Mutex
	attempted int
	failed    int
	firstErr  string
}

func (c *counts) record(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err != nil {
		c.failed++
		if c.firstErr == "" {
			c.firstErr = err.Error()
		}
	}
}

// client is one closed-loop HTTP client with its own keep-alive
// connection.
type client struct {
	http *http.Client
	base string
	// paced clients model admission callers: after each answer the
	// caller acts on it (places, moves or tears down the flow) for as long
	// as it waited for it, so each client is busy half the time and the
	// host stays below saturation, where tail latency would measure CPU
	// queueing more than the program.
	paced bool
	// tag, when set, makes the client label every request with an
	// X-Perfbench-Op header (tag plus a counter) and keep its timing in
	// timings, so an in-process handler wrapper can be paired with it.
	tag     string
	n       int
	timings []reqTiming
}

// reqTiming is one tagged request as the client saw it.
type reqTiming struct {
	id   string
	path string
	rtt  time.Duration
}

// loadClient is a paced client for a measured closed loop.
func loadClient(base string) *client {
	c := newClient(base)
	c.paced = true
	return c
}

func newClient(base string) *client {
	return &client{
		http: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   30 * time.Second,
		},
		base: base,
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// call sends one request and decodes a 200 answer into out. rtt covers
// sending the request and reading the whole body; decoding is not
// timed. Any other status is returned as an error.
func (c *client) call(method, path string, body, out any) (rtt time.Duration, err error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	var id string
	if c.tag != "" {
		c.n++
		id = fmt.Sprintf("%s-%d", c.tag, c.n)
		req.Header.Set("X-Perfbench-Op", id)
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rtt = time.Since(start)
	if id != "" {
		c.timings = append(c.timings, reqTiming{id, path, rtt})
	}
	if c.paced {
		time.Sleep(rtt)
	}
	if err != nil {
		return rtt, err
	}
	if resp.StatusCode != http.StatusOK {
		return rtt, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return rtt, fmt.Errorf("%s %s: decoding answer: %w", method, path, err)
		}
	}
	return rtt, nil
}

// writeJSONFile writes v as indented JSON (the -preload file).
func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
