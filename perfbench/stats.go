package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie above a reported
// percentile: a tail figure resting on fewer is noise.
const minBeyond = 10

// samples is a set of latency observations.
type samples []time.Duration

// rank returns the nearest-rank index (0-based, ascending) of the
// p-th percentile, 0 < p ≤ 100.
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	return r
}

// tail returns the highest whole percentile ≤ want that has at least
// minBeyond samples above it, and its value. ok is false when no
// percentile has.
func (s samples) tail(want int) (p int, v time.Duration, ok bool) {
	n := len(s)
	for p = want; p >= 1; p-- {
		if r := rank(n, float64(p)); n-1-r >= minBeyond {
			return p, s.sorted()[r], true
		}
	}
	return 0, 0, false
}

// median returns the 50th percentile (nearest rank); zero when empty.
func (s samples) median() time.Duration {
	if len(s) == 0 {
		return 0
	}
	return s.sorted()[rank(len(s), 50)]
}

func (s samples) sorted() samples {
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c
}

func maxFloat(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianFloat returns the median of xs (mean of the middle pair).
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// metric is one reported figure.
type metric struct {
	Name  string
	Value float64
	Unit  string
	// Note is printed next to the figure: its sample count and, for a
	// tail, the percentile actually reported.
	Note string
}

// report collects a run's metrics in print order.
type report struct {
	metrics []metric
	// lines are printed after the metrics: breakdowns that explain them
	// but are not part of the result line.
	lines []string
}

func (r *report) line(format string, a ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, a...))
}

func (r *report) add(name string, value float64, unit, note string) {
	r.metrics = append(r.metrics, metric{name, value, unit, note})
}

// latency adds name_p50 and name_p99 (in ms) for s. The p99 figure is
// replaced by the highest percentile with minBeyond samples above it
// when s is too small, and the note says which one was reported.
func (r *report) latency(p50name, p99name string, s samples, scale func(time.Duration) float64, unit string) error {
	p, v, ok := s.tail(99)
	if !ok {
		return fmt.Errorf("perfbench: %s: %d samples are too few for any tail percentile", p99name, len(s))
	}
	r.add(p50name, scale(s.median()), unit, fmt.Sprintf("n=%d", len(s)))
	r.add(p99name, scale(v), unit, fmt.Sprintf("p%d, n=%d", p, len(s)))
	return nil
}

// servingWindows is the number of equal windows a serving run's
// measured time is cut into: a burst of interference from outside the
// benchmark then moves one window's figures, not the median.
const servingWindows = 10

// timeline is a series of latencies with their completion times.
type timeline struct {
	at []time.Time
	d  samples
}

// add records a latency that completed now.
func (t *timeline) add(d time.Duration) {
	t.at = append(t.at, time.Now())
	t.d = append(t.d, d)
}

func (t *timeline) merge(o *timeline) {
	t.at = append(t.at, o.at...)
	t.d = append(t.d, o.d...)
}

// windowed adds <name>_p50_ms, <name>_p99_ms and, for decisions,
// decisions_per_s. The measured time is cut into the steal meter's
// windows (the last runs to end); each window's median, tail and rate
// are taken net of its steal share, and each figure is the median over
// the quieter half of the windows — those with the least steal, later
// ones first among equals — so the stretches when neighbours left the
// guest least CPU weigh least.
// A window's tail is the highest percentile up to p99 with minBeyond
// samples above it.
func (t *timeline) windowed(rep *report, name string, m *stealMeter, shares []float64, end time.Time) error {
	n := len(shares)
	win := make([]samples, n)
	for i, at := range t.at {
		k := min(int(at.Sub(m.start)/m.w), n-1)
		win[k] = append(win[k], t.d[i])
	}
	quiet := make([]int, n)
	for k := range quiet {
		quiet[k] = k
	}
	// Shares are compared in whole percent; among equal ones the later
	// window goes first, so a host with no steal keeps the second half
	// of the run rather than its warm-up.
	pct := func(k int) float64 { return math.Round(shares[k] * 100) }
	sort.Slice(quiet, func(a, b int) bool {
		if pa, pb := pct(quiet[a]), pct(quiet[b]); pa != pb {
			return pa < pb
		}
		return quiet[a] > quiet[b]
	})
	quiet = quiet[:(n+1)/2]
	var p50, tail, rate []float64
	lowest := 99
	for _, k := range quiet {
		s := win[k]
		p, v, ok := s.tail(99)
		if !ok {
			return fmt.Errorf("perfbench: %s window %d: %d samples are too few for any tail percentile", name, k, len(s))
		}
		length := m.w
		if k == n-1 {
			length = end.Sub(m.start) - time.Duration(n-1)*m.w
		}
		net := 1 - shares[k]
		lowest = min(lowest, p)
		p50 = append(p50, ms(s.median())*net)
		tail = append(tail, ms(v)*net)
		rate = append(rate, float64(len(s))/length.Seconds()/net)
	}
	note := fmt.Sprintf("net of steal, median of the %d quietest of %d windows, n=%d", len(quiet), n, len(t.d))
	rep.add(name+"_p50_ms", medianFloat(p50), "ms", note)
	rep.add(name+"_p99_ms", medianFloat(tail), "ms", fmt.Sprintf("p%d or above per window, %s", lowest, note))
	if name == "decision" {
		rep.add("decisions_per_s", medianFloat(rate), "1/s", note)
	}
	_, pooled, _ := t.d.tail(99)
	rep.line("%s raw wall clock over the run: p50 %.3f ms, tail %.3f ms, %.1f/s", name, ms(t.d.median()), ms(pooled), float64(len(t.d))/end.Sub(m.start).Seconds())
	return nil
}
