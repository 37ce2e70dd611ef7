package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"time"
)

// Steal correction. On a shared virtual machine the hypervisor runs
// other guests on this guest's CPUs; /proc/stat counts that time as
// "steal". In a stretch where a share s of the busy CPU time was
// stolen, CPU-bound work runs about 1/(1-s) times slower, and that
// slowdown comes and goes with the neighbours, not with the program.
// Every end-to-end time and rate is therefore reported net of steal: a
// window's latencies are scaled by (1-s) and its rates divided by it.
// The raw wall-clock figures and s are printed next to them.

// cpuStat is a snapshot of the host's aggregate CPU time counters.
type cpuStat struct{ busy, steal uint64 }

// readCPU reads the aggregate "cpu" line of /proc/stat. Busy time is
// user, nice, system, irq, softirq and steal; idle and iowait are not.
// Without /proc/stat it returns zeros, and no correction is applied.
func readCPU() cpuStat {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuStat{}
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuStat{}
	}
	var v [8]uint64
	for i := range v {
		v[i], _ = strconv.ParseUint(fields[i+1], 10, 64)
	}
	// user nice system idle iowait irq softirq steal
	return cpuStat{busy: v[0] + v[1] + v[2] + v[5] + v[6] + v[7], steal: v[7]}
}

// stealShare is the share of the busy CPU time between a and b that
// was stolen.
func stealShare(a, b cpuStat) float64 {
	busy := b.busy - a.busy
	if busy == 0 {
		return 0
	}
	return float64(b.steal-a.steal) / float64(busy)
}

// netOfSteal scales a wall-clock duration measured between a and b.
func netOfSteal(d time.Duration, a, b cpuStat) time.Duration {
	return time.Duration(float64(d) * (1 - stealShare(a, b)))
}

// stealMeter snapshots /proc/stat at the boundaries of n equal windows
// of a measured phase, and once more when the phase ends.
type stealMeter struct {
	start time.Time
	w     time.Duration
	snaps []cpuStat
	stop  chan struct{}
	done  chan struct{}
}

func startStealMeter(start time.Time, total time.Duration, n int) *stealMeter {
	m := &stealMeter{start: start, w: total / time.Duration(n), stop: make(chan struct{}), done: make(chan struct{})}
	m.snaps = append(m.snaps, readCPU())
	go func() {
		defer close(m.done)
		for k := 1; k < n; k++ {
			select {
			case <-m.stop:
				return
			case <-time.After(time.Until(m.start.Add(time.Duration(k) * m.w))):
				m.snaps = append(m.snaps, readCPU())
			}
		}
		<-m.stop
	}()
	return m
}

// finish takes the last snapshot and returns each window's steal share.
func (m *stealMeter) finish() []float64 {
	close(m.stop)
	<-m.done
	m.snaps = append(m.snaps, readCPU())
	shares := make([]float64, len(m.snaps)-1)
	for k := range shares {
		shares[k] = stealShare(m.snaps[k], m.snaps[k+1])
	}
	return shares
}
