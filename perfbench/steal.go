package main

import (
	"sort"
	"sync"
	"time"
)

// On a virtual machine the hypervisor can hand the VM's CPUs to other
// guests. That time shows as "steal" in /proc/stat, and while it lasts the
// same code runs up to 2x slower; on the 2-vCPU VM the benchmark was sized
// on, such phases come and go for tens of seconds at a time. The serving
// runs therefore measure steal alongside the load and leave out the
// closed-loop windows, start-ups and rungs during which the host took more
// than stealLimit of the machine's CPU time. A regression in delayd cannot
// create steal: it only slows the windows that remain.
const stealLimit = 0.03

// stealSlot is how often the meter samples /proc/stat. The kernel counts
// CPU time in 10 ms ticks, so a slot holds about 50 ticks on 2 CPUs.
const stealSlot = 250 * time.Millisecond

type stealPoint struct {
	at           time.Time
	total, steal float64
}

// stealMeter samples the machine's CPU-time counters every stealSlot
// from start until stop. Where /proc/stat cannot be read it records
// nothing, and every share reads 0.
type stealMeter struct {
	mu     sync.Mutex
	pts    []stealPoint
	clean  time.Duration // total length of slots within stealLimit
	stopCh chan struct{}
	done   chan struct{}
}

func startStealMeter() *stealMeter {
	m := &stealMeter{stopCh: make(chan struct{}), done: make(chan struct{})}
	m.sample()
	go func() {
		defer close(m.done)
		t := time.NewTicker(stealSlot)
		defer t.Stop()
		for {
			select {
			case <-m.stopCh:
				m.sample()
				return
			case <-t.C:
				m.sample()
			}
		}
	}()
	return m
}

func (m *stealMeter) sample() {
	total, steal, err := machineTicks()
	if err != nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	p := stealPoint{time.Now(), total, steal}
	if n := len(m.pts); n > 0 {
		last := m.pts[n-1]
		if p.total > last.total && (p.steal-last.steal)/(p.total-last.total) <= stealLimit {
			m.clean += p.at.Sub(last.at)
		}
	}
	m.pts = append(m.pts, p)
}

// stop ends the sampling and waits for the sampler to exit.
func (m *stealMeter) stop() {
	close(m.stopCh)
	<-m.done
}

// cleanTime returns how long, so far, the host stole no more than
// stealLimit.
func (m *stealMeter) cleanTime() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.clean
}

// share returns the stolen share of machine time over [from, to], taken
// between the last sample at or before from and the first at or after to.
func (m *stealMeter) share(from, to time.Time) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return stealShare(m.pts, from, to)
}

func stealShare(pts []stealPoint, from, to time.Time) float64 {
	if len(pts) < 2 {
		return 0
	}
	a, b := 0, len(pts)-1
	for i, p := range pts {
		if !p.at.After(from) {
			a = i
		}
	}
	for i := len(pts) - 1; i >= 0; i-- {
		if !pts[i].at.Before(to) {
			b = i
		}
	}
	if b <= a || pts[b].total <= pts[a].total {
		return 0
	}
	return (pts[b].steal - pts[a].steal) / (pts[b].total - pts[a].total)
}

// timeWindows cuts samples (completion offsets from the phase start) into
// consecutive windows of length win over elapsed. Only whole windows are
// returned; samples after the last one are left out.
func timeWindows(samples []sample, win, elapsed time.Duration) [][]sample {
	k := int(elapsed / win)
	out := make([][]sample, k)
	for _, s := range samples {
		if i := int(s.done / win); i < k {
			out[i] = append(out[i], s)
		}
	}
	return out
}

// minCleanWindows is the fewest closed-loop windows the throughput and
// p50s are taken from: with fewer steal-free ones, the least stolen count.
const minCleanWindows = 3

// pickClean returns, in order, the indexes whose steal share is within
// stealLimit, or the min indexes with the least steal when fewer are;
// clean reports whether all returned ones are within the limit.
func pickClean(shares []float64, min int) (idx []int, clean bool) {
	order := make([]int, len(shares))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return shares[order[a]] < shares[order[b]] })
	n := 0
	for n < len(order) && shares[order[n]] <= stealLimit {
		n++
	}
	clean = n >= min
	if !clean {
		n = min
		if n > len(order) {
			n = len(order)
		}
	}
	idx = append(idx, order[:n]...)
	sort.Ints(idx)
	return idx, clean
}

// pick returns xs at idx.
func pick(xs []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}
