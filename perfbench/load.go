package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"
)

// phase accumulates what one load phase sent and observed.
type phase struct {
	Name                              string
	Sent, Succeeded, Failed, Rejected int
	Admits                            int
	Samples                           []sample // successful ops, in completion order
	Unexpected                        []string
	ClientSeconds                     float64
	Start                             time.Time
	Elapsed                           time.Duration
}

// record accounts for one op that took d and completed at offset done
// into the phase.
func (p *phase) record(o op, r *result, d, done time.Duration) {
	p.Sent++
	switch {
	case r.Failed:
		p.Failed++
	case r.Unexpected != "":
		p.Unexpected = append(p.Unexpected, r.Unexpected)
	default:
		p.Succeeded++
		p.Admits += r.admits()
		p.Rejected += r.rejected()
		p.Samples = append(p.Samples, sample{o.Kind, float64(d) / float64(time.Millisecond), done})
	}
	p.ClientSeconds += d.Seconds()
}

func (p *phase) merge(q *phase) {
	p.Sent += q.Sent
	p.Succeeded += q.Succeeded
	p.Failed += q.Failed
	p.Rejected += q.Rejected
	p.Admits += q.Admits
	p.Samples = append(p.Samples, q.Samples...)
	p.Unexpected = append(p.Unexpected, q.Unexpected...)
	p.ClientSeconds += q.ClientSeconds
}

// worker is one closed-loop client: it sends its next op only after the
// previous one completed. Its rng and block persist across phases.
type worker struct {
	rng    *rand.Rand
	block  int
	prefix string
}

// closedLoop runs the workers until stop says so and returns the merged
// phase. stop is polled before every op with the phase's running total.
func closedLoop(name string, c *http.Client, base string, g *generator, workers []*worker, stop func(total int, elapsed time.Duration) bool) *phase {
	var mu sync.Mutex
	total := 0
	start := time.Now()
	parts := make([]*phase, len(workers))
	var wg sync.WaitGroup
	for i, w := range workers {
		parts[i] = &phase{}
		wg.Add(1)
		go func(w *worker, p *phase) {
			defer wg.Done()
			for {
				mu.Lock()
				done := stop(total, time.Since(start))
				total++
				mu.Unlock()
				if done {
					return
				}
				o := g.next(w.rng, w.block, w.prefix)
				r, d := doHTTP(context.Background(), c, base, o)
				g.settle(o, r)
				p.record(o, r, d, time.Since(start))
			}
		}(w, parts[i])
	}
	wg.Wait()
	out := &phase{Name: name, Start: start, Elapsed: time.Since(start)}
	for _, p := range parts {
		out.merge(p)
	}
	sort.SliceStable(out.Samples, func(a, b int) bool { return out.Samples[a].done < out.Samples[b].done })
	return out
}

// openResult is one open-loop rung: latencies from the scheduled send
// time, the generator's own lateness, and the load accounting.
type openResult struct {
	phase
	Rate        float64
	Latencies   []float64 // ms from scheduled time; failed and unsent ops are +Inf
	Unsent      int       // arrivals dropped unsent after the window
	Lateness    []float64 // ms
	Backlogged  bool
	LatenessP99 float64
}

// openLoop sends a Poisson arrival schedule at rate for dur over conns
// senders. A free sender takes the next arrival, sleeps until it is due
// and sends it; latency runs from the due time, so queueing behind a slow
// response counts. Lateness is how long after max(due, sender free) the
// request actually left: the generator's own delay, not the daemon's.
func openLoop(c *http.Client, base string, g *generator, rng *rand.Rand, prefix string, rate float64, dur time.Duration, conns int, limitMs float64) *openResult {
	var due []time.Duration
	for t := rng.ExpFloat64() / rate; t < dur.Seconds(); t += rng.ExpFloat64() / rate {
		due = append(due, time.Duration(t*float64(time.Second)))
	}
	type arrival struct {
		idx       int
		lat, late float64
		wait      time.Duration
		o         op
		r         *result
		d, done   time.Duration
	}
	// Arrivals still unsent a latency limit after the window closes have
	// missed the limit whatever happens next: they are dropped unsent, so
	// an overloaded rung ends instead of draining its queue.
	cutoff := dur + time.Duration(limitMs*float64(time.Millisecond))
	var mu sync.Mutex
	next := 0
	samples := make([]arrival, 0, len(due))
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < conns; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			freeAt := start
			for {
				mu.Lock()
				i := next
				next++
				if i >= len(due) || time.Since(start) > cutoff {
					mu.Unlock()
					return
				}
				o := g.next(rng, rng.Intn(len(g.pools)), prefix)
				mu.Unlock()
				dueAt := start.Add(due[i])
				sleepUntil(dueAt)
				sendAt := time.Now()
				ref := dueAt
				if freeAt.After(ref) {
					ref = freeAt
				}
				r, d := doHTTP(context.Background(), c, base, o)
				done := time.Now()
				freeAt = done
				g.settle(o, r)
				lat := float64(done.Sub(dueAt)) / float64(time.Millisecond)
				if r.Failed {
					lat = math.Inf(1)
				}
				mu.Lock()
				samples = append(samples, arrival{i, lat, float64(sendAt.Sub(ref)) / float64(time.Millisecond), sendAt.Sub(dueAt), o, r, d, done.Sub(start)})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(samples, func(a, b int) bool { return samples[a].idx < samples[b].idx })
	res := &openResult{Rate: rate}
	res.Name = fmt.Sprintf("open@%g", rate)
	res.Elapsed = time.Since(start)
	var tailWaits []float64
	for k, s := range samples {
		res.record(s.o, s.r, s.d, s.done)
		res.Latencies = append(res.Latencies, s.lat)
		res.Lateness = append(res.Lateness, s.late)
		if k >= len(samples)*9/10 {
			tailWaits = append(tailWaits, float64(s.wait)/float64(time.Millisecond))
		}
	}
	res.Unsent = len(due) - len(samples)
	for k := 0; k < res.Unsent; k++ {
		res.Latencies = append(res.Latencies, math.Inf(1))
	}
	res.LatenessP99 = percentile(sorted(res.Lateness), 0.99)
	if len(samples) == 0 {
		res.LatenessP99 = 0
	}
	// The queue grew if, by the end of the window, requests still waited
	// longer than the latency limit before a sender could take them.
	res.Backlogged = res.Unsent > 0 || (len(tailWaits) > 0 && median(tailWaits) > limitMs)
	return res
}

// spinMargin is how long before a due time sleepUntil stops sleeping and
// spins: a timer sleep on a virtual CPU overshoots by about 1 ms at p90
// and several ms at p99, which would otherwise be charged to the daemon.
const spinMargin = 2 * time.Millisecond

// sleepUntil returns at t, sleeping until spinMargin before it and
// yielding in a loop for the rest.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - spinMargin; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

func (r *openResult) rung() rung {
	return rung{Rate: r.Rate, Latencies: r.Latencies, Failed: r.Failed, LatenessP99: r.LatenessP99, Backlogged: r.Backlogged}
}
