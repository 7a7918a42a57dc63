package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie strictly above a reported tail
// percentile for it to be supported by the sample.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted:
// the smallest sample with at least q of the samples at or below it.
// It returns NaN for an empty sample.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// beyond returns how many samples of an n-sample set lie above its
// nearest-rank q-quantile position.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return n - rank
}

// tailSupported reports whether an n-sample set supports its q-quantile:
// at least minBeyond samples lie beyond it.
func tailSupported(n int, q float64) bool { return beyond(n, q) >= minBeyond }

// samplesFor returns the smallest sample count that supports the
// q-quantile.
func samplesFor(q float64) int {
	n := 1
	for !tailSupported(n, q) {
		n++
	}
	return n
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// sample is one successful operation: its class, latency in ms and
// completion offset into its phase.
type sample struct {
	kind opKind
	ms   float64
	done time.Duration
}

func isWrite(k opKind) bool { return k != opRead }

// splitByWrites cuts samples, in completion order, into consecutive
// windows of at least need writes each (the last window takes the rest),
// so every window supports a write p99. Fewer than need writes in all
// make one window.
func splitByWrites(samples []sample, need int) [][]sample {
	writes := 0
	for _, s := range samples {
		if isWrite(s.kind) {
			writes++
		}
	}
	k := writes / need
	if k <= 1 {
		return [][]sample{samples}
	}
	per := writes / k
	var out [][]sample
	start, n := 0, 0
	for i, s := range samples {
		if isWrite(s.kind) {
			n++
		}
		if n == per && len(out) < k-1 {
			out = append(out, samples[start:i+1])
			start, n = i+1, 0
		}
	}
	return append(out, samples[start:])
}

// chunks cuts xs into as many equal consecutive parts as keep at least
// need values each (one part when xs is shorter).
func chunks(xs []float64, need int) [][]float64 {
	k := len(xs) / need
	if k <= 1 {
		return [][]float64{xs}
	}
	out := make([][]float64, k)
	for i := range out {
		out[i] = xs[i*len(xs)/k : (i+1)*len(xs)/k]
	}
	return out
}

// rung is one open-loop rate step as the SLO selection sees it.
type rung struct {
	Rate float64
	// Latencies are per-request latencies in ms from the scheduled send
	// time; a failed request is recorded as +Inf, so it misses any limit.
	Latencies []float64
	Failed    int
	// LatenessP99 is the generator's own lateness p99 in ms; Backlogged
	// marks a queue that was still growing at the end of the window.
	LatenessP99 float64
	Backlogged  bool
}

// rungVerdict explains how one rung fared against the latency limit.
type rungVerdict struct {
	P99    float64
	Valid  bool // generator lateness p99 within a tenth of the limit
	Passed bool
}

// judge evaluates a rung against a p99 latency limit in ms.
func judge(r rung, limitMs float64) rungVerdict {
	v := rungVerdict{P99: percentile(sorted(r.Latencies), 0.99)}
	v.Valid = r.LatenessP99 <= limitMs/10
	v.Passed = v.Valid && len(r.Latencies) > 0 && r.Failed == 0 && !r.Backlogged && v.P99 <= limitMs
	return v
}

// sloRate returns the highest rate among the rungs that pass the limit, or
// 0 when none does.
func sloRate(rungs []rung, limitMs float64) float64 {
	best := 0.0
	for _, r := range rungs {
		if judge(r, limitMs).Passed && r.Rate > best {
			best = r.Rate
		}
	}
	return best
}

// selfTimes matches two layers' per-operation durations by op id and
// returns, for every op present in both, the upper layer's time minus the
// lower layer's. Ops missing from the lower layer (it has no such call,
// like a read below admission) keep the upper layer's whole time.
func selfTimes(upper, lower map[int]float64) map[int]float64 {
	out := make(map[int]float64, len(upper))
	for id, t := range upper {
		if l, ok := lower[id]; ok {
			out[id] = t - l
		} else {
			out[id] = t
		}
	}
	return out
}

// values returns the map's values in op-id order.
func values(m map[int]float64) []float64 {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]float64, len(ids))
	for i, id := range ids {
		out[i] = m[id]
	}
	return out
}

// ratio returns num/den, or NaN when den is zero.
func ratio(num, den float64) float64 {
	if den == 0 {
		return math.NaN()
	}
	return num / den
}
