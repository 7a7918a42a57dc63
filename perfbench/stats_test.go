package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		q    float64
		want float64
	}{
		{0.01, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.51, 6}, {0.9, 9}, {0.99, 10}, {1, 10},
	} {
		if got := percentile(xs, tc.q); got != tc.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile of no samples = %v, want NaN", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
}

func TestTailSupport(t *testing.T) {
	// The p99 of n samples has n - ceil(0.99 n) samples beyond it.
	for _, tc := range []struct {
		n      int
		beyond int
	}{
		{0, 0}, {99, 0}, {100, 1}, {999, 9}, {1000, 10}, {1001, 10}, {2000, 20},
	} {
		if got := beyond(tc.n, 0.99); got != tc.beyond {
			t.Errorf("beyond(%d, 0.99) = %d, want %d", tc.n, got, tc.beyond)
		}
	}
	if tailSupported(999, 0.99) || !tailSupported(1000, 0.99) {
		t.Errorf("p99 support must start at 1000 samples")
	}
	if got := samplesFor(0.99); got != 1000 {
		t.Errorf("samplesFor(0.99) = %d, want 1000", got)
	}
	if got := samplesFor(0.5); got != 20 {
		t.Errorf("samplesFor(0.5) = %d, want 20", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

// latencies returns n copies of ms.
func latencies(n int, ms float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = ms
	}
	return out
}

func TestSLORungSelection(t *testing.T) {
	const limit = 10.0
	ok := func(rate float64) rung { return rung{Rate: rate, Latencies: latencies(200, 2)} }

	if got := sloRate([]rung{ok(200), ok(400), ok(800)}, limit); got != 800 {
		t.Errorf("all rungs pass: slo = %v, want 800", got)
	}

	slow := ok(800)
	slow.Latencies = append(latencies(190, 2), latencies(10, 50)...)
	if got := sloRate([]rung{ok(200), ok(400), slow}, limit); got != 400 {
		t.Errorf("top rung p99 over the limit: slo = %v, want 400", got)
	}

	// Three failed requests among 200 are recorded as +Inf and reach the
	// p99: a failed request misses the limit even when every success was
	// fast.
	failed := ok(400)
	failed.Latencies = append(latencies(197, 2), math.Inf(1), math.Inf(1), math.Inf(1))
	failed.Failed = 3
	if v := judge(failed, limit); v.Passed || !math.IsInf(v.P99, 1) {
		t.Errorf("failed requests: verdict %+v, want an infinite p99", v)
	}
	if got := sloRate([]rung{ok(200), failed}, limit); got != 200 {
		t.Errorf("failed requests: slo = %v, want 200", got)
	}
	// Even a single failure, below the p99, fails the rung.
	one := ok(400)
	one.Latencies = append(latencies(199, 2), math.Inf(1))
	one.Failed = 1
	if v := judge(one, limit); v.Passed || v.P99 != 2 {
		t.Errorf("one failure: verdict %+v, want a fast p99 that still fails", v)
	}

	late := ok(800)
	late.LatenessP99 = 1.5 // over a tenth of the limit
	if v := judge(late, limit); v.Valid || v.Passed {
		t.Errorf("late generator: verdict %+v, want invalid", v)
	}
	if got := sloRate([]rung{ok(200), ok(400), late}, limit); got != 400 {
		t.Errorf("invalid top rung: slo = %v, want 400", got)
	}

	backlog := ok(800)
	backlog.Backlogged = true
	if got := sloRate([]rung{ok(200), backlog}, limit); got != 200 {
		t.Errorf("backlogged rung: slo = %v, want 200", got)
	}

	if got := sloRate([]rung{{Rate: 100}}, limit); got != 0 {
		t.Errorf("empty rung: slo = %v, want 0", got)
	}
}

func TestSelfTimesMatchByOpID(t *testing.T) {
	upper := map[int]float64{1: 100, 2: 50, 3: 30, 7: 10}
	lower := map[int]float64{2: 20, 1: 60, 3: 40, 9: 5}
	got := selfTimes(upper, lower)
	want := map[int]float64{1: 40, 2: 30, 3: -10, 7: 10}
	if len(got) != len(want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("op %d: self = %v, want %v", id, got[id], w)
		}
	}
	if v := values(got); v[0] != 40 || v[1] != 30 || v[2] != -10 || v[3] != 10 {
		t.Errorf("values not in op-id order: %v", v)
	}
}

func TestLadderAttribution(t *testing.T) {
	stream := []op{{ID: 1, Kind: opAdmit}, {ID: 2, Kind: opAdmit}, {ID: 3, Kind: opRead}}
	run := func(t1, t2, t3 float64) *layerRun {
		lr := newLayerRun()
		lr.times[1], lr.times[2] = t1, t2
		if t3 > 0 {
			lr.times[3] = t3
		}
		return lr
	}
	runs := map[string]*layerRun{
		layerDelayd:    run(1000, 1200, 300),
		layerService:   run(600, 700, 100),
		layerAdmission: run(500, 550, 20),
		layerAnalysis:  run(400, 420, 0),
	}
	m := ladder(stream, runs)
	for name, want := range map[string]float64{
		"delayd.admit.p50_us":         1100,
		"delayd.admit.self_p50_us":    450,
		"service.admit.self_p50_us":   125,
		"admission.admit.self_p50_us": 115,
		"analysis.admit.p50_us":       410,
		"trace.admit.unattributed_us": 0,
		"admission.read.self_p50_us":  20, // no analysis call below a read
		"delayd.read.self_p50_us":     200,
		"trace.read.unattributed_us":  0,
	} {
		if got := m[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestSplitByWrites(t *testing.T) {
	var samples []sample
	for i := 0; i < 25; i++ {
		k := opAdmit
		if i%5 == 4 {
			k = opRead
		}
		samples = append(samples, sample{kind: k, ms: float64(i)})
	}
	// 20 writes, need 6: three windows of at least 6 writes each.
	wins := splitByWrites(samples, 6)
	if len(wins) != 3 {
		t.Fatalf("got %d windows, want 3", len(wins))
	}
	total := 0
	for i, w := range wins {
		writes := 0
		for _, s := range w {
			if isWrite(s.kind) {
				writes++
			}
		}
		if writes < 6 {
			t.Errorf("window %d has %d writes, want at least 6", i, writes)
		}
		total += len(w)
	}
	if total != len(samples) || wins[0][0].ms != 0 || wins[2][len(wins[2])-1].ms != 24 {
		t.Errorf("windows do not tile the samples in order")
	}
	if wins := splitByWrites(samples, 11); len(wins) != 1 || len(wins[0]) != 25 {
		t.Errorf("fewer than two windows' worth of writes must stay one window")
	}
}

func TestChunks(t *testing.T) {
	xs := make([]float64, 10)
	for i := range xs {
		xs[i] = float64(i)
	}
	parts := chunks(xs, 3)
	if len(parts) != 3 || len(parts[0])+len(parts[1])+len(parts[2]) != 10 {
		t.Fatalf("chunks(10, 3) = %v", parts)
	}
	for _, p := range parts {
		if len(p) < 3 {
			t.Errorf("part %v shorter than 3", p)
		}
	}
	if parts := chunks(xs, 6); len(parts) != 1 {
		t.Errorf("chunks(10, 6) made %d parts, want 1", len(parts))
	}
}
