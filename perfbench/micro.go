package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"delaycalc/internal/analysis"
	"delaycalc/internal/minplus"
	"delaycalc/internal/topo"
)

// microResult is a call's median time and its allocations per call.
type microResult struct {
	ns, allocs float64
}

// micro times f in five batches of about 40 ms each and reports the
// median batch's ns per call and the allocations per call over all
// batches.
func micro(f func()) microResult {
	f() // warm interned curves and pools
	iters := 1
	for {
		start := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		if time.Since(start) > 4*time.Millisecond || iters >= 1<<20 {
			break
		}
		iters *= 2
	}
	iters *= 10
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	var per []float64
	for b := 0; b < 5; b++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(iters))
	}
	runtime.ReadMemStats(&ms)
	return microResult{ns: median(per), allocs: float64(ms.Mallocs-m0) / float64(5*iters)}
}

// minplusMicro times the curve operations the analyses lean on, on curves
// built from the most and second-most utilized servers of net: the sum of
// the busiest server's arrival curves (SumN), the min-plus convolution of
// the two servers' leftover rate-latency curves (ConvolveGated), and the
// FIFO delay of the aggregate at the busiest server (horizontal deviation).
func minplusMicro(net *topo.Network) (map[string]float64, error) {
	util := net.Utilization()
	order := make([]int, len(util))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return util[order[a]] > util[order[b]] })
	if len(order) < 2 || len(net.ConnectionsAt(order[0])) == 0 || len(net.ConnectionsAt(order[1])) == 0 {
		return nil, fmt.Errorf("minplus: the final admitted set loads fewer than two servers")
	}
	curvesAt := func(s int) []minplus.Curve {
		var cs []minplus.Curve
		for _, c := range net.ConnectionsAt(s) {
			cs = append(cs, net.Connections[c].SourceEnvelope())
		}
		return cs
	}
	leftover := func(s int) minplus.Curve {
		sigma, rho := 0.0, 0.0
		for _, c := range net.ConnectionsAt(s) {
			sigma += net.Connections[c].Bucket.Sigma
			rho += net.Connections[c].Bucket.Rho
		}
		capacity := net.Servers[s].Capacity
		return minplus.RateLatency(capacity-rho, sigma/capacity)
	}
	arrivals := curvesAt(order[0])
	agg := minplus.SumN(arrivals...)
	b0, b1 := leftover(order[0]), leftover(order[1])
	line := minplus.Rate(net.Servers[order[0]].Capacity)

	var sink minplus.Curve
	var dev float64
	sum := micro(func() { sink = minplus.SumN(arrivals...) })
	conv := micro(func() { sink = minplus.ConvolveGated(b0, b1) })
	hdev := micro(func() { dev = minplus.HorizontalDeviation(agg, line) })
	if math.IsNaN(dev) || sink.NumPoints() == 0 {
		return nil, fmt.Errorf("minplus: degenerate micro-benchmark result")
	}
	return map[string]float64{
		"minplus.sumn_ns":               sum.ns,
		"minplus.sumn_allocs":           sum.allocs,
		"minplus.convolve_gated_ns":     conv.ns,
		"minplus.convolve_gated_allocs": conv.allocs,
		"minplus.hdev_ns":               hdev.ns,
		"minplus.hdev_allocs":           hdev.allocs,
	}, nil
}

// fullAnalysisTimes times one full analysis and one baseline build of
// net — the cost of a compaction rebuild — as medians of five.
func fullAnalysisTimes(analyzer analysis.Analyzer, net *topo.Network) (map[string]float64, error) {
	inc, ok := analyzer.(analysis.Incremental)
	if !ok {
		return nil, fmt.Errorf("analyzer %s has no incremental path", analyzer.Name())
	}
	var analyze, rebuild []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		if _, err := analyzer.Analyze(net); err != nil {
			return nil, err
		}
		analyze = append(analyze, float64(time.Since(start))/float64(time.Millisecond))
		start = time.Now()
		if _, err := inc.NewBaseline(net); err != nil {
			return nil, err
		}
		rebuild = append(rebuild, float64(time.Since(start))/float64(time.Millisecond))
	}
	return map[string]float64{
		"analysis.analyze_ms":      median(analyze),
		"analysis.new_baseline_ms": median(rebuild),
	}, nil
}
