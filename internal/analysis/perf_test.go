package analysis

import (
	"fmt"
	"testing"
	"time"

	"delaycalc/internal/server"
	"delaycalc/internal/topo"
	"delaycalc/internal/traffic"
)

// benchTandemNet builds the curve-engine benchmark workload: a tandem of
// unit-capacity FIFO switches crossed by short overlapping connections
// (hops cycling 2..4), loaded well inside the stability region.
func benchTandemNet(nServers, nConns int) *topo.Network {
	servers := make([]server.Server, nServers)
	for i := range servers {
		servers[i] = server.Server{Name: fmt.Sprintf("sw%d", i), Capacity: 1, Discipline: server.FIFO}
	}
	load := make([]int, nServers)
	paths := make([][]int, nConns)
	for i := 0; i < nConns; i++ {
		hops := 2 + i%3
		start := (i * 7) % (nServers - hops)
		path := make([]int, hops)
		for h := range path {
			path[h] = start + h
			load[start+h]++
		}
		paths[i] = path
	}
	maxLoad := 1
	for _, l := range load {
		if l > maxLoad {
			maxLoad = l
		}
	}
	rho := 0.55 / float64(maxLoad+1)
	conns := make([]topo.Connection, nConns)
	for i := range conns {
		conns[i] = topo.Connection{
			Name:       fmt.Sprintf("bench%d", i),
			Bucket:     traffic.TokenBucket{Sigma: 1 + 0.01*float64(i%7), Rho: rho * (1 + 0.001*float64(i%11))},
			AccessRate: 1,
			Path:       paths[i],
			Deadline:   10000,
		}
	}
	net := &topo.Network{Servers: servers, Connections: conns}
	if err := net.Validate(); err != nil {
		panic(err)
	}
	return net
}

// TestCurveEngineSpeedup enforces the overhaul's acceptance gate: on a
// 64-switch / 400-connection tandem the reworked Integrated engine must be
// at least 4x faster than the pre-overhaul engine (frozen verbatim in
// reference_test.go), while producing the same bounds.
func TestCurveEngineSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate")
	}
	net := benchTandemNet(64, 400)
	a := Integrated{}

	fastRes, err := a.Analyze(net)
	if err != nil {
		t.Fatal(err)
	}
	slowRes, err := refIntegratedAnalyze(a, net)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fastRes.Bounds {
		if !boundsClose(fastRes.Bounds[i], slowRes.Bounds[i]) {
			t.Fatalf("conn %d: new engine bound %v, reference %v", i, fastRes.Bounds[i], slowRes.Bounds[i])
		}
	}

	// Both arms are timed by process CPU time, so time the host takes the
	// CPU away (steal, other tenants) is not charged to either, and the
	// garbage collection an arm causes is. The arms alternate so slower
	// phases of the host hit both, and the best of 7 rounds gates.
	arms := []struct {
		run       func() (*Result, error)
		cpu, wall time.Duration
	}{
		{run: func() (*Result, error) { return a.Analyze(net) }},
		{run: func() (*Result, error) { return refIntegratedAnalyze(a, net) }},
	}
	for round := 0; round < 7; round++ {
		for i := range arms {
			cpu0, wall0 := processCPU(t), time.Now()
			if _, err := arms[i].run(); err != nil {
				t.Fatal(err)
			}
			cpu, wall := processCPU(t)-cpu0, time.Since(wall0)
			if round == 0 || cpu < arms[i].cpu {
				arms[i].cpu = cpu
			}
			if round == 0 || wall < arms[i].wall {
				arms[i].wall = wall
			}
		}
	}
	fast, slow := arms[0], arms[1]
	ratio := float64(slow.cpu) / float64(fast.cpu)
	t.Logf("CPU time: new engine %v, reference %v, ratio %.1fx; wall: %v, %v, ratio %.1fx",
		fast.cpu, slow.cpu, ratio, fast.wall, slow.wall, float64(slow.wall)/float64(fast.wall))
	if ratio < 4 {
		t.Errorf("curve-engine speedup %.1fx in CPU time, want >= 4x", ratio)
	}
}

func BenchmarkIntegratedAnalyze(b *testing.B) {
	net := benchTandemNet(64, 400)
	a := Integrated{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Analyze(net); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIntegratedAnalyzeChain4(b *testing.B) {
	net := benchTandemNet(32, 200)
	a := Integrated{ChainLength: 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Analyze(net); err != nil {
			b.Fatal(err)
		}
	}
}
