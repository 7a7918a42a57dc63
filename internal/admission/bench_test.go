package admission

import (
	"fmt"
	"testing"
	"time"

	"delaycalc/internal/analysis"
	"delaycalc/internal/server"
	"delaycalc/internal/topo"
	"delaycalc/internal/traffic"
)

// benchNetwork builds the benchmark fabric from the issue's acceptance
// scenario: a 32-switch tandem carrying 200 admitted connections with
// short contiguous routes, plus a 2-hop candidate at the tail whose
// interference closure touches only a handful of them. Rates are scaled so
// the busiest server runs at 55% utilization.
func benchNetwork(tb testing.TB) (*topo.Network, topo.Connection) {
	tb.Helper()
	const nServers = 32
	const nConns = 200
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
	rho := 0.55 / float64(maxLoad+1) // +1 leaves room for the candidate
	conns := make([]topo.Connection, nConns)
	for i := range conns {
		conns[i] = topo.Connection{
			Name:       fmt.Sprintf("bench%d", i),
			Bucket:     traffic.TokenBucket{Sigma: 1, Rho: rho},
			AccessRate: 1,
			Path:       paths[i],
			Deadline:   10000,
		}
	}
	cand := topo.Connection{
		Name:       "cand",
		Bucket:     traffic.TokenBucket{Sigma: 1, Rho: rho},
		AccessRate: 1,
		Path:       []int{nServers - 2, nServers - 1},
		Deadline:   10000,
	}
	net := &topo.Network{Servers: servers, Connections: conns}
	if err := net.Validate(); err != nil {
		tb.Fatal(err)
	}
	return net, cand
}

// fullController returns a Controller preloaded with the benchmark's
// admitted set (seeded directly; admitting through the API would run 200
// full analyses of setup).
func fullController(tb testing.TB, net *topo.Network) *Controller {
	tb.Helper()
	ctrl, err := New(net.Servers, analysis.Integrated{})
	if err != nil {
		tb.Fatal(err)
	}
	ctrl.admitted = net.Connections
	return ctrl
}

// warmEngine returns an Engine preloaded with the benchmark's admitted set
// and a built baseline, the steady state a long-running daemon sits in.
func warmEngine(tb testing.TB, net *topo.Network, cand topo.Connection) *Engine {
	tb.Helper()
	eng, err := NewEngine(net.Servers, analysis.Integrated{})
	if err != nil {
		tb.Fatal(err)
	}
	eng.seed(net.Connections)
	d, err := eng.Test(cand) // builds the baseline
	if err != nil {
		tb.Fatal(err)
	}
	if !d.Admitted {
		tb.Fatalf("benchmark candidate rejected: %+v", d)
	}
	if st := eng.Stats(); st.IncrementalTests == 0 {
		tb.Fatalf("benchmark engine is not on the incremental path: %+v", st)
	}
	return eng
}

func runFullTest(b *testing.B, net *topo.Network, cand topo.Connection) {
	ctrl := fullController(b, net)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := ctrl.Test(cand)
		if err != nil || !d.Admitted {
			b.Fatalf("full test failed: %+v %v", d, err)
		}
	}
}

func runIncrementalTest(b *testing.B, net *topo.Network, cand topo.Connection) {
	eng := warmEngine(b, net, cand)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := eng.Test(cand)
		if err != nil || !d.Admitted {
			b.Fatalf("incremental test failed: %+v %v", d, err)
		}
	}
}

// BenchmarkFullTest is one admission test via full re-analysis of the
// 201-connection trial network.
func BenchmarkFullTest(b *testing.B) {
	net, cand := benchNetwork(b)
	runFullTest(b, net, cand)
}

// BenchmarkIncrementalTest is the same admission test via baseline replay;
// the acceptance bar is >=5x faster than BenchmarkFullTest.
func BenchmarkIncrementalTest(b *testing.B) {
	net, cand := benchNetwork(b)
	runIncrementalTest(b, net, cand)
}

// BenchmarkAdmission groups both paths under one name for the CI smoke job
// (go test -bench=Admission -benchtime=1x).
func BenchmarkAdmission(b *testing.B) {
	net, cand := benchNetwork(b)
	b.Run("FullTest", func(b *testing.B) { runFullTest(b, net, cand) })
	b.Run("IncrementalTest", func(b *testing.B) { runIncrementalTest(b, net, cand) })
}

// churnEngine returns a warm engine holding the benchmark's admitted set
// plus the candidate, ready for release/re-admit cycles. invalidating
// configures the pre-tentpole behavior: every release drops the baseline
// (no shrink, no background re-promotion), so the following admission pays
// a full re-analysis to rebuild it.
func churnEngine(tb testing.TB, net *topo.Network, cand topo.Connection, invalidating bool) *Engine {
	tb.Helper()
	eng := warmEngine(tb, net, cand)
	if invalidating {
		eng.SetCompactionThreshold(-1)
		eng.SetBackgroundPromotion(false)
	}
	d, err := eng.Admit(cand)
	if err != nil || !d.Admitted {
		tb.Fatalf("benchmark candidate not admitted: %+v %v", d, err)
	}
	return eng
}

// releaseAndWarm is one measured removal: release the candidate and pay
// whatever it takes to leave the engine ready for the next incremental
// admission. An incremental release promotes the shrunken baseline inline,
// so the warm-up is free; a baseline-invalidating release forces a full
// re-analysis here — the cost the tentpole removes from the churn path.
// The subsequent re-admission costs one extend in both worlds and is
// restored outside the timer by the callers.
func releaseAndWarm(tb testing.TB, eng *Engine, cand topo.Connection) {
	tb.Helper()
	if _, ok := eng.Release(cand.Name); !ok {
		tb.Fatalf("release %q failed", cand.Name)
	}
	if err := eng.WarmBaseline(); err != nil {
		tb.Fatalf("warm baseline: %v", err)
	}
}

// readmit restores the benchmark state after a measured release.
func readmit(tb testing.TB, eng *Engine, cand topo.Connection) {
	tb.Helper()
	d, err := eng.Admit(cand)
	if err != nil || !d.Admitted {
		tb.Fatalf("re-admit failed: %+v %v", d, err)
	}
}

// BenchmarkRelease measures one removal on the 200-connection, 32-switch
// tandem: Incremental shrinks the baseline in place (scoped unit-trace
// replay), Invalidating (the pre-tentpole behavior) drops it and pays the
// full re-analysis the next admission would otherwise absorb. The
// acceptance bar is Incremental >= 5x faster, enforced by
// TestReleaseSpeedup.
func BenchmarkRelease(b *testing.B) {
	net, cand := benchNetwork(b)
	run := func(b *testing.B, invalidating bool) {
		eng := churnEngine(b, net, cand, invalidating)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			releaseAndWarm(b, eng, cand)
			b.StopTimer()
			readmit(b, eng, cand)
			b.StartTimer()
		}
	}
	b.Run("Incremental", func(b *testing.B) { run(b, false) })
	b.Run("Invalidating", func(b *testing.B) { run(b, true) })
}

// TestReleaseSpeedup enforces the release acceptance bar in the regular
// test run: on the 200-connection benchmark fabric the incremental
// removal must be at least 5x faster than the baseline-invalidating
// removal. Wall-clock minima over a few rounds keep scheduler noise out
// of the ratio.
func TestReleaseSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test skipped in -short mode")
	}
	net, cand := benchNetwork(t)
	incr := churnEngine(t, net, cand, false)
	inval := churnEngine(t, net, cand, true)

	minDur := func(eng *Engine) time.Duration {
		best := time.Duration(1<<62 - 1)
		for r := 0; r < 3; r++ {
			start := time.Now()
			releaseAndWarm(t, eng, cand)
			if d := time.Since(start); d < best {
				best = d
			}
			readmit(t, eng, cand)
		}
		return best
	}
	full := minDur(inval)
	fast := minDur(incr)
	ratio := float64(full) / float64(fast)
	t.Logf("invalidating %v, incremental %v, speedup %.1fx", full, fast, ratio)
	if ratio < 5 {
		t.Fatalf("release speedup %.1fx below the 5x acceptance bar (invalidating %v, incremental %v)", ratio, full, fast)
	}
	st := incr.Stats()
	if st.IncrementalReleases == 0 {
		t.Fatalf("incremental engine never took the shrink path: %+v", st)
	}
	if st := inval.Stats(); st.IncrementalReleases != 0 {
		t.Fatalf("invalidating engine took the shrink path: %+v", st)
	}
}

// TestIncrementalSpeedup enforces the acceptance bar in the regular test
// run: on the 200-connection benchmark fabric the incremental test must be
// at least 5x faster than the full re-analysis. Wall-clock minima over a
// few rounds keep scheduler noise out of the ratio.
func TestIncrementalSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test skipped in -short mode")
	}
	net, cand := benchNetwork(t)
	ctrl := fullController(t, net)
	eng := warmEngine(t, net, cand)

	minDur := func(f func()) time.Duration {
		best := time.Duration(1<<62 - 1)
		for r := 0; r < 3; r++ {
			start := time.Now()
			f()
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	full := minDur(func() {
		if d, err := ctrl.Test(cand); err != nil || !d.Admitted {
			t.Fatalf("full test failed: %+v %v", d, err)
		}
	})
	incr := minDur(func() {
		if d, err := eng.Test(cand); err != nil || !d.Admitted {
			t.Fatalf("incremental test failed: %+v %v", d, err)
		}
	})
	ratio := float64(full) / float64(incr)
	t.Logf("full %v, incremental %v, speedup %.1fx", full, incr, ratio)
	if ratio < 5 {
		t.Fatalf("incremental speedup %.1fx below the 5x acceptance bar (full %v, incremental %v)", ratio, full, incr)
	}
}

// seed installs conns as the admitted set in one commit with no
// baselines, partitioned into components — the state a long-running
// daemon reaches, without paying one admission test per connection. conns
// must be a valid, stable network's connections.
func (e *Engine) seed(conns []topo.Connection) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cur := e.snap.Load()
	next := &Snapshot{eng: e, version: cur.version + 1, state: state{owner: make([]*component, len(e.servers))}}
	view := analysis.Components(&topo.Network{Servers: e.servers, Connections: conns})
	members := make([][]int, view.Count)
	for i, c := range view.Conn {
		members[c] = append(members[c], i)
	}
	for _, idx := range members {
		cc := make([]topo.Connection, len(idx))
		seqs := make([]uint64, len(idx))
		for k, i := range idx {
			cc[k], seqs[k] = conns[i], uint64(i)
		}
		comp := newComponent(cc, seqs, nil)
		for _, s := range comp.servers {
			next.owner[s] = comp
		}
	}
	next.admitted = append([]topo.Connection(nil), conns...)
	next.seqs = make([]uint64, len(conns))
	for i := range next.seqs {
		next.seqs[i] = uint64(i)
	}
	next.nextSeq = uint64(len(conns))
	e.snap.Store(next)
}
