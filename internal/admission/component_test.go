package admission

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"delaycalc/internal/analysis"
	"delaycalc/internal/server"
	"delaycalc/internal/topo"
)

// componentCheck asserts the engine's structural invariants: its commit
// domains are exactly the admitted set's components, the admitted set is
// name-for-name the controller's (same global commit order), and the
// per-component utilization equals the whole network's bit for bit.
func componentCheck(t *testing.T, label string, eng *Engine, ctrl *Controller) {
	t.Helper()
	got, want := eng.Admitted(), ctrl.Admitted()
	if len(got) != len(want) {
		t.Fatalf("%s: engine holds %d connections, controller %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Name != want[i].Name {
			t.Fatalf("%s: commit order diverged at %d: engine %q, controller %q", label, i, got[i].Name, want[i].Name)
		}
	}
	net := &topo.Network{Servers: eng.Servers(), Connections: got}
	if n, w := eng.Snapshot().Components(), analysis.Components(net).Count; n != w {
		t.Fatalf("%s: engine has %d components, the admitted set %d", label, n, w)
	}
	wu, gu := net.Utilization(), eng.Utilization()
	for s := range wu {
		if wu[s] != gu[s] {
			t.Fatalf("%s: server %d utilization %v, whole network %v", label, s, gu[s], wu[s])
		}
	}
}

// warm reports whether every component of the snapshot has a
// materialized baseline.
func warm(s *Snapshot) bool {
	for _, c := range s.components() {
		if c.cachedBaseline() == nil {
			return false
		}
	}
	return true
}

// diffOp is one step of a differential schedule: an admission, a release,
// or a batch envelope.
type diffOp struct {
	admit   *topo.Connection
	release string
	batch   []Op
}

// driveComponents replays a schedule through an Engine and a Controller
// (sequential admits and releases standing in for each envelope) and
// requires every decision — Admitted, Code, Reason, Violations and the
// full Bounds vector, bitwise — to match, with a probe test after every
// step and the component invariants checked throughout.
func driveComponents(t *testing.T, label string, analyzer analysis.Analyzer, servers []server.Server, probe topo.Connection, ops []diffOp) {
	t.Helper()
	eng, err := NewEngine(servers, analyzer)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := New(servers, analyzer)
	if err != nil {
		t.Fatal(err)
	}
	same := func(step string, wd Decision, werr error, gd Decision, gerr error) {
		t.Helper()
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("%s: error diverged: controller %v, engine %v", step, werr, gerr)
		}
		requireSameDecision(t, step, wd, gd)
	}
	for i, op := range ops {
		step := fmt.Sprintf("%s/step%d", label, i)
		switch {
		case op.admit != nil:
			wd, werr := ctrl.Admit(*op.admit)
			gd, gerr := eng.Admit(*op.admit)
			same(step+"/admit "+op.admit.Name, wd, werr, gd, gerr)
		case op.release != "":
			_, ok := eng.Release(op.release)
			if want := ctrl.Remove(op.release); ok != want {
				t.Fatalf("%s: release %q: engine %v, controller %v", step, op.release, ok, want)
			}
		default:
			br, err := eng.ApplyBatch(context.Background(), op.batch)
			if err != nil {
				t.Fatalf("%s: batch: %v", step, err)
			}
			for k, bop := range op.batch {
				res := br.Results[k]
				if bop.Kind == OpRelease {
					if want := ctrl.Remove(bop.Name); res.Released != want {
						t.Fatalf("%s: batch release %q: engine %v, controller %v", step, bop.Name, res.Released, want)
					}
					continue
				}
				wd, werr := ctrl.Admit(bop.Candidate)
				same(fmt.Sprintf("%s/batch%d %s", step, k, bop.Candidate.Name), wd, werr, res.Decision, res.Err)
			}
		}
		componentCheck(t, step, eng, ctrl)
		wd, werr := ctrl.Test(probe)
		gd, gerr := eng.Test(probe)
		same(step+"/probe", wd, werr, gd, gerr)
	}
}

// schedule draws a random differential schedule over a candidate pool:
// admissions (fresh names), releases of admitted names (and of unknown
// ones), and small envelopes mixing both. Bridging candidates in the pool
// merge components; releasing them splits components again.
func schedule(rng *rand.Rand, pool []topo.Connection, steps int) []diffOp {
	var ops []diffOp
	var live []string
	next := 0
	admit := func() topo.Connection {
		c := pool[rng.Intn(len(pool))]
		c.Name = fmt.Sprintf("%s#%d", c.Name, next)
		next++
		live = append(live, c.Name)
		return c
	}
	release := func() string {
		if len(live) == 0 || rng.Intn(8) == 0 {
			return "ghost"
		}
		i := rng.Intn(len(live))
		name := live[i]
		live = append(live[:i], live[i+1:]...)
		return name
	}
	for len(ops) < steps {
		switch r := rng.Intn(8); {
		case r < 4:
			c := admit()
			ops = append(ops, diffOp{admit: &c})
		case r < 6:
			ops = append(ops, diffOp{release: release()})
		default:
			var batch []Op
			for k := 2 + rng.Intn(3); k > 0; k-- {
				if rng.Intn(3) == 0 {
					batch = append(batch, Op{Kind: OpRelease, Name: release()})
				} else {
					batch = append(batch, Op{Kind: OpAdmit, Candidate: admit()})
				}
			}
			ops = append(ops, diffOp{batch: batch})
		}
	}
	return ops
}

// blockPool returns the connections of a disjoint-block fabric plus
// bridging candidates from each block's last server into the next block's
// first (forward edges only, so every union stays feedforward).
func blockPool(t *testing.T, blocks, switches int, load, deadline float64) (*topo.Network, []topo.Connection) {
	t.Helper()
	net, err := topo.DisjointBlocks(blocks, switches, load)
	if err != nil {
		t.Fatal(err)
	}
	pool := append([]topo.Connection(nil), net.Connections...)
	for b := 0; b+1 < blocks; b++ {
		bridge := net.Connections[0]
		bridge.Name = fmt.Sprintf("bridge%d", b)
		bridge.Path = []int{(b+1)*switches - 1, (b + 1) * switches}
		pool = append(pool, bridge)
	}
	for i := range pool {
		pool[i].Deadline = deadline
	}
	return net, pool
}

// TestShardedMatchesEngineOnRandomNetworks is the differential acceptance
// suite of the component engine over multi-component random networks: the
// full decision (bounds bitwise) must match the Controller's at every step
// of random admit/release/batch schedules, for both incremental analyzers.
// (The name predates the component engine, which replaced the engine
// shards this test used to compare.)
func TestShardedMatchesEngineOnRandomNetworks(t *testing.T) {
	for _, analyzer := range []analysis.Analyzer{analysis.Integrated{}, analysis.Decomposed{}} {
		for seed := int64(0); seed < 26; seed++ {
			net, err := topo.RandomFeedforward(10, 9, 0.6, seed)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed * 31))
			for i := range net.Connections {
				switch rng.Intn(4) {
				case 0:
					net.Connections[i].Deadline = 1 + 4*rng.Float64()
				case 1:
					net.Connections[i].Deadline = 0 // invalid: exercises the error path
				default:
					net.Connections[i].Deadline = 100
				}
			}
			probe := net.Connections[0]
			probe.Name, probe.Deadline = "probe", 100
			driveComponents(t, fmt.Sprintf("%s/seed%d", analyzer.Name(), seed), analyzer, net.Servers, probe,
				schedule(rng, net.Connections, 30))
		}
	}
}

// TestShardedMatchesEngineOnFabrics runs the component differential over
// disjoint-block fabrics with bridging candidates — merges of two blocks'
// components, splits when a bridge is released, and envelopes straddling
// blocks — plus a connected fat-tree where every admission lands in one
// growing component.
func TestShardedMatchesEngineOnFabrics(t *testing.T) {
	if testing.Short() {
		t.Skip("fabric differential skipped in -short")
	}
	for seed := int64(0); seed < 4; seed++ {
		net, pool := blockPool(t, 4, 3, 0.5, 60)
		probe := pool[len(pool)-1]
		probe.Name = "probe"
		driveComponents(t, fmt.Sprintf("blocks4x3/seed%d", seed), analysis.Integrated{}, net.Servers, probe,
			schedule(rand.New(rand.NewSource(seed)), pool, 40))
	}
	ft, err := topo.FatTree(2, 2, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ft.Connections {
		ft.Connections[i].Deadline = 100
	}
	driveComponents(t, "fattree2", analysis.Integrated{}, ft.Servers, ft.Connections[0],
		schedule(rand.New(rand.NewSource(7)), ft.Connections, 30))
}

// TestShardedDisjointStaysLocal pins the commit-domain premise: admissions
// and releases in one block of a disjoint fabric never replace another
// block's component, so that component's baseline is never rebuilt or
// re-extended, and no commit conflicts.
func TestShardedDisjointStaysLocal(t *testing.T) {
	net, err := topo.DisjointBlocks(4, 3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(net.Servers, analysis.Integrated{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range net.Connections {
		net.Connections[i].Deadline = 1000
		if d, err := eng.Admit(net.Connections[i]); err != nil || !d.Admitted {
			t.Fatalf("admit %s: %+v err=%v", net.Connections[i].Name, d, err)
		}
	}
	if n := eng.Snapshot().Components(); n != 4 {
		t.Fatalf("%d components, want one per block", n)
	}
	other := eng.Snapshot().owner[len(net.Servers)-1] // block 3
	epoch := eng.Stats().BaselineEpoch
	for i := 0; i < 6; i++ {
		cand := net.Connections[i%2] // block 0
		cand.Name = fmt.Sprintf("local%d", i)
		d, err := eng.Admit(cand)
		if err != nil || !d.Admitted {
			t.Fatalf("admit %s: %+v err=%v", cand.Name, d, err)
		}
		if len(d.Bounds) != eng.Count() {
			t.Fatalf("decision carries %d bounds, want one per admitted connection (%d)", len(d.Bounds), eng.Count())
		}
		if _, ok := eng.Release(cand.Name); !ok {
			t.Fatalf("release %s", cand.Name)
		}
	}
	if eng.Snapshot().owner[len(net.Servers)-1] != other {
		t.Fatal("operations in block 0 replaced block 3's component")
	}
	// Each local admit promotes one extension and each release one shrink;
	// nothing rebuilds a component from scratch.
	if got := eng.Stats().BaselineEpoch - epoch; got != 12 {
		t.Fatalf("baseline epoch advanced by %d over 6 admit/release pairs, want 12", got)
	}
	if st := eng.Stats(); st.CommitConflicts != 0 || st.FullTests != 0 {
		t.Fatalf("disjoint workload: %+v", st)
	}
}

// TestShardedCrossShardMergeAndRebalance walks the component life cycle:
// a bridging connection merges two blocks' components into one commit
// domain, releasing it splits them again, and each part re-promotes its
// own baseline in the background.
func TestShardedCrossShardMergeAndRebalance(t *testing.T) {
	net, pool := blockPool(t, 2, 2, 0.3, 1000)
	eng, err := NewEngine(net.Servers, analysis.Integrated{})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := New(net.Servers, analysis.Integrated{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range net.Connections {
		c.Deadline = 1000
		wd, _ := ctrl.Admit(c)
		gd, err := eng.Admit(c)
		if err != nil || !gd.Admitted {
			t.Fatalf("admit %s: %+v err=%v", c.Name, gd, err)
		}
		requireSameDecision(t, "setup/"+c.Name, wd, gd)
	}
	if n := eng.Snapshot().Components(); n != 2 {
		t.Fatalf("setup: %d components, want 2", n)
	}

	bridge := pool[len(pool)-1]
	wd, _ := ctrl.Admit(bridge)
	gd, err := eng.Admit(bridge)
	if err != nil || !gd.Admitted {
		t.Fatalf("bridge admit: %+v err=%v", gd, err)
	}
	requireSameDecision(t, "bridge", wd, gd)
	if n := eng.Snapshot().Components(); n != 1 {
		t.Fatalf("bridge left %d components, want 1", n)
	}
	componentCheck(t, "merged", eng, ctrl)

	info, ok := eng.Release(bridge.Name)
	ctrl.Remove(bridge.Name)
	if !ok || info.Incremental {
		t.Fatalf("bridge release: ok=%v info=%+v, want a compacting split", ok, info)
	}
	if n := eng.Snapshot().Components(); n != 2 {
		t.Fatalf("releasing the bridge left %d components, want 2", n)
	}
	componentCheck(t, "split", eng, ctrl)
	deadline := time.Now().Add(10 * time.Second)
	for !warm(eng.Snapshot()) {
		if time.Now().After(deadline) {
			t.Fatal("the split parts never re-promoted their baselines")
		}
		time.Sleep(5 * time.Millisecond)
	}
	probe := net.Connections[0]
	probe.Name, probe.Deadline = "probe", 1000
	wd, werr := ctrl.Test(probe)
	gd, gerr := eng.Test(probe)
	if werr != nil || gerr != nil {
		t.Fatalf("probe: %v / %v", werr, gerr)
	}
	requireSameDecision(t, "probe", wd, gd)
}

// TestShardedDuplicateNameRejected pins global name uniqueness across
// commit domains: a name admitted in one component is a duplicate in any
// other, also when two admissions of one name race on disjoint components
// (exactly one may commit).
func TestShardedDuplicateNameRejected(t *testing.T) {
	net, err := topo.DisjointBlocks(2, 2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(net.Servers, analysis.Integrated{})
	if err != nil {
		t.Fatal(err)
	}
	cand := net.Connections[0]
	cand.Deadline = 1000
	if d, err := eng.Admit(cand); err != nil || !d.Admitted {
		t.Fatalf("first admit: %+v err=%v", d, err)
	}
	dup := cand
	dup.Path = []int{2, 3} // the other block
	d, err := eng.Admit(dup)
	if err == nil || d.Admitted || d.Code != CodeInvalidSpec {
		t.Fatalf("duplicate admit: %+v err=%v, want invalid_spec rejection", d, err)
	}

	for round := 0; round < 50; round++ {
		a, b := cand, dup
		a.Name = fmt.Sprintf("race%d", round)
		b.Name = a.Name
		var wg sync.WaitGroup
		var admitted [2]bool
		for k, c := range []topo.Connection{a, b} {
			wg.Add(1)
			go func(k int, c topo.Connection) {
				defer wg.Done()
				d, _ := eng.Admit(c)
				admitted[k] = d.Admitted
			}(k, c)
		}
		wg.Wait()
		if admitted[0] == admitted[1] {
			t.Fatalf("round %d: racing admissions of one name: admitted %v", round, admitted)
		}
		eng.Release(a.Name)
	}
	if eng.Count() != 1 {
		t.Fatalf("count %d, want 1", eng.Count())
	}
}

// TestShardedConcurrentMixedOps is the -race stress on disjoint
// components: one writer per block admits, tests, releases and batches
// concurrently. Commits on disjoint components never conflict, so the
// engine must report zero commit conflicts, and the final set must match
// a fresh controller's full analysis.
func TestShardedConcurrentMixedOps(t *testing.T) {
	const blocks = 4
	net, err := topo.DisjointBlocks(blocks, 3, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(net.Servers, analysis.Integrated{})
	if err != nil {
		t.Fatal(err)
	}
	perBlock := len(net.Connections) / blocks
	var wg sync.WaitGroup
	for b := 0; b < blocks; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			own := net.Connections[b*perBlock : (b+1)*perBlock]
			for i := 0; i < 12; i++ {
				c := own[i%len(own)]
				c.Name = fmt.Sprintf("b%d-%d", b, i)
				c.Deadline = 1000
				if _, err := eng.Admit(c); err != nil {
					t.Errorf("admit %s: %v", c.Name, err)
					return
				}
				eng.Test(c)
				switch i % 3 {
				case 1:
					eng.Release(fmt.Sprintf("b%d-%d", b, i-1))
				case 2:
					x := own[(i+1)%len(own)]
					x.Name = fmt.Sprintf("b%d-x%d", b, i)
					x.Deadline = 1000
					if _, err := eng.ApplyBatch(context.Background(), []Op{
						{Kind: OpAdmit, Candidate: x},
						{Kind: OpRelease, Name: c.Name},
					}); err != nil {
						t.Errorf("batch: %v", err)
						return
					}
				}
				eng.ReadView()
				eng.Stats()
			}
		}(b)
	}
	wg.Wait()
	if st := eng.Stats(); st.CommitConflicts != 0 {
		t.Fatalf("disjoint writers conflicted %d times", st.CommitConflicts)
	}
	ctrl, err := New(net.Servers, analysis.Integrated{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range eng.Admitted() {
		ctrl.admitted = append(ctrl.admitted, c)
	}
	componentCheck(t, "final", eng, ctrl)
	probe := net.Connections[0]
	probe.Name, probe.Deadline = "probe", 1000
	wd, _ := ctrl.Test(probe)
	gd, _ := eng.Test(probe)
	requireSameDecision(t, "final probe", wd, gd)
}

// TestRetryBoundedUnderContention hammers one component from many
// goroutines with admissions, releases and batch envelopes, all through
// the engine's one write loop: every operation — an envelope counts as one
// — must finish within maxConflicts+1 attempts (the last under a
// reservation of what it can reach), and the conflict counter must count
// every retry.
func TestRetryBoundedUnderContention(t *testing.T) {
	net, err := topo.PaperTandem(3, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(net.Servers, analysis.Integrated{})
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 12
	var (
		mu      sync.Mutex
		retries int
		worst   int
		wg      sync.WaitGroup
	)
	write := func(ops ...Op) {
		br, attempts, err := eng.write(context.Background(), nil, ops)
		if err == nil {
			for _, r := range br.Results {
				err = errors.Join(err, r.Err)
			}
		}
		if err != nil {
			t.Errorf("%+v: %v", ops, err)
		}
		mu.Lock()
		defer mu.Unlock()
		retries += attempts - 1
		worst = max(worst, attempts)
	}
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c := net.Connections[i%len(net.Connections)]
				c.Name = fmt.Sprintf("w%d-%d", g, i)
				c.Deadline = 1000
				write(Op{Kind: OpAdmit, Candidate: c})
				if i%2 == 1 {
					write(Op{Kind: OpRelease, Name: fmt.Sprintf("w%d-%d", g, i-1)})
				}
				if i%3 == 2 {
					// One envelope swaps the connection for a copy.
					swap := c
					swap.Name += "b"
					write(Op{Kind: OpAdmit, Candidate: swap}, Op{Kind: OpRelease, Name: c.Name})
				}
			}
		}(g)
	}
	wg.Wait()
	if worst > maxConflicts+1 {
		t.Fatalf("an operation took %d attempts, bound is %d", worst, maxConflicts+1)
	}
	if got := eng.Stats().CommitConflicts; got != uint64(retries) {
		t.Fatalf("commit_conflicts %d, operations retried %d times", got, retries)
	}
	t.Logf("%d retries, worst operation %d attempts", retries, worst)
}

// TestReleaseWarmRace is the -race regression for background
// re-promotion: hammering admit/release on one component with compaction
// forced (threshold < 0 disables incremental release) must be race-clean,
// and the single-owner warmer must leave every component of the final
// snapshot with a baseline.
func TestReleaseWarmRace(t *testing.T) {
	net, err := topo.PaperTandem(3, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(net.Servers, analysis.Integrated{})
	if err != nil {
		t.Fatal(err)
	}
	eng.compactFrac = -1 // every release compacts and schedules a warm

	const workers = 4
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				cand := net.Connections[0]
				cand.Name = fmt.Sprintf("w%d-%d", g, i)
				cand.Deadline = 1000
				if _, err := eng.Admit(cand); err != nil {
					t.Errorf("admit %s: %v", cand.Name, err)
					return
				}
				eng.Test(cand)
				eng.Release(cand.Name)
			}
		}(g)
	}
	wg.Wait()

	if eng.Count() != 0 {
		t.Fatalf("count %d after symmetric admit/release", eng.Count())
	}
	// A compacting release that leaves a survivor schedules a warm of the
	// final snapshot; the single-owner warmer must converge on it.
	for _, name := range []string{"keep", "last"} {
		cand := net.Connections[0]
		cand.Name, cand.Deadline = name, 1000
		if _, err := eng.Admit(cand); err != nil {
			t.Fatal(err)
		}
	}
	if info, ok := eng.Release("last"); !ok || info.Incremental {
		t.Fatalf("release: ok=%v %+v, want a compaction", ok, info)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !warm(eng.Snapshot()) {
		if time.Now().After(deadline) {
			t.Fatal("background warmer never promoted the final snapshot's baseline")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
