package admission

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"delaycalc/internal/analysis"
	"delaycalc/internal/topo"
)

// TestShardedApplyBatchMatchesSequential replays random envelopes that
// straddle the blocks of a disjoint fabric — bridging admits included —
// through one engine and the same operations one at a time through a
// second: every decision must match in full, bounds bitwise, and both must
// end with the same admitted set in the same commit order.
func TestShardedApplyBatchMatchesSequential(t *testing.T) {
	seeds := int64(12)
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(0); seed < seeds; seed++ {
		net, pool := blockPool(t, 4, 3, 0.5, 60)
		seq, err := NewEngine(net.Servers, analysis.Integrated{})
		if err != nil {
			t.Fatal(err)
		}
		bat, err := NewEngine(net.Servers, analysis.Integrated{})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed * 13))
		for i, op := range schedule(rng, pool, 40) {
			env := op.batch
			switch {
			case op.admit != nil:
				env = []Op{{Kind: OpAdmit, Candidate: *op.admit}}
			case op.release != "":
				env = []Op{{Kind: OpRelease, Name: op.release}}
			}
			br, err := bat.ApplyBatch(context.Background(), env)
			if err != nil {
				t.Fatalf("seed%d: ApplyBatch: %v", seed, err)
			}
			for k, o := range env {
				step := fmt.Sprintf("seed%d/env%d/op%d", seed, i, k)
				if o.Kind == OpRelease {
					if _, ok := seq.Release(o.Name); ok != br.Results[k].Released {
						t.Fatalf("%s: release %q: sequential %v, batch %v", step, o.Name, ok, br.Results[k].Released)
					}
					continue
				}
				want, werr := seq.Admit(o.Candidate)
				if (werr == nil) != (br.Results[k].Err == nil) {
					t.Fatalf("%s: error diverged: sequential %v, batch %v", step, werr, br.Results[k].Err)
				}
				requireSameDecision(t, step, want, br.Results[k].Decision)
			}
		}
		a, b := seq.Admitted(), bat.Admitted()
		if len(a) != len(b) {
			t.Fatalf("seed%d: sequential holds %d, batch %d", seed, len(a), len(b))
		}
		for i := range a {
			if a[i].Name != b[i].Name {
				t.Fatalf("seed%d: commit order diverged at %d: %q vs %q", seed, i, a[i].Name, b[i].Name)
			}
		}
	}
}

// TestShardedBatchSingleCommitPerShard pins the pipelining invariant over
// commit domains: an envelope straddling every block of a disjoint fabric
// commits exactly once, and a read-only envelope not at all.
func TestShardedBatchSingleCommitPerShard(t *testing.T) {
	net, err := topo.DisjointBlocks(4, 3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(net.Servers, analysis.Integrated{})
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]Op, 0, len(net.Connections))
	for i := range net.Connections {
		net.Connections[i].Deadline = 1000
		ops = append(ops, Op{Kind: OpAdmit, Candidate: net.Connections[i]})
	}
	before := eng.Snapshot().Version()
	br, err := eng.ApplyBatch(context.Background(), ops)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range br.Results {
		if !r.Decision.Admitted {
			t.Fatalf("op %d not admitted: %+v", i, r.Decision)
		}
	}
	if br.Commits != 1 || eng.Snapshot().Version() != before+1 {
		t.Fatalf("straddling envelope: %d commits, version %d -> %d", br.Commits, before, eng.Snapshot().Version())
	}
	if n := eng.Snapshot().Components(); n != 4 {
		t.Fatalf("%d components after the envelope, want 4", n)
	}
	if !warm(eng.Snapshot()) {
		t.Fatal("every component of the envelope should carry its promoted baseline")
	}
	// Duplicate admits and ghost releases are rejected per-op with the
	// sequential decisions, without committing anything.
	before = eng.Snapshot().Version()
	br, err = eng.ApplyBatch(context.Background(), []Op{
		{Kind: OpAdmit, Candidate: net.Connections[0]},
		{Kind: OpRelease, Name: "ghost"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if br.Results[0].Decision.Code != CodeInvalidSpec || br.Results[0].Err == nil {
		t.Fatalf("duplicate admit not rejected: %+v", br.Results[0])
	}
	if br.Results[1].Released {
		t.Fatal("ghost release reported found")
	}
	if br.Commits != 0 || eng.Snapshot().Version() != before {
		t.Fatalf("read-only envelope committed (commits=%d)", br.Commits)
	}
}

// TestShardedBatchCrossAdmit drives an envelope whose middle admit bridges
// two blocks: the prefix extends one component, the bridge merges both,
// the suffix extends the merged one, all in one commit, and everything
// admitted stays individually releasable.
func TestShardedBatchCrossAdmit(t *testing.T) {
	net, pool := blockPool(t, 2, 2, 0.3, 1000)
	eng, err := NewEngine(net.Servers, analysis.Integrated{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range net.Connections {
		c.Deadline = 1000
		if d, err := eng.Admit(c); err != nil || !d.Admitted {
			t.Fatalf("setup admit %s: %+v err=%v", c.Name, d, err)
		}
	}
	bridge := pool[len(pool)-1]
	extraA := net.Connections[0]
	extraA.Name, extraA.Deadline = "extraA", 1000
	extraB := net.Connections[len(net.Connections)-1]
	extraB.Name, extraB.Deadline = "extraB", 1000
	before := eng.Snapshot().Version()
	br, err := eng.ApplyBatch(context.Background(), []Op{
		{Kind: OpAdmit, Candidate: extraA},
		{Kind: OpAdmit, Candidate: bridge},
		{Kind: OpAdmit, Candidate: extraB},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range br.Results {
		if !r.Decision.Admitted {
			t.Fatalf("op %d not admitted: %+v err=%v", i, r.Decision, r.Err)
		}
	}
	if eng.Snapshot().Version() != before+1 || eng.Snapshot().Components() != 1 {
		t.Fatalf("bridging envelope: version %d -> %d, %d components",
			before, eng.Snapshot().Version(), eng.Snapshot().Components())
	}
	if eng.Count() != len(net.Connections)+3 {
		t.Fatalf("count %d, want %d", eng.Count(), len(net.Connections)+3)
	}
	for _, name := range []string{"extraA", bridge.Name, "extraB"} {
		if _, ok := eng.Release(name); !ok {
			t.Fatalf("lost %q after the bridging envelope", name)
		}
	}
	if n := eng.Snapshot().Components(); n != 2 {
		t.Fatalf("%d components after releasing the bridge, want 2", n)
	}
}

// TestShardedBatchReleaseReadmit pins strict in-envelope ordering: an
// envelope that releases a name and then re-admits it resolves like the
// sequential path (release first, fresh admit after), not as a duplicate
// rejection; the re-admitted connection moves to the end of commit order.
func TestShardedBatchReleaseReadmit(t *testing.T) {
	net, err := topo.DisjointBlocks(2, 2, 0.3)
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
			t.Fatalf("setup admit: %+v err=%v", d, err)
		}
	}
	name := net.Connections[0].Name
	br, err := eng.ApplyBatch(context.Background(), []Op{
		{Kind: OpRelease, Name: name},
		{Kind: OpAdmit, Candidate: net.Connections[0]},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !br.Results[0].Released {
		t.Fatalf("release of %q not found", name)
	}
	if !br.Results[1].Decision.Admitted {
		t.Fatalf("re-admit of %q rejected: %+v err=%v", name, br.Results[1].Decision, br.Results[1].Err)
	}
	admitted := eng.Admitted()
	if len(admitted) != len(net.Connections) || admitted[len(admitted)-1].Name != name {
		t.Fatalf("re-admitted %q should be last in commit order: %d connections", name, len(admitted))
	}
	if _, ok := eng.Release(name); !ok {
		t.Fatalf("lost %q after release+readmit envelope", name)
	}
}

// TestShardedBatchStraddlesRebalance runs envelopes whose releases split a
// component (a bridge between two blocks comes and goes) and whose admits
// merge it again, concurrently with envelopes on a third block. Run under
// -race; the assertions are pure invariants so interleavings are free.
func TestShardedBatchStraddlesRebalance(t *testing.T) {
	net, pool := blockPool(t, 3, 3, 0.3, 1000)
	eng, err := NewEngine(net.Servers, analysis.Integrated{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range net.Connections {
		c.Deadline = 1000
		if d, err := eng.Admit(c); err != nil || !d.Admitted {
			t.Fatalf("setup admit %s: %+v err=%v", c.Name, d, err)
		}
	}
	bridge := pool[len(pool)-2] // blocks 0 and 1
	perBlock := len(net.Connections) / 3
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			b := bridge
			b.Name = fmt.Sprintf("bridge-%d", i)
			local := net.Connections[i%perBlock]
			local.Name = fmt.Sprintf("local-%d", i)
			ops := []Op{{Kind: OpAdmit, Candidate: b}, {Kind: OpAdmit, Candidate: local}}
			if i > 0 {
				ops = append(ops, Op{Kind: OpRelease, Name: fmt.Sprintf("bridge-%d", i-1)})
			}
			if _, err := eng.ApplyBatch(context.Background(), ops); err != nil {
				t.Errorf("envelope %d: %v", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			c := net.Connections[2*perBlock+i%perBlock]
			c.Name = fmt.Sprintf("far-%d", i)
			ops := []Op{{Kind: OpAdmit, Candidate: c}}
			if i > 0 {
				ops = append(ops, Op{Kind: OpRelease, Name: fmt.Sprintf("far-%d", i-1)})
			}
			if _, err := eng.ApplyBatch(context.Background(), ops); err != nil {
				t.Errorf("far envelope %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
	ctrl, err := New(net.Servers, analysis.Integrated{})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.admitted = eng.Admitted()
	componentCheck(t, "final", eng, ctrl)
	probe := net.Connections[0]
	probe.Name, probe.Deadline = "probe", 1000
	wd, _ := ctrl.Test(probe)
	gd, _ := eng.Test(probe)
	requireSameDecision(t, "final probe", wd, gd)
}
