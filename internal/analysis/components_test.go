package analysis

import (
	"fmt"
	"testing"

	"delaycalc/internal/server"
	"delaycalc/internal/topo"
)

func TestComponentsLabeling(t *testing.T) {
	// Two chains (0-1-2 via two overlapping routes, 3-4) and an untouched
	// server 5.
	net := &topo.Network{
		Servers: make([]server.Server, 6),
		Connections: []topo.Connection{
			{Name: "a", Path: []int{0, 1}},
			{Name: "b", Path: []int{3, 4}},
			{Name: "c", Path: []int{1, 2}},
		},
	}
	view := Components(net)
	if view.Count != 2 {
		t.Fatalf("count %d, want 2", view.Count)
	}
	if view.Conn[0] != 0 || view.Conn[1] != 1 || view.Conn[2] != 0 {
		t.Fatalf("conn labels %v, want [0 1 0]", view.Conn)
	}
	wantServer := []int{0, 0, 0, 1, 1, -1}
	for s, want := range wantServer {
		if view.Server[s] != want {
			t.Errorf("server %d label %d, want %d", s, view.Server[s], want)
		}
	}
	if view.Sizes[0] != 2 || view.Sizes[1] != 1 {
		t.Fatalf("sizes %v, want [2 1]", view.Sizes)
	}
}

func TestComponentsOnBuilders(t *testing.T) {
	// On a fat-tree the labeling must be a true partition: connections
	// sharing any server share a label, and distinct components touch
	// disjoint server sets. Disjoint blocks have exactly one component per
	// block, with every connection of block b labeled b (blocks appear in
	// order, so dense ids match block indices).
	ft, err := topo.FatTree(4, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	view := Components(ft)
	sum := 0
	for _, s := range view.Sizes {
		sum += s
	}
	if sum != len(ft.Connections) {
		t.Fatalf("component sizes sum to %d, want %d", sum, len(ft.Connections))
	}
	for i, a := range ft.Connections {
		for _, s := range a.Path {
			if view.Server[s] != view.Conn[i] {
				t.Fatalf("connection %d (component %d) traverses server %d of component %d",
					i, view.Conn[i], s, view.Server[s])
			}
		}
	}
	db, err := topo.DisjointBlocks(5, 3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	view = Components(db)
	if view.Count != 5 {
		t.Fatalf("disjoint-block components %d, want 5", view.Count)
	}
	perBlock := len(db.Connections) / 5
	for i := range db.Connections {
		if view.Conn[i] != i/perBlock {
			t.Fatalf("connection %d labeled %d, want %d", i, view.Conn[i], i/perBlock)
		}
	}
}

// componentCorpus returns block fabrics and multi-component random
// feedforward networks: the shapes the admission engine splits into
// commit domains.
func componentCorpus(t *testing.T) map[string]*topo.Network {
	t.Helper()
	nets := map[string]*topo.Network{}
	for i := 0; i < 20; i++ {
		blocks, load := 2+i%7, 0.3+0.02*float64(i)
		db, err := topo.DisjointBlocks(blocks, 3, load)
		if err != nil {
			t.Fatal(err)
		}
		nets[fmt.Sprintf("blocks%d-load%.2f", blocks, load)] = db
	}
	for seed, found := int64(1), 0; found < 50; seed++ {
		if seed > 5000 {
			t.Fatalf("only %d multi-component random networks in 5000 seeds", found)
		}
		net, err := topo.RandomFeedforward(10, 4+int(seed%5), 0.6, seed)
		if err != nil {
			t.Fatal(err)
		}
		if Components(net).Count < 2 {
			continue
		}
		nets[fmt.Sprintf("random-seed%d", seed)] = net
		found++
	}
	return nets
}

// TestComponentAnalysisMatchesWholeNetwork pins the invariant the
// admission engine's commit domains rest on: analyzing one component's
// connections (in their order) over the full server list yields bounds
// bit-identical to the whole network's analysis, for every incremental
// analyzer, through both the full analysis and a fresh baseline.
func TestComponentAnalysisMatchesWholeNetwork(t *testing.T) {
	for name, net := range componentCorpus(t) {
		view := Components(net)
		for _, a := range []Incremental{Decomposed{}, Integrated{}} {
			whole, err := a.Analyze(net)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, a.Name(), err)
			}
			for comp := 0; comp < view.Count; comp++ {
				sub := &topo.Network{Servers: net.Servers}
				var idx []int
				for i, c := range view.Conn {
					if c == comp {
						sub.Connections = append(sub.Connections, net.Connections[i])
						idx = append(idx, i)
					}
				}
				res, err := a.Analyze(sub)
				if err != nil {
					t.Fatalf("%s/%s component %d: %v", name, a.Name(), comp, err)
				}
				base, err := a.NewBaseline(sub)
				if err != nil {
					t.Fatalf("%s/%s component %d baseline: %v", name, a.Name(), comp, err)
				}
				for k, i := range idx {
					if res.Bounds[k] != whole.Bounds[i] || base.Bound(k) != whole.Bounds[i] {
						t.Fatalf("%s/%s: connection %d: whole %v, component analysis %v, component baseline %v",
							name, a.Name(), i, whole.Bounds[i], res.Bounds[k], base.Bound(k))
					}
				}
			}
		}
	}
}
