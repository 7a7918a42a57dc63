// Independent-subnetwork extraction.
//
// The paper's chain decomposition only couples servers that share through
// traffic: a chain link s->t exists because some connection traverses s and
// t consecutively, and AffectedSet closures only spread along shared
// servers. Connections whose routes live in disjoint server-sharing
// components therefore have provably independent bounds — the contracted
// dependency graph never bridges them — which is why the admission
// engine uses components as its commit domains.
package analysis

import "delaycalc/internal/topo"

// ComponentView labels every connection and server of a network with the
// connected component of the server-sharing graph it belongs to. Two
// servers are in one component when some chain of routes links them (each
// route merges all servers it traverses); a connection's component is its
// route's component. Component ids are dense, assigned in order of first
// appearance over net.Connections, so the labeling is deterministic.
type ComponentView struct {
	// Count is the number of components that contain at least one
	// connection.
	Count int
	// Conn maps each connection index to its component id.
	Conn []int
	// Server maps each server index to its component id, or -1 for servers
	// no admitted connection traverses.
	Server []int
	// Sizes holds, per component id, the number of connections in it.
	Sizes []int
}

// Components computes the ComponentView of a network via union-find over
// the servers, one union per consecutive pair of route hops (unioning any
// two servers of a route is equivalent; consecutive pairs match the
// partitioner's edge relation). Out-of-range path entries are ignored —
// validation is the caller's concern, as elsewhere in this package.
func Components(net *topo.Network) ComponentView {
	n := len(net.Servers)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if ra > rb { // smaller index wins: deterministic roots
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	inRange := func(s int) bool { return s >= 0 && s < n }
	for _, c := range net.Connections {
		prev := -1
		for _, s := range c.Path {
			if !inRange(s) {
				continue
			}
			if prev >= 0 {
				union(prev, s)
			}
			prev = s
		}
	}
	view := ComponentView{
		Conn:   make([]int, len(net.Connections)),
		Server: make([]int, n),
	}
	for i := range view.Server {
		view.Server[i] = -1
	}
	id := make(map[int]int) // union-find root -> dense component id
	for i, c := range net.Connections {
		root := -1
		for _, s := range c.Path {
			if inRange(s) {
				root = find(s)
				break
			}
		}
		if root < 0 {
			// A connection with no valid hop shares nothing; give it its
			// own component so callers never see a bridge that isn't there.
			view.Conn[i] = view.Count
			view.Sizes = append(view.Sizes, 1)
			view.Count++
			continue
		}
		comp, ok := id[root]
		if !ok {
			comp = view.Count
			id[root] = comp
			view.Sizes = append(view.Sizes, 0)
			view.Count++
		}
		view.Conn[i] = comp
		view.Sizes[comp]++
		for _, s := range c.Path {
			if inRange(s) {
				view.Server[find(s)] = comp
			}
		}
	}
	// Propagate the root labels to every member server.
	for s := 0; s < n; s++ {
		if r := find(s); view.Server[r] >= 0 {
			view.Server[s] = view.Server[r]
		}
	}
	return view
}
