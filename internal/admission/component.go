// Components as commit domains.
//
// The paper's Integrated and Decomposed analyses couple two connections
// only through a chain of shared servers, so the admitted set splits into
// independent components (analysis.Components): an operation inside one
// component cannot change any bound in another. The engine therefore keeps
// one analysis baseline per component and analyzes, validates, and commits
// only the components an operation touches. Everything a commit replaces
// is a component object: components are immutable once a snapshot
// publishes them, so a component's identity is its version, and a commit
// is valid exactly when every component it read is still the current one.
package admission

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"delaycalc/internal/analysis"
	"delaycalc/internal/topo"
)

// component is one commit domain: a maximal set of admitted connections
// whose routes are linked through shared servers.
type component struct {
	conns []topo.Connection // commit order
	seqs  []uint64          // global commit stamps, parallel to conns
	// servers lists the servers the routes cross, ascending; load holds,
	// per entry, the member rates summed in commit order — the addends
	// topo.Network.Utilization sums for that server, in the same order.
	servers []int
	load    []float64
	// promoted is a baseline handed over by the commit that created the
	// component; baseOnce/base/baseErr lazily build one otherwise, with
	// baseReady flipping once a lazy build has succeeded so release can
	// peek without joining an in-flight build.
	promoted  *analysis.Baseline
	baseOnce  sync.Once
	base      *analysis.Baseline
	baseErr   error
	baseReady atomic.Bool
}

// baseline returns the component's analysis baseline, building it (one
// full analysis of the component) at most once. The component is analyzed
// over the full server list, so server indices — and bounds — match the
// whole network's.
func (c *component) baseline(e *Engine) (*analysis.Baseline, error) {
	if c.promoted != nil {
		return c.promoted, nil
	}
	c.baseOnce.Do(func() {
		// inc can be nil here when ForceFull raced a stale warm goroutine;
		// the guard keeps the component baseline-less instead of panicking.
		inc := e.inc
		if inc == nil {
			c.baseErr = fmt.Errorf("admission: incremental path disabled")
			return
		}
		c.base, c.baseErr = inc.NewBaseline(&topo.Network{Servers: e.servers, Connections: c.conns})
		if c.baseErr == nil {
			e.epoch.Add(1)
			c.baseReady.Store(true)
		}
	})
	return c.base, c.baseErr
}

// cachedBaseline returns the component's baseline only if one is already
// materialized. It never builds one: the release path must not pay a full
// analysis just to shrink it.
func (c *component) cachedBaseline() *analysis.Baseline {
	if c.promoted != nil {
		return c.promoted
	}
	if c.baseReady.Load() {
		return c.base
	}
	return nil
}

// index returns the position of the member with commit stamp seq.
func (c *component) index(seq uint64) int {
	return sort.Search(len(c.seqs), func(i int) bool { return c.seqs[i] >= seq })
}

// newComponent builds a component from members in commit order and
// computes its per-server loads.
func newComponent(conns []topo.Connection, seqs []uint64, promoted *analysis.Baseline) *component {
	c := &component{conns: conns, seqs: seqs, promoted: promoted}
	at := map[int]int{}
	for _, conn := range conns {
		for _, s := range conn.Path {
			if _, ok := at[s]; !ok {
				at[s] = 0
				c.servers = append(c.servers, s)
			}
		}
	}
	sort.Ints(c.servers)
	for i, s := range c.servers {
		at[s] = i
	}
	c.load = make([]float64, len(c.servers))
	for _, conn := range conns {
		for _, s := range conn.Path {
			c.load[at[s]] += conn.Bucket.Rho
		}
	}
	return c
}

// merged returns the union of the given components' members in commit
// order.
func merged(comps []*component) ([]topo.Connection, []uint64) {
	if len(comps) == 1 {
		return comps[0].conns, comps[0].seqs
	}
	n := 0
	for _, c := range comps {
		n += len(c.conns)
	}
	conns := make([]topo.Connection, 0, n)
	seqs := make([]uint64, 0, n)
	pos := make([]int, len(comps))
	for len(conns) < n {
		best := -1
		for k, c := range comps {
			if pos[k] < len(c.seqs) && (best < 0 || c.seqs[pos[k]] < comps[best].seqs[pos[best]]) {
				best = k
			}
		}
		conns = append(conns, comps[best].conns[pos[best]])
		seqs = append(seqs, comps[best].seqs[pos[best]])
		pos[best]++
	}
	return conns, seqs
}

// withMember returns the component extended by one connection appended in
// commit order. The per-server loads carry over and gain the member's rate
// last, exactly as a from-scratch sum over the new member list would.
func (c *component) withMember(conn topo.Connection, seq uint64, promoted *analysis.Baseline) *component {
	n := len(c.conns)
	next := &component{
		conns:    append(c.conns[:n:n], conn),
		seqs:     append(c.seqs[:n:n], seq),
		promoted: promoted,
	}
	next.servers = append([]int(nil), c.servers...)
	for _, s := range conn.Path {
		if i := sort.SearchInts(next.servers, s); i == len(next.servers) || next.servers[i] != s {
			next.servers = append(next.servers, 0)
			copy(next.servers[i+1:], next.servers[i:])
			next.servers[i] = s
		}
	}
	next.load = make([]float64, len(next.servers))
	for i, j := 0, 0; i < len(next.servers); i++ {
		if j < len(c.servers) && c.servers[j] == next.servers[i] {
			next.load[i] = c.load[j]
			j++
		}
	}
	for _, s := range conn.Path {
		next.load[sort.SearchInts(next.servers, s)] += conn.Bucket.Rho
	}
	return next
}

// withoutMember returns the component without its member at index i, or
// nil when the removal may disconnect it: some route edge (consecutive hop
// pair) of the removed member lies on no survivor's route. The loads of
// the servers the removed route crossed are re-summed over the survivors
// in commit order; every other server keeps its addends and its sum.
func (c *component) withoutMember(i int) *component {
	gone := c.conns[i].Path
	for k := 0; k+1 < len(gone); k++ {
		shared := false
		for j := 0; j < len(c.conns) && !shared; j++ {
			shared = j != i && hasEdge(c.conns[j].Path, gone[k], gone[k+1])
		}
		if !shared {
			return nil
		}
	}
	n := len(c.conns)
	next := &component{
		conns: append(c.conns[:i:i], c.conns[i+1:n]...),
		seqs:  append(c.seqs[:i:i], c.seqs[i+1:n]...),
	}
	for k, s := range c.servers {
		load, crossed := c.load[k], true
		if slices.Contains(gone, s) {
			load, crossed = 0, false
			for _, m := range next.conns {
				for _, h := range m.Path {
					if h == s {
						load += m.Bucket.Rho
						crossed = true
					}
				}
			}
		}
		if crossed {
			next.servers = append(next.servers, s)
			next.load = append(next.load, load)
		}
	}
	return next
}

// hasEdge reports whether the route traverses u and v consecutively.
func hasEdge(path []int, u, v int) bool {
	for k := 0; k+1 < len(path); k++ {
		if (path[k] == u && path[k+1] == v) || (path[k] == v && path[k+1] == u) {
			return true
		}
	}
	return false
}

// state is the admitted set as the engine indexes it: every connection in
// global commit order, and the component owning each server. Published
// snapshots never change their state; a transaction mutates a private
// clone.
type state struct {
	admitted []topo.Connection // global commit order
	seqs     []uint64          // commit stamps, parallel and ascending
	nextSeq  uint64            // stamp of the next admitted connection
	owner    []*component      // server -> component; nil when no route crosses it
}

// clone copies the state's slices so the copy can be mutated in place.
func (st *state) clone() state {
	return state{
		admitted: append([]topo.Connection(nil), st.admitted...),
		seqs:     append([]uint64(nil), st.seqs...),
		nextSeq:  st.nextSeq,
		owner:    append([]*component(nil), st.owner...),
	}
}

// components lists every component once, in server order of its first
// server.
func (st *state) components() []*component {
	var out []*component
	for s, c := range st.owner {
		if c != nil && c.servers[0] == s {
			out = append(out, c)
		}
	}
	return out
}

// touched returns the distinct components the route crosses, in route
// order. Out-of-range hops are skipped (validation rejects them first).
func (st *state) touched(path []int) []*component {
	var out []*component
	for _, s := range path {
		if s < 0 || s >= len(st.owner) || st.owner[s] == nil {
			continue
		}
		c := st.owner[s]
		dup := false
		for _, t := range out {
			dup = dup || t == c
		}
		if !dup {
			out = append(out, c)
		}
	}
	return out
}

// find returns the global index of the first admitted connection with the
// name, or -1.
func (st *state) find(name string) int {
	for i := range st.admitted {
		if st.admitted[i].Name == name {
			return i
		}
	}
	return -1
}

// position returns the global index of the first connection whose commit
// stamp is at least seq.
func (st *state) position(seq uint64) int {
	return sort.Search(len(st.seqs), func(i int) bool { return st.seqs[i] >= seq })
}

// utilization returns the per-server utilization of the admitted set,
// bit-identical to topo.Network.Utilization: every server's addends live
// in one component, summed there in commit order.
func (st *state) utilization(e *Engine) []float64 {
	u := make([]float64, len(e.servers))
	for s, c := range st.owner {
		if c != nil {
			u[s] = c.load[sort.SearchInts(c.servers, s)]
		}
	}
	for i := range u {
		u[i] /= e.servers[i].Capacity
	}
	return u
}

// stable reports whether the admitted set plus cand keeps every server's
// utilization below 1 — trial.Stable() of the full trial network in
// O(route): the admitted set was stable when committed (a release only
// lowers loads), so only the candidate's servers can tip over, and their
// loads gain the candidate's rate last, as the full sum would.
func (st *state) stable(e *Engine, cand topo.Connection) bool {
	for _, s := range cand.Path {
		load := 0.0
		if c := st.owner[s]; c != nil {
			load = c.load[sort.SearchInts(c.servers, s)]
		}
		if (load+cand.Bucket.Rho)/e.servers[s].Capacity >= 1 {
			return false
		}
	}
	return true
}

// validate returns exactly the error the full trial network's Validate
// would: the fabric and every admitted connection are valid by
// construction, so only the candidate itself, a name collision anywhere in
// the admitted set, or a cycle closed through the candidate's route can
// fail — and a cycle can only run through the components the route
// touches (union: their members in commit order).
func (st *state) validate(e *Engine, cand topo.Connection, touched []*component, union []topo.Connection) error {
	if err := cand.Validate(len(e.servers)); err != nil {
		return fmt.Errorf("topo: connection %d: %w", len(st.admitted), err)
	}
	if cand.Name != "" && st.find(cand.Name) >= 0 {
		return fmt.Errorf("topo: duplicate connection name %q", cand.Name)
	}
	if len(touched) == 0 {
		return nil // a route over distinct fresh servers is a simple path
	}
	n := len(union)
	trial := &topo.Network{Servers: e.servers, Connections: append(union[:n:n], cand)}
	if len(touched) == 1 {
		// The component's checker decides acyclicity in O(route) unless
		// the route disagrees with its witness order.
		return touched[0].cachedBaseline().ValidateExtend(trial)
	}
	_, err := trial.TopologicalOrder()
	return err
}

// assemble lays the trial's bounds out in global commit order, candidate
// last: members of the touched components take the trial analysis' bounds
// res (their merged commit order, candidate last), every other component
// the bounds its baseline already holds — bit-identical to the
// whole-network analysis, which cannot couple components. A unit the
// analysis cannot bound degrades the whole-network analysis to +Inf
// everywhere, so an unbounded component does the same here. ok is false
// when some component has no usable baseline.
func (st *state) assemble(e *Engine, touched []*component, res []float64) (bounds []float64, ok bool) {
	bounds = make([]float64, len(st.admitted)+1)
	bounds[len(st.admitted)] = res[len(res)-1]
	inf := math.IsInf(res[len(res)-1], 1)
	// Members of one component appear in global order in their own commit
	// order, so a running index per component walks its bounds; runs of
	// one component are common, so the map is consulted only on switches.
	next := map[*component]int{}
	union := 0
	var (
		cur     *component
		base    *analysis.Baseline
		k       int
		inUnion bool
	)
	for i := range st.admitted {
		if c := st.owner[st.admitted[i].Path[0]]; c != cur {
			if cur != nil && !inUnion {
				next[cur] = k
			}
			cur, inUnion = c, indexOf(touched, c) >= 0
			if !inUnion {
				b, err := c.baseline(e)
				if err != nil {
					return nil, false
				}
				base, k = b, next[c]
			}
		}
		if inUnion {
			bounds[i] = res[union]
			union++
		} else {
			bounds[i] = base.Bound(k)
			k++
		}
		inf = inf || math.IsInf(bounds[i], 1)
	}
	if inf {
		for i := range bounds {
			bounds[i] = math.Inf(1)
		}
	}
	return bounds, true
}
