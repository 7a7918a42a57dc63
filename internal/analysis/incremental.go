package analysis

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"delaycalc/internal/minplus"
	"delaycalc/internal/server"
	"delaycalc/internal/topo"
)

// This file implements incremental re-analysis: a Baseline records, for a
// fully analyzed network, the propagation state after every analysis unit
// (one server for Decomposed, one chain for Integrated), and Extend
// re-analyzes the network with one extra connection by recomputing only the
// units the candidate can influence and replaying the recorded state for
// every other unit.
//
// Why replay is exact: both analyzers process units in a topological order
// consistent with every connection's route, so when a unit is processed,
// each crossing connection is entering it with its state fully determined
// by the units it crossed before. A unit's computation is a deterministic
// pure function of its servers and the entry states of its crossing
// connections. Mark the candidate dirty; process the trial partition in
// order; a unit is dirty iff its server tuple did not exist in the baseline
// partition or some crossing connection is dirty, and every connection
// crossing a dirty unit becomes dirty. By induction, a clean unit sees
// exactly the entry states of the baseline run, so its recorded outputs are
// bit-identical to what recomputation would produce. The dirty relation is
// precisely the downstream interference closure of the candidate's route:
// propagated output burstiness makes interference transitive, and the
// closure over the server-sharing graph (lifted to partition units) is how
// it spreads. See docs/INCREMENTAL.md for the full argument.

// Incremental is implemented by analyzers that support baseline+extend
// re-analysis. Extend results are bit-identical to a full Analyze of the
// extended network.
type Incremental interface {
	Analyzer
	// NewBaseline fully analyzes the network and retains the per-unit
	// propagation trace needed by Extend.
	NewBaseline(net *topo.Network) (*Baseline, error)
}

// Compile-time checks: the two analyzers the admission engine accelerates.
var (
	_ Incremental = Decomposed{}
	_ Incremental = Integrated{}
)

// stepCore is the analyzer-specific machinery behind the shared driver: an
// ordered partition of the network into units, and the computation that
// advances the propagation state across one unit.
type stepCore interface {
	name() string
	// check validates analyzer-specific preconditions (e.g. FIFO-only) on
	// the normalized network.
	check(net *topo.Network) error
	// units returns the ordered partition of the normalized network.
	units(net *topo.Network) ([]unitSpec, error)
	// reusableUnits reports whether the partition depends only on the
	// servers and a topological order — in which case a trial whose
	// checker still shares the baseline's witness can reuse the baseline's
	// unit list instead of re-deriving it. Decomposed (one unit per server
	// in witness order) qualifies; Integrated (chain partition, which a
	// bridging candidate can merge) does not.
	reusableUnits() bool
	// apply runs the unit's computation. ok=false degrades the whole
	// analysis to +Inf, exactly as in the full pass. idx is the network's
	// ConnectionIndex, computed once per (trial) network by the driver so
	// unit computations avoid per-server route scans. The context feeds the
	// unit's internal cancellation checkpoints; after cancellation the
	// outputs are meaningless and the caller must consult ctx.Err() before
	// interpreting them.
	apply(ctx context.Context, net *topo.Network, idx [][]int, u unitSpec, p *propagation) (ok bool, err error)
}

// unitSpec identifies one analysis unit by the servers it covers.
type unitSpec struct {
	servers []int
}

// key is the unit's identity across partitions: the exact server tuple.
func (u unitSpec) key() string {
	var b strings.Builder
	for i, s := range u.servers {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(s))
	}
	return b.String()
}

// crossing returns the indices of connections with a hop in the unit, in
// increasing order, read off the network's precomputed ConnectionIndex
// (the returned slice aliases it for single-server units; callers only
// read it).
func (u unitSpec) crossing(idx [][]int) []int {
	if len(u.servers) == 1 {
		return idx[u.servers[0]]
	}
	seen := make(map[int]bool)
	var out []int
	for _, s := range u.servers {
		for _, c := range idx[s] {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	sort.Ints(out)
	return out
}

// connTrace is one connection's propagation state immediately after a unit.
type connTrace struct {
	conn   int
	env    minplus.Curve
	delay  float64
	next   int
	stages []Stage
}

// serverBacklog is one unit server's recorded backlog bound.
type serverBacklog struct {
	server  int
	backlog float64
}

// unitTrace records the post-unit state of every crossing connection and
// the backlog bounds of the unit's servers. All values are in normalized
// units and immutable once recorded. Pair slices, not maps: a unit crosses
// a handful of connections, and the churn-heavy paths (remapShrunkTrace in
// particular) copy traces wholesale, which a slice does in one allocation
// with no rehashing.
type unitTrace struct {
	post    []connTrace
	backlog []serverBacklog
}

// crosses reports whether the trace includes connection c.
func (t *unitTrace) crosses(c int) bool {
	for i := range t.post {
		if t.post[i].conn == c {
			return true
		}
	}
	return false
}

// recordUnit snapshots the propagation state after a unit was applied.
func recordUnit(u unitSpec, conns []int, p *propagation) *unitTrace {
	t := &unitTrace{
		post:    make([]connTrace, 0, len(conns)),
		backlog: make([]serverBacklog, 0, len(u.servers)),
	}
	for _, c := range conns {
		t.post = append(t.post, connTrace{
			conn: c,
			// The live envelope may sit in the propagation's recycled
			// shift buffers; the trace outlives them, so detach it.
			env:   p.env[c].Clone(),
			delay: p.delay[c],
			next:  p.next[c],
			// Exact capacity, deliberately: replayUnit aliases this slice
			// into later propagations, and len==cap forces any append
			// there to reallocate instead of writing into the shared
			// backing array (which concurrent Extends also alias).
			stages: append(make([]Stage, 0, len(p.stage[c])), p.stage[c]...),
		})
	}
	for _, s := range u.servers {
		t.backlog = append(t.backlog, serverBacklog{server: s, backlog: p.backlog[s]})
	}
	return t
}

// replayUnit splices the recorded post-unit state into the propagation.
// The stage slices are aliased, not copied: recordUnit stores them with
// len==cap, so the one appender (propagation.advance) reallocates on first
// touch and the immutable trace can never be written through a replayed
// alias — including by concurrent Extends replaying the same trace.
func replayUnit(t *unitTrace, p *propagation) {
	for i := range t.post {
		st := &t.post[i]
		p.env[st.conn] = st.env
		p.delay[st.conn] = st.delay
		p.next[st.conn] = st.next
		p.stage[st.conn] = st.stages
	}
	for _, sb := range t.backlog {
		p.backlog[sb.server] = sb.backlog
	}
}

// Baseline is a fully analyzed network plus the per-unit trace that Extend
// reuses. A Baseline is immutable and safe for concurrent Extend calls.
type Baseline struct {
	core  stepCore
	orig  *topo.Network // caller-unit copy of the analyzed network
	norm  *topo.Network // normalized view (aliases orig when scale == 1)
	scale float64
	res   *Result // normalized-internal result
	trace map[string]*unitTrace
	// chk validates one-candidate extensions of orig in O(candidate)
	// instead of re-validating the whole trial network; nil (e.g. after a
	// failed witness recomputation) degrades every check to the full path.
	chk *topo.Checker
	// units caches the core's ordered partition of norm; trials whose
	// checker shares the witness reuse it (see stepCore.reusableUnits).
	// nil (unstable baselines) falls back to a fresh core.units call.
	units []unitSpec
	// idx caches norm.ConnectionIndex(); Extend derives the trial's index
	// from it in O(candidate route) instead of rebuilding the whole
	// per-server table. nil (unstable baselines) falls back to a rebuild.
	idx [][]int
	// unstable marks a baseline whose own network is unstable or
	// unbounded; Extend degenerates to all-Inf exactly like the full pass.
	unstable bool
}

// NewBaseline implements Incremental for the decomposed analysis.
func (Decomposed) NewBaseline(net *topo.Network) (*Baseline, error) {
	return newBaseline(decomposedCore{}, net)
}

// NewBaseline implements Incremental for the integrated analysis.
func (a Integrated) NewBaseline(net *topo.Network) (*Baseline, error) {
	return newBaseline(integratedCore{a}, net)
}

// copyNetwork clones the network's top-level slices so the baseline owns
// its view of servers and connections.
func copyNetwork(net *topo.Network) *topo.Network {
	cp := &topo.Network{
		Servers:     make([]server.Server, len(net.Servers)),
		Connections: make([]topo.Connection, len(net.Connections)),
	}
	copy(cp.Servers, net.Servers)
	copy(cp.Connections, net.Connections)
	return cp
}

func newBaseline(core stepCore, net *topo.Network) (*Baseline, error) {
	if err := checkAnalyzable(net); err != nil {
		return nil, err
	}
	orig := copyNetwork(net)
	norm, scale := normalizeNetwork(orig)
	if err := core.check(norm); err != nil {
		return nil, err
	}
	b := &Baseline{core: core, orig: orig, norm: norm, scale: scale, trace: map[string]*unitTrace{}}
	// The network just passed checkAnalyzable, so the checker build cannot
	// fail; a nil checker would merely fall back to full validation.
	b.chk, _ = topo.NewChecker(orig)
	if !norm.Stable() {
		b.unstable = true
		b.res = allInf(core.name(), norm)
		return b, nil
	}
	units, err := core.units(norm)
	if err != nil {
		return nil, err
	}
	b.units = units
	idx := norm.ConnectionIndex()
	b.idx = idx
	p := newPropagation(norm)
	for _, u := range units {
		// Baselines are built uncancellable: a half-built baseline would
		// poison every later Extend, so the build always runs to completion.
		ok, err := core.apply(context.Background(), norm, idx, u, p)
		if err != nil {
			return nil, err
		}
		if !ok {
			b.unstable = true
			b.res = allInf(core.name(), norm)
			return b, nil
		}
		b.trace[u.key()] = recordUnit(u, u.crossing(idx), p)
	}
	b.res = p.result(core.name())
	return b, nil
}

// Result returns the baseline's full analysis result in the caller's
// units. The returned slices are copies.
func (b *Baseline) Result() *Result {
	return exportResult(b.res, b.scale)
}

// Bound returns connection i's delay bound without copying the result
// (delays are scale-invariant, so no unit conversion applies).
func (b *Baseline) Bound(i int) float64 { return b.res.Bounds[i] }

// ValidateExtend validates trial — the baseline's network plus exactly one
// appended candidate, in caller units — returning exactly the error
// trial.Validate() would produce, in O(candidate) on the fast path. A nil
// baseline (or one without a checker) degrades to the full validation, so
// admission-layer prechecks can call it unconditionally.
func (b *Baseline) ValidateExtend(trial *topo.Network) error {
	if b == nil {
		return trial.Validate()
	}
	return b.chk.ValidateExtend(trial)
}

// trialUnits returns the core's ordered partition of the trial network,
// reusing the baseline's cached unit list when the partition depends only
// on the (unchanged) servers and a witness order the trial's checker still
// shares. Unit specs are immutable server tuples, so sharing the slice
// across baselines is safe.
func (b *Baseline) trialUnits(trial *topo.Network, pchk *topo.Checker) ([]unitSpec, error) {
	if b.units != nil && b.core.reusableUnits() && pchk.SharesWitness(b.chk) {
		return b.units, nil
	}
	return b.core.units(trial)
}

// extendIndex derives the trial's ConnectionIndex from the baseline's
// cached one: the candidate sits at the last index, so only the rows of
// the servers on its route change. Touched rows are reallocated with a
// full-slice clamp (the cached rows are shared with the baseline and
// possibly its ancestors); untouched rows alias the cache, which is safe
// because index rows are never written after construction.
func (b *Baseline) extendIndex(trial *topo.Network) [][]int {
	if b.idx == nil {
		return trial.ConnectionIndex()
	}
	candIdx := len(trial.Connections) - 1
	out := append([][]int(nil), b.idx...)
	for _, s := range trial.Connections[candIdx].Path {
		row := out[s]
		out[s] = append(row[:len(row):len(row)], candIdx)
	}
	return out
}

// Connections returns how many connections the baseline covers.
func (b *Baseline) Connections() int { return len(b.orig.Connections) }

// exportResult copies a normalized-internal result and converts bit-valued
// bounds back to caller units (delays are scale-invariant).
func exportResult(r *Result, scale float64) *Result {
	out := &Result{
		Algorithm: r.Algorithm,
		Bounds:    append([]float64(nil), r.Bounds...),
		Stages:    append([][]Stage(nil), r.Stages...),
		Backlogs:  append([]float64(nil), r.Backlogs...),
	}
	return denormalizeBacklogs(out, scale)
}

// normalizeConnection rescales one connection's bit-valued parameters,
// using exactly the operations normalizeNetwork applies, so incremental
// and full analyses see bit-identical inputs.
func normalizeConnection(c *topo.Connection, scale float64) {
	c.Bucket.Sigma /= scale
	c.Bucket.Rho /= scale
	c.AccessRate /= scale
	c.Rate /= scale
	if c.Envelope != nil {
		scaled := minplus.ScaleY(*c.Envelope, 1/scale)
		c.Envelope = &scaled
	}
}

// ExtendStats describes how much work an Extend call avoided.
type ExtendStats struct {
	// Affected counts the existing connections whose bounds had to be
	// recomputed (the candidate itself is not counted).
	Affected int
	// RecomputedUnits and ReplayedUnits partition the trial partition's
	// units into those analyzed for real and those spliced from cache.
	RecomputedUnits int
	ReplayedUnits   int
}

// Extension is the outcome of extending a baseline with one candidate.
type Extension struct {
	Stats    ExtendStats
	res      *Result
	scale    float64
	promoted *Baseline
}

// Result returns the trial network's analysis result (admitted connections
// first, the candidate last) in caller units. The slices are copies.
func (e *Extension) Result() *Result { return exportResult(e.res, e.scale) }

// Promote returns a Baseline for the extended network, reusing every
// replayed unit's trace, so committing an admission costs no extra
// analysis. The promoted baseline is independent of the original.
func (e *Extension) Promote() *Baseline { return e.promoted }

// Extend analyzes the baseline's network plus one candidate connection,
// recomputing only the units inside the candidate's interference closure.
// The result is bit-identical to core's full analysis of the trial
// network.
func (b *Baseline) Extend(cand topo.Connection) (*Extension, error) {
	return b.ExtendContext(context.Background(), cand)
}

// ExtendContext is Extend with cooperative cancellation: the unit replay
// loop checks the context between units (and recomputed units observe it
// internally), returning its error once it is done. An uncancelled call is
// bit-identical to Extend.
func (b *Baseline) ExtendContext(ctx context.Context, cand topo.Connection) (*Extension, error) {
	// Trial in caller units, candidate appended last so existing
	// connection indices are stable.
	trialOrig := &topo.Network{
		Servers:     b.orig.Servers,
		Connections: append(append([]topo.Connection(nil), b.orig.Connections...), cand),
	}
	// The baseline's own network was validated when it was built, so only
	// the candidate needs checking — O(candidate) via the cached checker
	// instead of re-validating (and re-sorting) the whole trial network on
	// every admission test.
	if err := b.chk.ValidateExtend(trialOrig); err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	// Checker for the would-be promoted baseline: reuses the witness order
	// (recomputing it only for routes that disagree with it) and extends
	// the name set by the candidate.
	pchk := b.chk.Extend(trialOrig)
	// Trial in normalized units: the scale depends only on the servers,
	// which the candidate does not change.
	trial := trialOrig
	if b.scale != 1 {
		ncand := cand
		normalizeConnection(&ncand, b.scale)
		trial = &topo.Network{
			Servers:     b.norm.Servers,
			Connections: append(append([]topo.Connection(nil), b.norm.Connections...), ncand),
		}
	}
	// core.check inspects only the servers (e.g. the FIFO-only rule),
	// which the candidate does not change and newBaseline already checked.
	mkExt := func(res *Result, stats ExtendStats, promoted *Baseline) *Extension {
		return &Extension{Stats: stats, res: res, scale: b.scale, promoted: promoted}
	}
	// An unstable baseline has an empty trace, so the loop below simply
	// recomputes every unit — still exact, never wrong.
	if !trial.Stable() {
		// The full pass would degrade everything to +Inf before any unit
		// ran; an unstable trial is never committed, but keep Promote
		// total by handing back an unstable baseline.
		res := allInf(b.core.name(), trial)
		promoted := &Baseline{core: b.core, orig: trialOrig, norm: trial, scale: b.scale,
			res: res, trace: map[string]*unitTrace{}, unstable: true, chk: pchk}
		return mkExt(res, ExtendStats{Affected: len(b.orig.Connections)}, promoted), nil
	}
	units, err := b.trialUnits(trial, pchk)
	if err != nil {
		return nil, err
	}
	idx := b.extendIndex(trial)
	p := newSparsePropagation(trial)
	candIdx := len(trial.Connections) - 1
	dirty := map[int]bool{candIdx: true}
	stats := ExtendStats{}
	newTrace := make(map[string]*unitTrace, len(units))
	for _, u := range units {
		if canceled(ctx) {
			return nil, ctxErr(ctx.Err())
		}
		conns := u.crossing(idx)
		old := b.trace[u.key()]
		isDirty := old == nil
		if !isDirty {
			for _, c := range conns {
				if dirty[c] {
					isDirty = true
					break
				}
			}
		}
		if isDirty {
			ok, err := b.core.apply(ctx, trial, idx, u, p)
			if err != nil {
				return nil, err
			}
			if cerr := ctx.Err(); cerr != nil {
				return nil, ctxErr(cerr)
			}
			if !ok {
				res := allInf(b.core.name(), trial)
				promoted := &Baseline{core: b.core, orig: trialOrig, norm: trial, scale: b.scale,
					res: res, trace: map[string]*unitTrace{}, unstable: true, chk: pchk}
				return mkExt(res, ExtendStats{Affected: len(b.orig.Connections)}, promoted), nil
			}
			for _, c := range conns {
				dirty[c] = true
			}
			newTrace[u.key()] = recordUnit(u, conns, p)
			stats.RecomputedUnits++
		} else {
			replayUnit(old, p)
			newTrace[u.key()] = old
			stats.ReplayedUnits++
		}
	}
	stats.Affected = len(dirty) - 1
	promoted := &Baseline{
		core:  b.core,
		orig:  trialOrig,
		norm:  trial,
		scale: b.scale,
		res:   p.result(b.core.name()),
		trace: newTrace,
		chk:   pchk,
		units: units,
		idx:   idx,
	}
	return mkExt(promoted.res, stats, promoted), nil
}

// removeConnection returns a copy of conns without index remove.
func removeConnection(conns []topo.Connection, remove int) []topo.Connection {
	out := make([]topo.Connection, 0, len(conns)-1)
	out = append(out, conns[:remove]...)
	out = append(out, conns[remove+1:]...)
	return out
}

// remapShrunkTrace rebuilds a recorded unit trace with connection indices
// shifted down past the removed one. Clean units are never crossed by the
// removed connection (that is what makes them clean), so its entry is
// absent by construction; the guard keeps a would-be bug loud in tests
// rather than silently replaying stale state.
func remapShrunkTrace(t *unitTrace, removed int) *unitTrace {
	// Traces are immutable once recorded, so when no index clears the
	// removed one — releases of recently admitted connections, the common
	// churn shape — the remap is the identity and the trace is shared
	// instead of copied.
	needsRemap := false
	for i := range t.post {
		c := t.post[i].conn
		if c == removed {
			panic("analysis: shrink replayed a unit crossed by the removed connection")
		}
		if c > removed {
			needsRemap = true
		}
	}
	if !needsRemap {
		return t
	}
	out := &unitTrace{post: append([]connTrace(nil), t.post...), backlog: t.backlog}
	for i := range out.post {
		if out.post[i].conn > removed {
			out.post[i].conn--
		}
	}
	return out
}

// Shrink analyzes the baseline's network with the connection at index
// remove released, recomputing only the units inside the removed
// connection's interference closure and replaying the recorded traces
// (indices remapped) for every other unit. The result is bit-identical to
// core's full analysis of the shrunken network, by the same induction as
// Extend: a unit not crossed by the removed connection and crossed by no
// dirty survivor saw exactly the same crossing set and entry states in the
// baseline run, so its recorded outputs are what recomputation would
// produce. The returned Extension's Result covers the survivors in their
// new (shifted) indexing, and Promote hands back a baseline for the
// shrunken network at no extra cost.
func (b *Baseline) Shrink(remove int) (*Extension, error) {
	return b.ShrinkContext(context.Background(), remove)
}

// ShrinkContext is Shrink with cooperative cancellation between (and
// inside) recomputed units. An uncancelled call is bit-identical to Shrink.
func (b *Baseline) ShrinkContext(ctx context.Context, remove int) (*Extension, error) {
	if remove < 0 || remove >= len(b.orig.Connections) {
		return nil, fmt.Errorf("analysis: shrink index %d out of range [0,%d)", remove, len(b.orig.Connections))
	}
	trialOrig := &topo.Network{
		Servers:     b.orig.Servers,
		Connections: removeConnection(b.orig.Connections, remove),
	}
	// No re-validation: a valid network stays valid under connection
	// removal. The servers are untouched, every survivor was individually
	// valid, the name set only shrinks, and the route graph loses edges,
	// so no cycle can appear. core.check likewise inspects only the
	// (unchanged) servers. Skipping the O(network) checks here is what
	// keeps a release proportional to its affected set.
	pchk := b.chk.Shrink(b.orig.Connections[remove])
	// Shrunken trial in normalized units: the scale depends only on the
	// servers, which a release does not change.
	trial := trialOrig
	if b.scale != 1 {
		trial = &topo.Network{
			Servers:     b.norm.Servers,
			Connections: removeConnection(b.norm.Connections, remove),
		}
	}
	mkExt := func(res *Result, stats ExtendStats, promoted *Baseline) *Extension {
		return &Extension{Stats: stats, res: res, scale: b.scale, promoted: promoted}
	}
	// Releasing traffic can restore stability, so an unstable baseline does
	// not imply an unstable trial: its empty trace just recomputes every
	// unit below. The converse cannot happen, but keep the same guard as
	// Extend so the degenerate case stays total.
	if !trial.Stable() {
		res := allInf(b.core.name(), trial)
		promoted := &Baseline{core: b.core, orig: trialOrig, norm: trial, scale: b.scale,
			res: res, trace: map[string]*unitTrace{}, unstable: true, chk: pchk}
		return mkExt(res, ExtendStats{Affected: len(trial.Connections)}, promoted), nil
	}
	units, err := b.trialUnits(trial, pchk)
	if err != nil {
		return nil, err
	}
	idx := trial.ConnectionIndex()
	p := newSparsePropagation(trial)
	dirty := map[int]bool{}
	stats := ExtendStats{}
	newTrace := make(map[string]*unitTrace, len(units))
	for _, u := range units {
		if canceled(ctx) {
			return nil, ctxErr(ctx.Err())
		}
		conns := u.crossing(idx)
		old := b.trace[u.key()]
		isDirty := old == nil
		if !isDirty {
			// The removed connection seeds the closure: every unit it
			// crossed in the baseline run loses a crossing connection and
			// must recompute.
			if old.crosses(remove) {
				isDirty = true
			}
		}
		if !isDirty {
			for _, c := range conns {
				if dirty[c] {
					isDirty = true
					break
				}
			}
		}
		if isDirty {
			ok, err := b.core.apply(ctx, trial, idx, u, p)
			if err != nil {
				return nil, err
			}
			if cerr := ctx.Err(); cerr != nil {
				return nil, ctxErr(cerr)
			}
			if !ok {
				res := allInf(b.core.name(), trial)
				promoted := &Baseline{core: b.core, orig: trialOrig, norm: trial, scale: b.scale,
					res: res, trace: map[string]*unitTrace{}, unstable: true, chk: pchk}
				return mkExt(res, ExtendStats{Affected: len(trial.Connections)}, promoted), nil
			}
			for _, c := range conns {
				dirty[c] = true
			}
			newTrace[u.key()] = recordUnit(u, conns, p)
			stats.RecomputedUnits++
		} else {
			t := remapShrunkTrace(old, remove)
			replayUnit(t, p)
			newTrace[u.key()] = t
			stats.ReplayedUnits++
		}
	}
	stats.Affected = len(dirty)
	promoted := &Baseline{
		core:  b.core,
		orig:  trialOrig,
		norm:  trial,
		scale: b.scale,
		res:   p.result(b.core.name()),
		trace: newTrace,
		chk:   pchk,
		units: units,
		idx:   idx,
	}
	return mkExt(promoted.res, stats, promoted), nil
}

// decomposedCore adapts the decomposition analysis to the driver: one unit
// per server, in topological order.
type decomposedCore struct{}

func (decomposedCore) name() string                  { return "Decomposed" }
func (decomposedCore) check(net *topo.Network) error { return nil }

func (decomposedCore) reusableUnits() bool { return true }

func (decomposedCore) units(net *topo.Network) ([]unitSpec, error) {
	order, err := net.TopologicalOrder()
	if err != nil {
		return nil, err
	}
	units := make([]unitSpec, len(order))
	for i, s := range order {
		units[i] = unitSpec{servers: []int{s}}
	}
	return units, nil
}

func (decomposedCore) apply(_ context.Context, net *topo.Network, idx [][]int, u unitSpec, p *propagation) (bool, error) {
	// One server is the unit of cancellation granularity here; the driver
	// checks the context between units. The pooled arena makes the replay
	// loop reuse the same scratch slabs across units.
	s := u.servers[0]
	ar := minplus.GetArena()
	defer ar.Release()
	return decomposedServerStep(net, s, idx[s], p, ar)
}

// integratedCore adapts the integrated analysis: one unit per chain of the
// partition, in subnetwork topological order.
type integratedCore struct {
	a Integrated
}

func (ic integratedCore) name() string { return "Integrated" }

func (ic integratedCore) check(net *topo.Network) error {
	for i, s := range net.Servers {
		if s.Discipline != server.FIFO {
			return fmt.Errorf("analysis: Integrated applies to FIFO networks; server %d is %v", i, s.Discipline)
		}
	}
	return nil
}

// reusableUnits is false for the integrated partition: a candidate whose
// route bridges two chains merges them, so the unit list must be
// re-derived per trial.
func (ic integratedCore) reusableUnits() bool { return false }

func (ic integratedCore) units(net *topo.Network) ([]unitSpec, error) {
	subnets, err := ic.a.partition(net)
	if err != nil {
		return nil, err
	}
	ordered, err := orderSubnetworks(net, subnets)
	if err != nil {
		return nil, err
	}
	units := make([]unitSpec, len(ordered))
	for i, sn := range ordered {
		units[i] = unitSpec{servers: sn.servers}
	}
	return units, nil
}

func (ic integratedCore) apply(ctx context.Context, net *topo.Network, idx [][]int, u unitSpec, p *propagation) (bool, error) {
	return analyzeChain(ctx, net, idx, u.servers, p, ic.a.DeconvPropagation), nil
}
