// Incremental, concurrent admission control.
//
// Engine replaces the serialize-everything pattern (a mutex around
// Controller for the whole analysis) with versioned immutable snapshots:
// an admission test analyzes a snapshot outside any lock, and Admit
// commits with a version check, retrying on conflict. The admitted set is
// split into independent components (component.go), each carrying a
// lazily built analysis baseline on analyzers that implement
// analysis.Incremental (Integrated, Decomposed): a test re-analyzes only
// the candidate's downstream interference closure inside the components
// its route touches, an admission promotes the extended baseline at no
// extra cost, and commits on disjoint components never conflict.
// Decisions and bounds are bit-identical to Controller's full
// re-analysis.
package admission

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"delaycalc/internal/analysis"
	"delaycalc/internal/server"
	"delaycalc/internal/topo"
)

// IsCanceled reports whether an admission-test error is a context
// cancellation or deadline expiry (as opposed to an invalid candidate or
// analyzer failure). Callers use it to tell "the request was cut off"
// from "the request was bad".
func IsCanceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// AffectedSet computes the downstream interference closure of a candidate
// route over the server-sharing graph: a connection is affected when its
// route intersects a tainted server; once affected, the suffix of its
// route from the first tainted hop becomes tainted too, because the
// candidate inflates the local delay there and the connection's output
// burstiness propagates the inflation downstream. Iterated to a fixpoint.
//
// It returns the indices (into admitted) of affected connections, in
// increasing order, and the set of tainted servers. The closure is the
// conceptual affected set the incremental analysis may re-analyze; the
// engine reports its size in the affected-set histogram.
func AffectedSet(nServers int, admitted []topo.Connection, cand topo.Connection) (conns []int, tainted []bool) {
	tainted = make([]bool, nServers)
	for _, s := range cand.Path {
		if s >= 0 && s < nServers {
			tainted[s] = true
		}
	}
	affected := make([]bool, len(admitted))
	for changed := true; changed; {
		changed = false
		for i, c := range admitted {
			if affected[i] {
				continue
			}
			hit := -1
			for k, s := range c.Path {
				if tainted[s] {
					hit = k
					break
				}
			}
			if hit < 0 {
				continue
			}
			affected[i] = true
			changed = true
			for _, s := range c.Path[hit:] {
				if !tainted[s] {
					tainted[s] = true
				}
			}
		}
	}
	for i, a := range affected {
		if a {
			conns = append(conns, i)
		}
	}
	return conns, tainted
}

// affectedBuckets are the upper bounds of the affected-set size histogram.
var affectedBuckets = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256}

// DefaultCompactionThreshold is the affected-set fraction above which a
// release stops shrinking the baseline in place and falls back to epoch
// compaction: when more than this fraction of the survivors must be
// re-analyzed anyway, the scoped replay approaches the cost of a full
// rebuild, so the rebuild moves off the request path instead.
const DefaultCompactionThreshold = 0.5

// maxConflicts is how many commit conflicts one operation absorbs
// optimistically. The next attempt reserves the servers of the components
// it touches and retests there: no other commit can touch them until it
// commits, so an operation runs at most maxConflicts+1 analyses however
// hot its component is. A reservation also fails every other writer's
// in-flight attempt on those servers, so a small bound convoys: at 4,
// two clients churning one 16-server tandem doubled their batch p50.
const maxConflicts = 8

// Stats is a point-in-time copy of the engine's counters.
type Stats struct {
	// IncrementalTests and FullTests count admission analyses by path.
	IncrementalTests uint64
	FullTests        uint64
	// IncrementalReleases counts removals that shrank the baseline in
	// place (scoped unit-trace replay); CompactedReleases counts removals
	// that fell back to epoch compaction (baseline dropped, re-promoted in
	// the background).
	IncrementalReleases uint64
	CompactedReleases   uint64
	// BaselineEpoch counts baseline materializations: promotions on admit,
	// shrinks on release, and lazy or background rebuilds. It is the
	// freshness stamp compaction re-promotion checks against.
	BaselineEpoch uint64
	// CommitConflicts counts retries forced by a concurrent commit to a
	// component the operation read.
	CommitConflicts uint64
	// BatchEnvelopes counts ApplyBatch calls, BatchOps the operations they
	// carried, and BatchCommits the snapshot commits they installed. A
	// mutating envelope commits exactly once regardless of its size
	// (BatchCommits <= BatchEnvelopes always; strictly fewer when some
	// envelopes left the admitted set untouched), which is the pipelining
	// invariant CI gates on.
	BatchEnvelopes uint64
	BatchOps       uint64
	BatchCommits   uint64
	// AffectedBuckets holds, per entry of AffectedBucketBounds, how many
	// tests had an affected set of at most that many connections (raw,
	// not cumulative); AffectedCount and AffectedSum summarize them.
	AffectedBuckets []uint64
	AffectedCount   uint64
	AffectedSum     uint64
}

// AffectedBucketBounds returns the histogram bucket upper bounds.
func AffectedBucketBounds() []float64 {
	return append([]float64(nil), affectedBuckets...)
}

// Engine is a goroutine-safe admission controller over a fixed fabric.
// All reads and tests run against immutable snapshots; mutations swap the
// snapshot pointer under a short lock that never covers an analysis.
type Engine struct {
	servers  []server.Server
	analyzer analysis.Analyzer
	inc      analysis.Incremental // nil when unsupported or force-full
	// compactFrac holds the float64 bits of the affected-set fraction above
	// which Release stops shrinking and compacts. It is atomic (not plain
	// startup configuration like prewarm) because SetCompactionThreshold is
	// documented as callable while releases run concurrently.
	compactFrac atomic.Uint64
	// prewarm rebuilds compacted baselines in the background; startup
	// configuration, like ForceFull.
	prewarm bool
	// mu serializes snapshot swaps and server reservations only; cond
	// wakes operations waiting for a reservation to end. held maps each
	// server to the reservation holding it (0: free) and tokens numbers
	// reservations; both are guarded by mu. reservations counts the held
	// ones, so operations skip mu while there are none.
	mu           sync.Mutex
	cond         *sync.Cond
	held         []uint64
	tokens       uint64
	reservations atomic.Int64
	snap         atomic.Pointer[Snapshot]
	// empty is the baseline of the connection-free network, extended by
	// candidates that touch no component.
	emptyOnce   sync.Once
	empty       *analysis.Baseline
	emptyErr    error
	incTests    atomic.Uint64
	fullTests   atomic.Uint64
	incRels     atomic.Uint64
	compactRels atomic.Uint64
	epoch       atomic.Uint64
	conflicts   atomic.Uint64
	batchEnvs   atomic.Uint64
	batchOps    atomic.Uint64
	batchComs   atomic.Uint64
	affBucket   []atomic.Uint64
	affCount    atomic.Uint64
	affSum      atomic.Uint64
	// warmBusy/warmDirty implement the single-owner background baseline
	// warmer: at most one warm goroutine runs per engine, and a compaction
	// landing while it runs marks it dirty so the warmer re-checks the
	// (possibly newer) current snapshot before exiting.
	warmBusy  atomic.Bool
	warmDirty atomic.Bool
}

// ShardedEngine is the name the engine had while the fabric was split into
// engine shards; components are now the commit domains inside one Engine.
// It stays until the benchmark harness stops naming it.
type ShardedEngine = Engine

// NewEngine builds an engine over the given fabric. The analyzer's
// incremental path is used automatically when it implements
// analysis.Incremental.
func NewEngine(servers []server.Server, analyzer analysis.Analyzer) (*Engine, error) {
	if len(servers) == 0 {
		return nil, fmt.Errorf("admission: no servers")
	}
	for i, s := range servers {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("admission: server %d: %w", i, err)
		}
	}
	if analyzer == nil {
		return nil, fmt.Errorf("admission: nil analyzer")
	}
	cp := make([]server.Server, len(servers))
	copy(cp, servers)
	// The fabric is validated once here (duplicate server names), so
	// admission tests only validate what a candidate can break.
	if err := (&topo.Network{Servers: cp}).Validate(); err != nil {
		return nil, fmt.Errorf("admission: %w", err)
	}
	e := &Engine{
		servers:   cp,
		analyzer:  analyzer,
		prewarm:   true,
		held:      make([]uint64, len(cp)),
		affBucket: make([]atomic.Uint64, len(affectedBuckets)+1),
	}
	e.cond = sync.NewCond(&e.mu)
	e.compactFrac.Store(math.Float64bits(DefaultCompactionThreshold))
	if inc, ok := analyzer.(analysis.Incremental); ok {
		e.inc = inc
	}
	e.snap.Store(&Snapshot{eng: e, state: state{owner: make([]*component, len(cp))}})
	return e, nil
}

// ForceFull disables the incremental path (every test re-analyzes the
// whole trial network). Call it before serving traffic; it is not meant
// to be flipped concurrently with tests.
func (e *Engine) ForceFull() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.inc = nil
	cur := e.snap.Load()
	e.snap.Store(&Snapshot{eng: e, version: cur.version + 1, state: cur.state})
}

// Analyzer returns the analyzer admission tests run.
func (e *Engine) Analyzer() analysis.Analyzer { return e.analyzer }

// Incremental reports whether the incremental path is active.
func (e *Engine) Incremental() bool { return e.inc != nil }

// Servers returns a copy of the fabric.
func (e *Engine) Servers() []server.Server {
	cp := make([]server.Server, len(e.servers))
	copy(cp, e.servers)
	return cp
}

// SetCompactionThreshold sets the affected-set fraction above which a
// release compacts instead of shrinking (see DefaultCompactionThreshold).
// Negative disables incremental release entirely; >= 1 always shrinks.
// Safe to call while releases run concurrently: the threshold is stored
// atomically and each release reads it once.
func (e *Engine) SetCompactionThreshold(frac float64) {
	e.compactFrac.Store(math.Float64bits(frac))
}

// compactionThreshold reads the release compaction threshold.
func (e *Engine) compactionThreshold() float64 {
	return math.Float64frombits(e.compactFrac.Load())
}

// SetBackgroundPromotion toggles the background baseline rebuild after a
// compacting release. On by default; benchmarks of the invalidating path
// turn it off so the rebuild cost lands on the measured request instead of
// a racing goroutine. Call it before serving traffic, like ForceFull.
func (e *Engine) SetBackgroundPromotion(on bool) { e.prewarm = on }

// Stats copies the engine's counters.
func (e *Engine) Stats() Stats {
	st := Stats{
		IncrementalTests:    e.incTests.Load(),
		FullTests:           e.fullTests.Load(),
		IncrementalReleases: e.incRels.Load(),
		CompactedReleases:   e.compactRels.Load(),
		BaselineEpoch:       e.epoch.Load(),
		CommitConflicts:     e.conflicts.Load(),
		BatchEnvelopes:      e.batchEnvs.Load(),
		BatchOps:            e.batchOps.Load(),
		BatchCommits:        e.batchComs.Load(),
		AffectedBuckets:     make([]uint64, len(e.affBucket)),
		AffectedCount:       e.affCount.Load(),
		AffectedSum:         e.affSum.Load(),
	}
	for i := range e.affBucket {
		st.AffectedBuckets[i] = e.affBucket[i].Load()
	}
	return st
}

func (e *Engine) observeAffected(n int) {
	i := 0
	for ; i < len(affectedBuckets); i++ {
		if float64(n) <= affectedBuckets[i] {
			break
		}
	}
	e.affBucket[i].Add(1)
	e.affCount.Add(1)
	e.affSum.Add(uint64(n))
}

// emptyBaseline returns the baseline of the connection-free network.
func (e *Engine) emptyBaseline() (*analysis.Baseline, error) {
	e.emptyOnce.Do(func() {
		e.empty, e.emptyErr = e.inc.NewBaseline(&topo.Network{Servers: e.servers})
	})
	return e.empty, e.emptyErr
}

// Snapshot is an immutable view of the admitted set at one version. Tests
// against a snapshot are pure and may run concurrently.
type Snapshot struct {
	eng     *Engine
	version uint64
	state
}

// Snapshot returns the current version of the admitted set.
func (e *Engine) Snapshot() *Snapshot { return e.snap.Load() }

// Version identifies the snapshot; it increases with every commit.
func (s *Snapshot) Version() uint64 { return s.version }

// Count returns the number of admitted connections.
func (s *Snapshot) Count() int { return len(s.admitted) }

// Components returns the number of independent components.
func (s *Snapshot) Components() int { return len(s.components()) }

// Admitted returns a copy of the snapshot's admitted set.
func (s *Snapshot) Admitted() []topo.Connection {
	return append([]topo.Connection(nil), s.admitted...)
}

// Connections returns the snapshot's admitted set in global commit order
// without copying it. The slice is shared with the immutable snapshot:
// callers must not modify its elements (appending is safe, its capacity
// is clipped).
func (s *Snapshot) Connections() []topo.Connection {
	n := len(s.admitted)
	return s.admitted[:n:n]
}

// Utilization returns the per-server utilization of the admitted set.
func (s *Snapshot) Utilization() []float64 { return s.utilization(s.eng) }

// Test checks whether the candidate could be admitted into this snapshot.
// It never mutates the engine and is safe to call concurrently.
func (s *Snapshot) Test(cand topo.Connection) (Decision, error) {
	return s.TestContext(context.Background(), cand)
}

// TestContext is Test with cooperative cancellation: the analysis observes
// the context and the call returns its error (check with IsCanceled) once
// it is done. An uncancelled call is bit-identical to Test.
func (s *Snapshot) TestContext(ctx context.Context, cand topo.Connection) (Decision, error) {
	d, _, err := newTxn(s, 0).test(ctx, nil, cand)
	return d, err
}

// Test runs the admission test against the current snapshot, outside any
// lock.
func (e *Engine) Test(cand topo.Connection) (Decision, error) {
	return e.Snapshot().Test(cand)
}

// TestContext runs the admission test against the current snapshot under a
// context; see Snapshot.TestContext.
func (e *Engine) TestContext(ctx context.Context, cand topo.Connection) (Decision, error) {
	return e.Snapshot().TestContext(ctx, cand)
}

// TestWith runs a full admission test with an explicit analyzer against
// the current snapshot — the serving layer's degraded path. The decision
// is as sound as the analyzer's bounds; it is never committed here.
func (e *Engine) TestWith(ctx context.Context, analyzer analysis.Analyzer, cand topo.Connection) (Decision, error) {
	d, _, err := newTxn(e.Snapshot(), 0).test(ctx, analyzer, cand)
	return d, err
}

// Admit tests the candidate against the current snapshot and, on success,
// commits it with a version check on the components its route touches:
// if another commit changed one of them, the test reruns against the
// fresh snapshot (at most maxConflicts times optimistically, then under a
// reservation of those components).
func (e *Engine) Admit(cand topo.Connection) (Decision, error) {
	return e.AdmitContext(context.Background(), cand)
}

// AdmitContext is Admit with cooperative cancellation; a cancelled call
// returns the context's error (check with IsCanceled) and commits nothing.
func (e *Engine) AdmitContext(ctx context.Context, cand topo.Connection) (Decision, error) {
	d, _, err := e.admit(ctx, nil, cand)
	return d, err
}

// AdmitWith is Admit on the degraded path: the test runs with the given
// analyzer (full, non-incremental), and a positive decision commits with
// no promoted baseline, so the touched component rebuilds one against the
// primary analyzer. Sound whenever the analyzer's bounds are valid upper
// bounds (Decomposed always is).
func (e *Engine) AdmitWith(ctx context.Context, analyzer analysis.Analyzer, cand topo.Connection) (Decision, error) {
	d, _, err := e.admit(ctx, analyzer, cand)
	return d, err
}

// admit is the test-and-commit loop behind Admit and AdmitWith; it also
// reports how many attempts (analyses) the operation took.
func (e *Engine) admit(ctx context.Context, analyzer analysis.Analyzer, cand topo.Connection) (Decision, int, error) {
	for attempt := 1; ; attempt++ {
		t := e.begin(attempt, func(st *state) []int { return reach(st, cand.Path) })
		d, adm, err := t.test(ctx, analyzer, cand)
		if err == nil && d.Admitted {
			t.applyAdmit(adm, cand)
			if e.commit(t) {
				return d, attempt, nil
			}
			e.conflicts.Add(1)
			continue
		}
		e.unreserve(t.token)
		return d, attempt, err
	}
}

// reach returns the servers an operation on the route can touch: the
// route's own servers and every server of the components it crosses.
func reach(st *state, path []int) []int {
	var out []int
	for _, s := range path {
		if s >= 0 && s < len(st.owner) {
			out = append(out, s)
		}
	}
	for _, c := range st.touched(path) {
		out = append(out, c.servers...)
	}
	return out
}

// begin opens a transaction for an operation's attempt-th try; scope
// names the servers the operation can touch in a snapshot. Within its
// optimistic budget it runs against the current snapshot — after waiting
// out any reservation of those servers, since it would only conflict with
// the holder — and past the budget under a reservation of its own.
func (e *Engine) begin(attempt int, scope func(*state) []int) *txn {
	reserve := attempt > maxConflicts
	if !reserve && e.reservations.Load() == 0 {
		return newTxn(e.Snapshot(), 0)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		cur := e.snap.Load()
		need := scope(&cur.state)
		free := true
		for _, s := range need {
			free = free && e.held[s] == 0
		}
		if free && !reserve {
			return newTxn(cur, 0)
		}
		if free {
			e.tokens++
			e.reservations.Add(1)
			for _, s := range need {
				e.held[s] = e.tokens
			}
			return newTxn(cur, e.tokens)
		}
		e.cond.Wait()
	}
}

// unreserve ends a reservation (token 0: none).
func (e *Engine) unreserve(token uint64) {
	if token == 0 {
		return
	}
	e.mu.Lock()
	e.endReservation(token)
	e.mu.Unlock()
}

// endReservation frees the token's servers and wakes waiting operations.
// Caller must hold e.mu.
func (e *Engine) endReservation(token uint64) {
	for s, h := range e.held {
		if h == token {
			e.held[s] = 0
		}
	}
	e.reservations.Add(-1)
	e.cond.Broadcast()
}

// ReleaseInfo describes how a release was performed.
type ReleaseInfo struct {
	// Incremental is true when the baseline was shrunk in place (scoped
	// unit-trace replay), false when the release compacted: the baseline
	// was dropped and, with background promotion on, is being rebuilt off
	// the request path.
	Incremental bool
	// Affected is the number of surviving connections inside the removed
	// connection's interference closure (-1 when no baseline was available
	// to scope against).
	Affected int
}

// Release removes an admitted connection by name and reports how. Like
// Admit, it runs optimistically: the shrink analyzes a snapshot outside
// any lock and the commit retries when the connection's component changed.
//
// When the component has a materialized baseline, the removal leaves it
// connected, and the removed connection's interference closure covers at
// most the compaction threshold's fraction of the survivors, the baseline
// is shrunk in place — the surviving unit traces outside the closure
// replay bit-identically, so the next admission test extends a warm
// baseline exactly as if the released connection had never been admitted.
// Otherwise the release compacts: the component (or each part of a
// component the removal split) starts epoch-stamped with no baseline and a
// background build re-promotes one, so the release itself never blocks on
// a rebuild, and the rebuild covers only that component.
func (e *Engine) Release(name string) (ReleaseInfo, bool) {
	info, ok, _ := e.release(name)
	return info, ok
}

// release is the loop behind Release; it also reports the attempts taken.
func (e *Engine) release(name string) (ReleaseInfo, bool, int) {
	scope := func(st *state) []int {
		if i := st.find(name); i >= 0 {
			return st.owner[st.admitted[i].Path[0]].servers
		}
		return nil
	}
	for attempt := 1; ; attempt++ {
		t := e.begin(attempt, scope)
		info, found, _ := t.release(context.Background(), name)
		if !found {
			e.unreserve(t.token)
			return ReleaseInfo{}, false, attempt
		}
		if e.commit(t) {
			e.countRelease(info)
			return info, true, attempt
		}
		e.conflicts.Add(1)
	}
}

// countRelease records how a committed release was absorbed.
func (e *Engine) countRelease(info ReleaseInfo) {
	if info.Incremental {
		e.incRels.Add(1)
	} else {
		e.compactRels.Add(1)
	}
}

// scheduleWarm requests a background build of the baselines the current
// snapshot's components lack. The engine owns exactly one warmer goroutine
// at a time, which always re-reads the *current* snapshot; the dirty flag
// closes the lost-wakeup window: a compaction that lands while a warm is
// in flight re-runs the loop instead of being dropped.
func (e *Engine) scheduleWarm() {
	e.warmDirty.Store(true)
	if !e.warmBusy.CompareAndSwap(false, true) {
		return // an active warmer will observe the dirty flag
	}
	go func() {
		for {
			for e.warmDirty.Swap(false) {
				for _, c := range e.Snapshot().components() {
					if e.inc == nil {
						break
					}
					_, _ = c.baseline(e)
				}
			}
			e.warmBusy.Store(false)
			// Re-check: a scheduleWarm between the last Swap and the
			// busy reset would otherwise be lost.
			if !e.warmDirty.Load() || !e.warmBusy.CompareAndSwap(false, true) {
				return
			}
		}
	}()
}

// Remove releases an admitted connection by name. It is Release without
// the report, kept for callers that only care whether the name existed.
func (e *Engine) Remove(name string) bool {
	_, ok := e.Release(name)
	return ok
}

// WarmBaseline synchronously materializes every component's analysis
// baseline (and the empty network's, which a candidate on fresh servers
// extends) so the next admission test runs incrementally at full speed. It
// is a no-op for components already warm (e.g. after an incremental
// release) or when the incremental path is off. Daemons call it after
// startup pre-admission; benchmarks use it to charge a compacted release
// with the rebuild it forces.
func (e *Engine) WarmBaseline() error {
	if e.inc == nil {
		return nil
	}
	// The connection-free network's baseline is what a candidate on
	// fresh servers extends.
	if _, err := e.emptyBaseline(); err != nil {
		return err
	}
	for _, c := range e.Snapshot().components() {
		if _, err := c.baseline(e); err != nil {
			return err
		}
	}
	return nil
}

// Count returns the number of admitted connections.
func (e *Engine) Count() int { return e.Snapshot().Count() }

// Admitted returns a copy of the currently admitted connections.
func (e *Engine) Admitted() []topo.Connection { return e.Snapshot().Admitted() }

// ReadView is the replica-read path: the current snapshot's admitted set
// in global commit order (shared, see Snapshot.Connections) and its
// version.
func (e *Engine) ReadView() ([]topo.Connection, uint64) {
	s := e.Snapshot()
	return s.Connections(), s.version
}

// Utilization returns the per-server utilization of the admitted set.
func (e *Engine) Utilization() []float64 { return e.Snapshot().Utilization() }

// FillGreedy admits numbered copies of the template until the first
// rejection, like Controller.FillGreedy. With the incremental path each
// admission extends the previous baseline instead of re-analyzing the
// whole network.
func (e *Engine) FillGreedy(template topo.Connection, limit int) (int, error) {
	return e.FillGreedyContext(context.Background(), template, limit)
}

// FillGreedyContext is FillGreedy with cooperative cancellation between
// (and inside) admissions; it returns the count admitted so far along with
// the context's error when cut off.
func (e *Engine) FillGreedyContext(ctx context.Context, template topo.Connection, limit int) (int, error) {
	n := 0
	for n < limit {
		cand := template
		cand.Name = fmt.Sprintf("%s#%d", template.Name, e.Count())
		d, err := e.AdmitContext(ctx, cand)
		if err != nil {
			return n, err
		}
		if !d.Admitted {
			return n, nil
		}
		n++
	}
	return n, nil
}

// MaxBound returns the largest finite bound of a decision's Bounds, +Inf
// when any bound is unbounded, and NaN when the test never analyzed.
func (d Decision) MaxBound() float64 {
	if d.Bounds == nil {
		return math.NaN()
	}
	m := 0.0
	for _, b := range d.Bounds {
		if math.IsInf(b, 1) {
			return b
		}
		if b > m {
			m = b
		}
	}
	return m
}
