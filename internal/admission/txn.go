// Transactions: how operations read a snapshot and commit onto whatever
// snapshot is current when they finish.
//
// An operation (an admission, a release, or a whole batch envelope)
// evaluates against one snapshot, outside any lock, into a txn that
// records two things. What it read: the servers whose owning component it
// looked up and the connection names whose presence it checked. What it
// changes: the snapshot components it replaces, the components replacing
// them, and the connections it removes and appends. The commit, under the
// engine's short lock, checks that every component read is still the
// current one and that no name read was admitted since — commits on
// disjoint components therefore never conflict — and then rebases the
// changes onto the current snapshot. A decision's bounds for components
// the operation did not touch come from the snapshot it read; a
// concurrent commit elsewhere may supersede them, but the candidate
// cannot change them, so the commit does not wait for them.
package admission

import (
	"context"
	"fmt"
	"sort"

	"delaycalc/internal/analysis"
	"delaycalc/internal/topo"
)

// change is one operation's effect on a state.
type change struct {
	dropped []*component // components replaced
	created []*component // their replacements, zero or more
	add     *topo.Connection
	addSeq  uint64
	remove  bool
	seq     uint64 // stamp of the removed connection
}

// apply performs the change on a private (cloned) state.
func (st *state) apply(ch change) {
	for _, c := range ch.dropped {
		for _, s := range c.servers {
			st.owner[s] = nil
		}
	}
	for _, c := range ch.created {
		for _, s := range c.servers {
			st.owner[s] = c
		}
	}
	if ch.remove {
		i := st.position(ch.seq)
		st.admitted = append(st.admitted[:i], st.admitted[i+1:]...)
		st.seqs = append(st.seqs[:i], st.seqs[i+1:]...)
	}
	if ch.add != nil {
		st.admitted = append(st.admitted, *ch.add)
		st.seqs = append(st.seqs, ch.addSeq)
		st.nextSeq = ch.addSeq + 1
	}
}

// txn is one operation's evaluation against a snapshot.
type txn struct {
	e     *Engine
	snap  *Snapshot
	token uint64 // reservation the txn holds (0: optimistic)
	// work is the state later operations of the txn read: snap's own
	// state until the first change applies, a private clone after.
	work    state
	cloned  bool
	pending []change
	// Read set.
	servers []int
	names   []string
	// Write set, relative to snap: snapshot components replaced, live
	// components created, stamps of snapshot connections removed, and
	// appended connections with provisional stamps (>= snap.nextSeq).
	dropped   []*component
	created   []*component
	removed   []uint64
	added     []topo.Connection
	addedSeqs []uint64
	issued    uint64
}

func newTxn(snap *Snapshot, token uint64) *txn {
	return &txn{e: snap.eng, snap: snap, token: token, work: snap.state}
}

// view returns the state as left by the txn's changes so far.
func (t *txn) view() *state {
	if len(t.pending) > 0 {
		if !t.cloned {
			t.work = t.work.clone()
			t.cloned = true
		}
		for _, ch := range t.pending {
			t.work.apply(ch)
		}
		t.pending = t.pending[:0]
	}
	return &t.work
}

// record adds a change to the write set; the working view applies it
// lazily, so a single-operation txn never clones the snapshot's state.
func (t *txn) record(ch change) {
	for _, c := range ch.dropped {
		if i := indexOf(t.created, c); i >= 0 {
			t.created = append(t.created[:i], t.created[i+1:]...)
		} else {
			t.dropped = append(t.dropped, c)
		}
	}
	t.created = append(t.created, ch.created...)
	if ch.remove {
		if ch.seq >= t.snap.nextSeq {
			i := sort.Search(len(t.addedSeqs), func(i int) bool { return t.addedSeqs[i] >= ch.seq })
			t.added = append(t.added[:i], t.added[i+1:]...)
			t.addedSeqs = append(t.addedSeqs[:i], t.addedSeqs[i+1:]...)
		} else {
			t.removed = append(t.removed, ch.seq)
		}
	}
	if ch.add != nil {
		t.added = append(t.added, *ch.add)
		t.addedSeqs = append(t.addedSeqs, ch.addSeq)
		t.issued++
	}
	t.pending = append(t.pending, ch)
}

func indexOf(cs []*component, c *component) int {
	for i, x := range cs {
		if x == c {
			return i
		}
	}
	return -1
}

// mutated reports whether the txn has anything to commit.
func (t *txn) mutated() bool { return len(t.dropped)+len(t.created)+len(t.added) > 0 }

// admission is a positive test's hand-off to applyAdmit.
type admission struct {
	touched []*component
	union   []topo.Connection // touched members in commit order
	useqs   []uint64
	ext     *analysis.Extension // incremental extension to promote, if any
}

// test runs the admission test for cand against the txn's view. analyzer
// nil selects the primary analyzer on the component path; an explicit one
// forces a full analysis of the whole trial network with it (the
// degradation hook). A cancellation surfaces as a bare error (never as a
// CodeInvalidSpec decision, and never by silently falling through to the
// more expensive full path).
func (t *txn) test(ctx context.Context, analyzer analysis.Analyzer, cand topo.Connection) (Decision, *admission, error) {
	e, v := t.e, t.view()
	if cand.Deadline <= 0 {
		return Decision{Code: CodeInvalidSpec, Reason: "candidate has no deadline"}, nil,
			fmt.Errorf("admission: candidate %q has no deadline", cand.Name)
	}
	t.names = append(t.names, cand.Name)
	adm := &admission{touched: v.touched(cand.Path)}
	adm.union, adm.useqs = merged(adm.touched)
	if err := v.validate(e, cand, adm.touched, adm.union); err != nil {
		return Decision{Code: CodeInvalidSpec, Reason: err.Error()}, nil, err
	}
	t.servers = append(t.servers, cand.Path...)
	if !v.stable(e, cand) {
		return Decision{Code: CodeUnstable, Reason: "network would be unstable"}, nil, nil
	}
	affected, _ := AffectedSet(len(e.servers), adm.union, cand)
	e.observeAffected(len(affected))
	if analyzer == nil && e.inc != nil {
		bounds, ext, err := t.componentBounds(ctx, v, adm, cand)
		if err != nil {
			return Decision{}, nil, err
		}
		if bounds != nil {
			adm.ext = ext
			return evaluate(v.admitted, cand, bounds), adm, nil
		}
		// A baseline or extension failure falls through to the full path,
		// which reproduces Controller.Test exactly (including its error).
	}
	if analyzer == nil {
		analyzer = e.analyzer
	}
	e.fullTests.Add(1)
	n := len(v.admitted)
	trial := &topo.Network{Servers: e.servers, Connections: append(v.admitted[:n:n], cand)}
	res, err := analysis.AnalyzeWithContext(ctx, analyzer, trial)
	if err != nil {
		if IsCanceled(err) {
			return Decision{}, nil, err
		}
		return Decision{Code: CodeInvalidSpec, Reason: err.Error()}, nil, err
	}
	return evaluate(v.admitted, cand, res.Bounds), adm, nil
}

// componentBounds analyzes only the components cand touches: an extension
// of the touched component's baseline (or of the empty network's), or a
// full analysis of their union when the route bridges several. The other
// components contribute the bounds their baselines hold. bounds is nil
// (with a nil error) when the full path must decide instead.
func (t *txn) componentBounds(ctx context.Context, v *state, adm *admission, cand topo.Connection) ([]float64, *analysis.Extension, error) {
	e := t.e
	var (
		res []float64
		ext *analysis.Extension
	)
	if len(adm.touched) <= 1 {
		var base *analysis.Baseline
		var err error
		if len(adm.touched) == 1 {
			base, err = adm.touched[0].baseline(e)
		} else {
			base, err = e.emptyBaseline()
		}
		if err != nil {
			return nil, nil, nil
		}
		ext, err = base.ExtendContext(ctx, cand)
		if err != nil {
			if IsCanceled(err) {
				return nil, nil, err
			}
			return nil, nil, nil
		}
		e.incTests.Add(1)
		res = ext.Result().Bounds
	} else {
		n := len(adm.union)
		trial := &topo.Network{Servers: e.servers, Connections: append(adm.union[:n:n], cand)}
		r, err := analysis.AnalyzeWithContext(ctx, e.analyzer, trial)
		if err != nil {
			if IsCanceled(err) {
				return nil, nil, err
			}
			return nil, nil, nil
		}
		e.fullTests.Add(1)
		res = r.Bounds
	}
	bounds, ok := v.assemble(e, adm.touched, res)
	if !ok {
		return nil, nil, nil
	}
	return bounds, ext, nil
}

// applyAdmit records a positive decision's change: the touched components
// merge with the candidate into one, carrying the promoted extension when
// there is one.
func (t *txn) applyAdmit(adm *admission, cand topo.Connection) {
	seq := t.view().nextSeq
	var promoted *analysis.Baseline
	if adm.ext != nil {
		promoted = adm.ext.Promote()
	}
	var c *component
	switch len(adm.touched) {
	case 0:
		c = newComponent([]topo.Connection{cand}, []uint64{seq}, promoted)
	case 1:
		c = adm.touched[0].withMember(cand, seq, promoted)
	default:
		c = newComponent(append(adm.union, cand), append(adm.useqs, seq), promoted)
	}
	t.record(change{dropped: adm.touched, created: []*component{c}, add: &cand, addSeq: seq})
}

// release evaluates the removal of the first admitted connection named
// name against the txn's view and records its change. The only error is a
// cancellation of the scoped shrink replay.
func (t *txn) release(ctx context.Context, name string) (ReleaseInfo, bool, error) {
	e, v := t.e, t.view()
	t.names = append(t.names, name)
	gi := v.find(name)
	if gi < 0 {
		return ReleaseInfo{}, false, nil
	}
	conn, seq := v.admitted[gi], v.seqs[gi]
	c := v.owner[conn.Path[0]]
	t.servers = append(t.servers, conn.Path[0])
	li := c.index(seq)
	ch := change{dropped: []*component{c}, remove: true, seq: seq}
	if len(c.conns) == 1 {
		// The component disappears with its last member: nothing is left
		// to re-analyze.
		t.record(ch)
		if e.inc == nil {
			return ReleaseInfo{Affected: -1}, true, nil
		}
		e.observeAffected(0)
		return ReleaseInfo{Incremental: true}, true, nil
	}
	// rest is the surviving component when the removal keeps it
	// connected; otherwise the survivors split into parts, each compacting.
	rest := c.withoutMember(li)
	var parts []*component
	var survivors []topo.Connection
	if rest != nil {
		survivors = rest.conns
	} else {
		survivors = append(append([]topo.Connection(nil), c.conns[:li]...), c.conns[li+1:]...)
		sseqs := append(append([]uint64(nil), c.seqs[:li]...), c.seqs[li+1:]...)
		for _, idx := range e.split(survivors) {
			pc := make([]topo.Connection, len(idx))
			ps := make([]uint64, len(idx))
			for k, i := range idx {
				pc[k], ps[k] = survivors[i], sseqs[i]
			}
			parts = append(parts, newComponent(pc, ps, nil))
		}
		if len(parts) == 1 {
			rest, parts = parts[0], nil
		}
	}
	info := ReleaseInfo{Affected: -1}
	if base := c.cachedBaseline(); e.inc != nil && base != nil {
		affected, _ := AffectedSet(len(e.servers), survivors, conn)
		info.Affected = len(affected)
		e.observeAffected(len(affected))
		// The threshold compares the closure with every survivor of the
		// snapshot, as a whole-network baseline would.
		if rest != nil && float64(len(affected)) <= e.compactionThreshold()*float64(len(v.admitted)-1) {
			ext, err := base.ShrinkContext(ctx, li)
			if err != nil && IsCanceled(err) {
				return ReleaseInfo{}, false, err
			}
			if err == nil {
				rest.promoted = ext.Promote()
				info.Incremental = true
			}
		}
	}
	if rest != nil {
		parts = []*component{rest}
	}
	ch.created = parts
	t.record(ch)
	return info, true, nil
}

// split partitions connections (indices, each part in order) into the
// components their routes form.
func (e *Engine) split(conns []topo.Connection) [][]int {
	view := analysis.Components(&topo.Network{Servers: e.servers, Connections: conns})
	parts := make([][]int, view.Count)
	for i, c := range view.Conn {
		parts[c] = append(parts[c], i)
	}
	return parts
}

// valid reports whether the txn's reads still hold in cur: every server
// it looked up has the same owning component (components are immutable,
// so the same object means unchanged) and reserved by no one else, and no
// connection committed since snap carries a name it looked up.
func (t *txn) valid(cur *Snapshot) bool {
	for _, s := range t.servers {
		if cur.owner[s] != t.snap.owner[s] || (t.e.held[s] != 0 && t.e.held[s] != t.token) {
			return false
		}
	}
	if cur.nextSeq == t.snap.nextSeq {
		return true
	}
	for _, c := range cur.admitted[cur.position(t.snap.nextSeq):] {
		for _, n := range t.names {
			if n != "" && c.Name == n {
				return false
			}
		}
	}
	return true
}

// commit installs the txn's changes onto the current snapshot as the next
// version iff its reads still hold, and ends the txn's reservation either
// way. Connections the txn admitted are re-stamped to follow everything
// committed since its snapshot.
func (e *Engine) commit(t *txn) bool {
	e.mu.Lock()
	cur := e.snap.Load()
	ok := t.valid(cur)
	if ok {
		e.snap.Store(t.rebase(cur))
	}
	if t.token != 0 {
		e.endReservation(t.token)
	}
	e.mu.Unlock()
	if !ok {
		return false
	}
	warm := false
	for _, c := range t.created {
		if c.promoted != nil {
			e.epoch.Add(1)
		} else {
			warm = true
		}
	}
	if warm && e.inc != nil && e.prewarm {
		e.scheduleWarm()
	}
	return true
}

// rebase builds the snapshot following cur with the txn's changes.
func (t *txn) rebase(cur *Snapshot) *Snapshot {
	if shift := cur.nextSeq - t.snap.nextSeq; shift != 0 {
		for _, c := range t.created {
			for i, q := range c.seqs {
				if q >= t.snap.nextSeq {
					c.seqs[i] = q + shift
				}
			}
		}
		for i := range t.addedSeqs {
			t.addedSeqs[i] += shift
		}
	}
	next := &Snapshot{eng: t.e, version: cur.version + 1}
	next.nextSeq = cur.nextSeq + t.issued
	next.owner = append([]*component(nil), cur.owner...)
	for _, c := range t.dropped {
		for _, s := range c.servers {
			next.owner[s] = nil
		}
	}
	for _, c := range t.created {
		for _, s := range c.servers {
			next.owner[s] = c
		}
	}
	if len(t.removed) == 0 {
		// Appending in place is safe: snapshots sharing cur's backing
		// array are all shorter than cur and read only their own prefix.
		next.admitted = append(cur.admitted, t.added...)
		next.seqs = append(cur.seqs, t.addedSeqs...)
		return next
	}
	removed := append([]uint64(nil), t.removed...)
	sort.Slice(removed, func(i, j int) bool { return removed[i] < removed[j] })
	n := len(cur.admitted) - len(removed) + len(t.added)
	next.admitted = make([]topo.Connection, 0, n)
	next.seqs = make([]uint64, 0, n)
	for i, q := range cur.seqs {
		if len(removed) > 0 && removed[0] == q {
			removed = removed[1:]
			continue
		}
		next.admitted = append(next.admitted, cur.admitted[i])
		next.seqs = append(next.seqs, q)
	}
	next.admitted = append(next.admitted, t.added...)
	next.seqs = append(next.seqs, t.addedSeqs...)
	return next
}
