// Package service is the serving layer of the repository: a goroutine-safe
// admission-control state, an LRU cache for analysis results, request
// metrics, a multi-tenant network registry, and the HTTP/JSON handlers
// that delayd (cmd/delayd) mounts. The command-line tools reuse the same
// State so that CLI and daemon drive one admission implementation.
package service

import (
	"context"
	"encoding/json"

	"delaycalc/internal/admission"
	"delaycalc/internal/analysis"
	"delaycalc/internal/netspec"
	"delaycalc/internal/server"
	"delaycalc/internal/topo"
)

// State is the live admission fabric shared by concurrent HTTP handlers
// and the CLIs. It is a thin veneer over admission.Engine, whose commit
// domains are the fabric's independent server-sharing components, so
// disjoint workloads commit without contending; every test analyzes an
// immutable snapshot OUTSIDE any lock and Admit commits with a version
// check on the components it touched (retrying on conflict). Accessors
// return copies unless documented otherwise.
type State struct {
	eng     *admission.Engine
	servers []server.Server   // immutable after construction
	index   map[string]int    // server name -> index, immutable
	hops    []json.RawMessage // netspec.HopNames(servers), immutable
}

// NewState builds an admission state over the given fabric.
func NewState(servers []server.Server, analyzer analysis.Analyzer) (*State, error) {
	eng, err := admission.NewEngine(servers, analyzer)
	if err != nil {
		return nil, err
	}
	cp := make([]server.Server, len(servers))
	copy(cp, servers)
	index, err := netspec.ServerIndex(cp)
	if err != nil {
		return nil, err
	}
	return &State{eng: eng, servers: cp, index: index, hops: netspec.HopNames(cp)}, nil
}

// Engine exposes the underlying admission engine (used by metrics and
// tests).
func (s *State) Engine() *admission.Engine { return s.eng }

// ServerIndex returns the fabric's server-name index, built once. The map
// is shared; callers must not modify it.
func (s *State) ServerIndex() map[string]int { return s.index }

// ConnectionSpecs converts connections of this fabric to their
// serializable form, naming hops from a table built once per State.
func (s *State) ConnectionSpecs(conns []topo.Connection) []netspec.ConnectionSpec {
	out := make([]netspec.ConnectionSpec, len(conns))
	for i, c := range conns {
		out[i] = netspec.ConnectionToSpecHops(c, s.hops)
	}
	return out
}

// ForceFull disables the incremental analysis path; every admission test
// re-analyzes the whole trial network: the full-analysis oracle for tests
// and cmd/admit -full.
func (s *State) ForceFull() { s.eng.ForceFull() }

// Servers returns a copy of the fabric the state admits against.
func (s *State) Servers() []server.Server {
	cp := make([]server.Server, len(s.servers))
	copy(cp, s.servers)
	return cp
}

// Test runs the admission test without committing the candidate.
func (s *State) Test(cand topo.Connection) (admission.Decision, error) {
	return s.eng.Test(cand)
}

// TestContext is Test with cooperative cancellation: the analysis observes
// the context and the call returns its error (check admission.IsCanceled)
// once it is done.
func (s *State) TestContext(ctx context.Context, cand topo.Connection) (admission.Decision, error) {
	return s.eng.TestContext(ctx, cand)
}

// TestWith runs a full admission test with an explicit analyzer — the
// degraded path: a timed-out integrated test retried with the always-valid
// decomposed analyzer.
func (s *State) TestWith(ctx context.Context, analyzer analysis.Analyzer, cand topo.Connection) (admission.Decision, error) {
	return s.eng.TestWith(ctx, analyzer, cand)
}

// Admit runs the admission test and commits the candidate on success.
func (s *State) Admit(cand topo.Connection) (admission.Decision, error) {
	return s.eng.Admit(cand)
}

// AdmitContext is Admit with cooperative cancellation; a cancelled call
// commits nothing.
func (s *State) AdmitContext(ctx context.Context, cand topo.Connection) (admission.Decision, error) {
	return s.eng.AdmitContext(ctx, cand)
}

// AdmitWith is Admit on the degraded path: the test runs with the given
// analyzer and a positive decision commits without a promoted baseline.
func (s *State) AdmitWith(ctx context.Context, analyzer analysis.Analyzer, cand topo.Connection) (admission.Decision, error) {
	return s.eng.AdmitWith(ctx, analyzer, cand)
}

// ApplyBatch evaluates a whole mixed admit/release envelope through the
// engine's pipelined batch path: every operation sees the set as left by
// its predecessors, decisions are bit-identical to per-op calls, and the
// envelope commits one snapshot instead of one per op. A canceled call
// (admission.IsCanceled) commits nothing.
func (s *State) ApplyBatch(ctx context.Context, ops []admission.Op) (*admission.BatchResult, error) {
	return s.eng.ApplyBatch(ctx, ops)
}

// TestBatch evaluates a dry-run envelope of candidates against one pinned
// snapshot: the report is internally consistent even while
// concurrent admissions commit, and each candidate is judged against the
// current admitted set alone. Nothing is committed.
func (s *State) TestBatch(ctx context.Context, cands []topo.Connection) ([]admission.OpResult, error) {
	return s.eng.TestBatch(ctx, cands)
}

// TestBatchWith is TestBatch on the degraded path: every candidate runs a
// full analysis with the explicit analyzer against one pinned snapshot.
func (s *State) TestBatchWith(ctx context.Context, analyzer analysis.Analyzer, cands []topo.Connection) ([]admission.OpResult, error) {
	return s.eng.TestBatchWith(ctx, analyzer, cands)
}

// Remove releases a previously admitted connection by name.
func (s *State) Remove(name string) bool { return s.eng.Remove(name) }

// Release removes a previously admitted connection by name and reports how
// the engine absorbed it: incrementally (the analysis baseline was shrunk
// in place) or by compaction (the baseline was dropped and will rebuild).
func (s *State) Release(name string) (admission.ReleaseInfo, bool) {
	return s.eng.Release(name)
}

// WarmBaseline synchronously materializes every component's analysis
// baseline so the next admission test runs incrementally at full speed.
func (s *State) WarmBaseline() error { return s.eng.WarmBaseline() }

// Admitted returns a copy of the currently admitted connections.
func (s *State) Admitted() []topo.Connection { return s.eng.Admitted() }

// Count returns the number of admitted connections.
func (s *State) Count() int { return s.eng.Count() }

// Utilization returns the per-server utilization of the admitted set.
func (s *State) Utilization() []float64 { return s.eng.Utilization() }

// Snapshot returns the admitted set, per-server utilization, and count in
// one consistent view of the latest immutable snapshot — the lock-free
// read-replica path GET endpoints serve from. The connection slice is
// shared with the snapshot; callers must not modify its elements.
func (s *State) Snapshot() (conns []topo.Connection, util []float64, count int) {
	conns, _, util = s.ReadView()
	return conns, util, len(conns)
}

// SnapshotVersion returns the replica-read snapshot version, monotone
// under every commit. GET responses expose it as X-Snapshot-Version so
// clients can correlate a read with the write history it reflects.
func (s *State) SnapshotVersion() uint64 { return s.eng.Snapshot().Version() }

// ReadView returns the admitted set (shared with the snapshot, in commit
// order; callers must not modify its elements), the snapshot version, and
// the per-server utilization in one replica read, without copying the set.
func (s *State) ReadView() (conns []topo.Connection, version uint64, util []float64) {
	snap := s.eng.Snapshot()
	return snap.Connections(), snap.Version(), snap.Utilization()
}

// FillGreedy admits numbered copies of the template until the first
// rejection. It is the measurement loop used by cmd/admit to compare
// admission capacity across analyzers.
func (s *State) FillGreedy(template topo.Connection, limit int) (int, error) {
	return s.eng.FillGreedy(template, limit)
}

// FillGreedyContext is FillGreedy with cooperative cancellation between
// and inside admissions.
func (s *State) FillGreedyContext(ctx context.Context, template topo.Connection, limit int) (int, error) {
	return s.eng.FillGreedyContext(ctx, template, limit)
}
