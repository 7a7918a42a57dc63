// Batch pipelining: a whole mixed admit/release envelope evaluated as one
// transaction and committed as a single snapshot.
//
// ApplyBatch replays every operation of an envelope the way the sequential
// per-op path would — the same prechecks, the same affected-set scoping,
// the same unit-trace extensions and shrinks against the same analyzer —
// but accumulates the mutations in one transaction's private working state
// and installs them with ONE commit at the end, checked against every
// component the envelope read. A 50-op batch
// therefore pays one snapshot copy and one commit instead of 50, and
// concurrent traffic can never observe (or interleave with) a half-applied
// envelope: readers see the set either entirely before or entirely after
// it. Decisions are bit-identical to issuing the operations one by one
// against an otherwise idle engine; the differential tests in
// batch_test.go pin that equivalence over random networks and the churn
// corpus.
package admission

import (
	"context"
	"fmt"

	"delaycalc/internal/analysis"
	"delaycalc/internal/topo"
)

// OpKind selects what a batch operation does.
type OpKind uint8

const (
	// OpAdmit tests Op.Candidate and, when it passes, adds it to the set.
	OpAdmit OpKind = iota + 1
	// OpRelease removes the admitted connection named Op.Name.
	OpRelease
)

// Op is one operation of a batch envelope.
type Op struct {
	Kind      OpKind
	Candidate topo.Connection // OpAdmit only
	Name      string          // OpRelease only
}

// OpResult is the per-operation outcome of ApplyBatch, mirroring what the
// sequential path would have returned for the same operation: admit ops
// carry the Decision (and Err for invalid candidates), release ops carry
// Released plus the ReleaseInfo report.
type OpResult struct {
	// Decision is the admission decision (OpAdmit only).
	Decision Decision
	// Err is the per-operation error an invalid candidate would have
	// produced sequentially; it never aborts the rest of the envelope.
	Err error
	// Released reports whether an OpRelease found (and removed) its name.
	Released bool
	// Release describes how the release was absorbed (OpRelease only).
	Release ReleaseInfo
}

// BatchResult is the outcome of one envelope.
type BatchResult struct {
	// Results holds one entry per operation, in request order.
	Results []OpResult
	// Commits is the number of snapshot commits the envelope performed:
	// 0 when no operation mutated the set, otherwise exactly 1.
	Commits int
}

// validateOps rejects malformed envelopes before anything is evaluated.
func validateOps(ops []Op) error {
	for i, op := range ops {
		switch op.Kind {
		case OpAdmit, OpRelease:
		default:
			return fmt.Errorf("admission: batch operation %d has unknown kind %d", i, op.Kind)
		}
	}
	return nil
}

// ApplyBatch evaluates a mixed admit/release envelope against the current
// snapshot and commits all its mutations as one new snapshot version.
//
// Every operation sees the set as left by its predecessors in the envelope
// (greedy semantics, like the sequential path), decisions and release
// reports are bit-identical to issuing the operations one by one, and the
// engine's version advances by at most 1. A concurrent commit to a
// component the envelope read retries the whole envelope through the same
// bounded write loop as Admit. A cancellation (check IsCanceled) aborts the
// envelope with nothing committed and nothing counted.
func (e *Engine) ApplyBatch(ctx context.Context, ops []Op) (*BatchResult, error) {
	return e.ApplyBatchWith(ctx, nil, ops)
}

// ApplyBatchWith is ApplyBatch with an analyzer override (nil: the primary
// analyzer), the degraded envelope: every admission test runs a full
// analysis with the given analyzer, and the envelope still commits once.
func (e *Engine) ApplyBatchWith(ctx context.Context, analyzer analysis.Analyzer, ops []Op) (*BatchResult, error) {
	if err := validateOps(ops); err != nil {
		return nil, err
	}
	br, _, err := e.write(ctx, analyzer, ops)
	if err != nil {
		return nil, err
	}
	e.batchEnvs.Add(1)
	e.batchOps.Add(uint64(len(ops)))
	e.batchComs.Add(uint64(br.Commits))
	return br, nil
}

// apply evaluates one operation into the transaction; analyzer is the
// admission test's override (nil: primary). The only returned error is a
// cancellation; per-operation failures land in the result.
func (t *txn) apply(ctx context.Context, analyzer analysis.Analyzer, op Op) (OpResult, error) {
	if op.Kind == OpRelease {
		info, ok, err := t.release(ctx, op.Name)
		return OpResult{Released: ok, Release: info}, err
	}
	d, adm, err := t.test(ctx, analyzer, op.Candidate)
	if err != nil && IsCanceled(err) {
		return OpResult{}, err
	}
	if err == nil && d.Admitted {
		t.applyAdmit(adm, op.Candidate)
	}
	return OpResult{Decision: d, Err: err}, nil
}

// TestBatch is the dry-run counterpart of ApplyBatch: it evaluates every
// candidate against ONE pinned snapshot — never the moving live head — so
// the report is internally consistent even while concurrent admissions
// commit. Like the sequential dry-run semantics, candidates are judged
// against the current admitted set alone (a dry-run envelope does not
// accumulate its own hypothetical admissions). Nothing is ever committed.
func (e *Engine) TestBatch(ctx context.Context, cands []topo.Connection) ([]OpResult, error) {
	return e.TestBatchWith(ctx, nil, cands)
}

// TestBatchWith is TestBatch with an analyzer override (nil: the primary
// analyzer); the degraded path evaluates every candidate with a full
// analysis by the given analyzer against one pinned snapshot.
func (e *Engine) TestBatchWith(ctx context.Context, analyzer analysis.Analyzer, cands []topo.Connection) ([]OpResult, error) {
	snap := e.Snapshot()
	out := make([]OpResult, len(cands))
	for i, cand := range cands {
		d, _, err := newTxn(snap, 0).test(ctx, analyzer, cand)
		if err != nil && IsCanceled(err) {
			return nil, err
		}
		out[i] = OpResult{Decision: d, Err: err}
	}
	return out, nil
}
