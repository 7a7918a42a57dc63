package service

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// heavyConnBody renders an admit spec loading the route hard enough that
// one copy fits but two would not — the probe pair dry-run isolation tests
// lean on.
func heavyConnBody(name string) string {
	return fmt.Sprintf(`{"name": %q, "sigma": 1, "rho": 0.45, "access_rate": 1, "path": ["s0", "s1"], "deadline": 100}`, name)
}

// TestBatchSingleCommitViaStats pins the serving-side pipelining invariant
// end to end: one mixed envelope of N operations is exactly one engine
// envelope, one snapshot commit, and one version step, as exposed by
// GET /v2/networks/{netid}/stats — the same counters the CI bench gate reads.
func TestBatchSingleCommitViaStats(t *testing.T) {
	srv := newTestServer(t, nil)
	before := decode[StatsResponse](t, do(t, srv, "GET", "/v2/networks/default/stats", ""))

	var ops []string
	for i := 0; i < 8; i++ {
		ops = append(ops, fmt.Sprintf(`{"op": "admit", "connection": %s}`, connBody(fmt.Sprintf("p%d", i))))
	}
	ops = append(ops, `{"op": "release", "name": "p0"}`)
	w := do(t, srv, "POST", "/v2/networks/default/batch", fmt.Sprintf(`{"operations": [%s]}`, strings.Join(ops, ",")))
	if w.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", w.Code, w.Body)
	}
	resp := decode[BatchResponse](t, w)
	if resp.Admitted != 8 || resp.Released != 1 || resp.Errors != 0 {
		t.Fatalf("batch totals: %+v", resp)
	}

	after := decode[StatsResponse](t, do(t, srv, "GET", "/v2/networks/default/stats", ""))
	if envs := after.BatchEnvelopes - before.BatchEnvelopes; envs != 1 {
		t.Fatalf("envelope count advanced by %d, want 1", envs)
	}
	if ops := after.BatchOps - before.BatchOps; ops != 9 {
		t.Fatalf("batch op count advanced by %d, want 9", ops)
	}
	if commits := after.BatchCommits - before.BatchCommits; commits != 1 {
		t.Fatalf("a 9-op envelope took %d snapshot commits, want exactly 1", commits)
	}
	if delta := after.SnapshotVersion - before.SnapshotVersion; delta != 1 {
		t.Fatalf("snapshot version advanced by %d over one envelope, want 1", delta)
	}
}

// TestBatchDryRunPinnedSnapshot pins the dry-run isolation semantics over
// the API: candidates of one dry envelope are judged against a single
// snapshot, each alone — two identical heavy candidates must both be
// admitted (no accumulation), nothing commits, and under a concurrent
// writer the pair must never split.
func TestBatchDryRunPinnedSnapshot(t *testing.T) {
	srv := newTestServer(t, nil)
	dryPair := fmt.Sprintf(`{"dry_run": true, "operations": [
		{"op": "admit", "connection": %s},
		{"op": "admit", "connection": %s}
	]}`, heavyConnBody("x"), heavyConnBody("y"))

	w := do(t, srv, "POST", "/v2/networks/default/batch", dryPair)
	if w.Code != http.StatusOK {
		t.Fatalf("dry batch: %d %s", w.Code, w.Body)
	}
	resp := decode[BatchResponse](t, w)
	if resp.Admitted != 2 {
		t.Fatalf("dry pair accumulated state across ops: %+v", resp)
	}
	if resp.Count != 0 || srv.State().Count() != 0 {
		t.Fatalf("dry envelope committed: count %d", srv.State().Count())
	}

	// Concurrent writer: flip a heavy blocker in and out on the same route.
	// Each dry pair must stay internally consistent — x and y always agree;
	// the old per-op path re-read the live head between ops and could split
	// them.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			w := do(t, srv, "POST", "/v2/networks/default/connections",
				fmt.Sprintf(`{"connection": %s}`, heavyConnBody("blocker")))
			if w.Code != http.StatusOK {
				return
			}
			do(t, srv, "DELETE", "/v2/networks/default/connections/blocker", "")
		}
	}()
	for i := 0; i < 100; i++ {
		w := do(t, srv, "POST", "/v2/networks/default/batch", dryPair)
		if w.Code != http.StatusOK {
			t.Fatalf("dry batch %d: %d %s", i, w.Code, w.Body)
		}
		resp := decode[BatchResponse](t, w)
		if len(resp.Results) != 2 {
			t.Fatalf("dry batch %d: %d results", i, len(resp.Results))
		}
		if resp.Results[0].Status != resp.Results[1].Status {
			t.Fatalf("dry batch %d internally inconsistent: %s vs %s",
				i, resp.Results[0].Status, resp.Results[1].Status)
		}
	}
	close(stop)
	wg.Wait()
}

// TestListCursorStaleAfterWrite pins the cursor stability contract: a
// cursor is only valid against the snapshot version it was cut from, and
// any commit in between — here a release that shifts every later offset —
// turns it into 410 stale_cursor instead of silently skipping a survivor.
func TestListCursorStaleAfterWrite(t *testing.T) {
	srv := newTestServer(t, nil)
	admitN(t, srv, 5)

	w := do(t, srv, "GET", "/v2/networks/default/connections?limit=2", "")
	if w.Code != http.StatusOK {
		t.Fatalf("page 1: %d %s", w.Code, w.Body)
	}
	page1 := decode[ListResponse](t, w)
	if page1.NextCursor == "" {
		t.Fatal("page 1 returned no cursor")
	}

	// Cursor survives as long as nothing commits.
	w = do(t, srv, "GET", "/v2/networks/default/connections?limit=2&cursor="+page1.NextCursor, "")
	if w.Code != http.StatusOK {
		t.Fatalf("page 2 before write: %d %s", w.Code, w.Body)
	}
	page2 := decode[ListResponse](t, w)

	// A release between pages compacts the set: offset 4 now points past a
	// different suffix and would skip the survivor that slid into it.
	if w := do(t, srv, "DELETE", "/v2/networks/default/connections/c0", ""); w.Code != http.StatusOK {
		t.Fatalf("release: %d %s", w.Code, w.Body)
	}
	w = do(t, srv, "GET", "/v2/networks/default/connections?limit=2&cursor="+page2.NextCursor, "")
	if w.Code != http.StatusGone {
		t.Fatalf("stale cursor: status %d, want 410 (%s)", w.Code, w.Body)
	}
	e := decode[errorResponse](t, w)
	if e.Error.Code != CodeStaleCursor {
		t.Fatalf("stale cursor code %q, want %q", e.Error.Code, CodeStaleCursor)
	}

	// Restarting the listing pages cleanly over the surviving 4.
	var got []string
	cursor := ""
	for {
		path := "/v2/networks/default/connections?limit=2"
		if cursor != "" {
			path += "&cursor=" + cursor
		}
		w := do(t, srv, "GET", path, "")
		if w.Code != http.StatusOK {
			t.Fatalf("restarted page: %d %s", w.Code, w.Body)
		}
		page := decode[ListResponse](t, w)
		for _, c := range page.Connections {
			got = append(got, c.Name)
		}
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if len(got) != 4 {
		t.Fatalf("restarted listing returned %d connections, want 4: %v", len(got), got)
	}
	for _, name := range got {
		if name == "c0" {
			t.Fatal("released connection still listed")
		}
	}
}

// TestBatchEnvelopeOrderPreserved pins the in-envelope ordering semantics
// on the pipelined path: release-then-readmit of one name inside a single
// envelope resolves sequentially (release first, fresh admit after).
func TestBatchEnvelopeOrderPreserved(t *testing.T) {
	srv := newTestServer(t, nil)
	admitN(t, srv, 2)
	body := fmt.Sprintf(`{"operations": [
		{"op": "release", "name": "c0"},
		{"op": "admit", "connection": %s},
		{"op": "release", "name": "c1"}
	]}`, connBody("c0"))
	w := do(t, srv, "POST", "/v2/networks/default/batch", body)
	if w.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", w.Code, w.Body)
	}
	resp := decode[BatchResponse](t, w)
	if resp.Released != 2 || resp.Admitted != 1 || resp.Errors != 0 {
		t.Fatalf("batch totals: %+v", resp)
	}
	if resp.Results[0].Status != BatchStatusReleased ||
		resp.Results[1].Status != BatchStatusAdmitted ||
		resp.Results[2].Status != BatchStatusReleased {
		t.Fatalf("in-envelope order broken: %+v", resp.Results)
	}
	if resp.Count != 1 {
		t.Fatalf("final count %d, want 1", resp.Count)
	}
}
