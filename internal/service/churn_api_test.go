package service

import (
	"fmt"
	"net/http"
	"strings"
	"testing"

	"delaycalc/internal/analysis"
	"delaycalc/internal/server"
)

// connBody renders an admit spec for the test fabric with a loose deadline
// so many copies fit.
func connBody(name string) string {
	return fmt.Sprintf(`{"name": %q, "sigma": 1, "rho": 0.002, "access_rate": 1, "path": ["s0", "s1"], "deadline": 100}`, name)
}

func admitN(t *testing.T, srv *Server, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		w := do(t, srv, "POST", "/v2/networks/default/connections", fmt.Sprintf(`{"connection": %s}`, connBody(fmt.Sprintf("c%d", i))))
		if w.Code != http.StatusOK {
			t.Fatalf("admit c%d: %d %s", i, w.Code, w.Body)
		}
		if resp := decode[AdmitResponse](t, w); !resp.Admitted {
			t.Fatalf("admit c%d rejected: %+v", i, resp)
		}
	}
}

func TestBatchMixedOps(t *testing.T) {
	srv := newTestServer(t, nil)
	body := fmt.Sprintf(`{"operations": [
		{"op": "admit", "connection": %s},
		{"op": "admit", "connection": %s},
		{"op": "release", "name": "a"},
		{"op": "release", "name": "ghost"},
		{"op": "admit", "connection": %s}
	]}`, connBody("a"), connBody("b"), connBody("a"))
	w := do(t, srv, "POST", "/v2/networks/default/batch", body)
	if w.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", w.Code, w.Body)
	}
	resp := decode[BatchResponse](t, w)
	if resp.Admitted != 3 || resp.Released != 1 || resp.Errors != 1 || resp.Rejected != 0 {
		t.Fatalf("batch totals: %+v", resp)
	}
	if resp.Count != 2 { // a admitted, released, re-admitted; b admitted
		t.Fatalf("final count %d, want 2", resp.Count)
	}
	if len(resp.Results) != 5 {
		t.Fatalf("want 5 envelopes, got %d", len(resp.Results))
	}
	for i, res := range resp.Results {
		if res.Index != i {
			t.Errorf("envelope %d carries index %d", i, res.Index)
		}
	}
	if r := resp.Results[0]; r.Op != "admit" || r.Status != BatchStatusAdmitted || r.Decision == nil || !r.Decision.Admitted {
		t.Errorf("op 0: %+v", r)
	}
	if r := resp.Results[2]; r.Op != "release" || r.Status != BatchStatusReleased || r.Mode == "" {
		t.Errorf("op 2: %+v", r)
	}
	if r := resp.Results[3]; r.Status != BatchStatusError || r.Error == nil || r.Error.Code != CodeNotFound {
		t.Errorf("op 3 (release of unknown name): %+v", r)
	}
	// The re-admission in op 4 saw the set as left by the release in op 2.
	if r := resp.Results[4]; r.Status != BatchStatusAdmitted {
		t.Errorf("op 4: %+v", r)
	}
}

func TestBatchRejectionEnvelope(t *testing.T) {
	srv := newTestServer(t, nil)
	// A lone flow rides through with zero queueing, so first load the
	// fabric with cross traffic; the tight-deadline candidate behind it is
	// then rejected — not an error — and its envelope carries the decision
	// with the violation list.
	cross := `{"name": "cross", "sigma": 5, "rho": 0.3, "access_rate": 1, "path": ["s0", "s1"], "deadline": 100}`
	tight := `{"name": "tight", "sigma": 1, "rho": 0.002, "access_rate": 1, "path": ["s0", "s1"], "deadline": 0.0001}`
	w := do(t, srv, "POST", "/v2/networks/default/batch", fmt.Sprintf(
		`{"operations": [{"op": "admit", "connection": %s}, {"op": "admit", "connection": %s}]}`, cross, tight))
	if w.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", w.Code, w.Body)
	}
	resp := decode[BatchResponse](t, w)
	if resp.Admitted != 1 || resp.Rejected != 1 || resp.Errors != 0 {
		t.Fatalf("totals: %+v", resp)
	}
	r := resp.Results[1]
	if r.Status != BatchStatusRejected || r.Decision == nil || r.Decision.Admitted || len(r.Decision.Violations) == 0 {
		t.Fatalf("rejected envelope: %+v", r)
	}
	if resp.Count != 1 {
		t.Fatalf("rejection committed something: count %d", resp.Count)
	}
}

// perOpBatch mixes two admissible candidates, one whose deadline no bound
// can meet (no access-rate cap, so the burst alone exceeds it), and one
// without a deadline.
const perOpBatch = `{"operations": [
  {"op": "admit", "connection": {"name": "b0", "sigma": 1, "rho": 0.02, "access_rate": 1, "path": ["s0", "s1"], "deadline": 20}},
  {"op": "admit", "connection": {"name": "b1", "sigma": 1, "rho": 0.02, "access_rate": 1, "path": ["s0"], "deadline": 20}},
  {"op": "admit", "connection": {"name": "tight", "sigma": 1, "rho": 0.02, "path": ["s0", "s1"], "deadline": 0.001}},
  {"op": "admit", "connection": {"name": "nodeadline", "sigma": 1, "rho": 0.02, "access_rate": 1, "path": ["s1"]}}
]`

// TestBatchPerOpOutcomes checks that one envelope reports every admit op on
// its own: a deadline miss is a rejection carrying its code and
// violations, and a deadline-less candidate fails alone as invalid_spec.
func TestBatchPerOpOutcomes(t *testing.T) {
	srv := newTestServer(t, nil)
	w := do(t, srv, "POST", "/v2/networks/default/batch", perOpBatch+"}")
	if w.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", w.Code, w.Body)
	}
	resp := decode[BatchResponse](t, w)
	if resp.Admitted != 2 || resp.Rejected != 1 || resp.Errors != 1 || resp.Count != 2 || len(resp.Results) != 4 {
		t.Fatalf("batch outcome: %+v", resp)
	}
	for _, r := range resp.Results[:2] {
		if r.Status != BatchStatusAdmitted || r.Decision == nil || !r.Decision.Admitted {
			t.Fatalf("good candidate not admitted: %+v", r)
		}
	}
	if r := resp.Results[2]; r.Status != BatchStatusRejected || r.Decision == nil ||
		r.Decision.Code != CodeDeadlineMissed || len(r.Decision.Violations) == 0 {
		t.Fatalf("tight candidate: %+v", r)
	}
	if r := resp.Results[3]; r.Status != BatchStatusError || r.Error == nil ||
		r.Error.Code != CodeInvalidSpec || r.Error.Message == "" {
		t.Fatalf("deadline-less candidate: %+v", r)
	}
	if srv.State().Count() != 2 {
		t.Fatalf("state count %d, want 2", srv.State().Count())
	}
}

// TestBatchDryRunCommitsNothing runs the same envelope as a dry run: the
// decisions are reported, the admitted set stays empty.
func TestBatchDryRunCommitsNothing(t *testing.T) {
	srv := newTestServer(t, nil)
	w := do(t, srv, "POST", "/v2/networks/default/batch", perOpBatch+`, "dry_run": true}`)
	resp := decode[BatchResponse](t, w)
	if w.Code != http.StatusOK || !resp.DryRun || resp.Admitted != 2 {
		t.Fatalf("dry-run batch: %d %+v", w.Code, resp)
	}
	if srv.State().Count() != 0 {
		t.Fatalf("dry-run committed %d connections", srv.State().Count())
	}
}

func TestBatchValidation(t *testing.T) {
	srv := newTestServer(t, nil)
	cases := []struct {
		name string
		body string
	}{
		{"empty", `{"operations": []}`},
		{"unknown op", `{"operations": [{"op": "compact"}]}`},
		{"admit without connection", `{"operations": [{"op": "admit"}]}`},
		{"release without name", `{"operations": [{"op": "release"}]}`},
		{"release in dry-run", `{"operations": [{"op": "release", "name": "x"}], "dry_run": true}`},
		{"negative timeout", fmt.Sprintf(`{"operations": [{"op": "admit", "connection": %s}], "timeout_seconds": -1}`, connBody("x"))},
		{"bad spec mid-batch", fmt.Sprintf(`{"operations": [{"op": "admit", "connection": %s}, {"op": "admit", "connection": {"name": "y", "path": ["nope"]}}]}`, connBody("x"))},
	}
	for _, tc := range cases {
		w := do(t, srv, "POST", "/v2/networks/default/batch", tc.body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", tc.name, w.Code, w.Body)
			continue
		}
		if env := decode[errorResponse](t, w); env.Error.Code != CodeInvalidSpec {
			t.Errorf("%s: want code %q, got %s", tc.name, CodeInvalidSpec, w.Body)
		}
	}
	// Up-front validation means the valid prefix of a malformed batch never
	// committed.
	if n := srv.State().Count(); n != 0 {
		t.Fatalf("malformed batches committed %d connections", n)
	}
}

// TestAdmitBatchBadInput sends malformed batches of admits to the /v2
// batch endpoint: each answers 400 invalid_spec and commits nothing.
func TestAdmitBatchBadInput(t *testing.T) {
	srv := newTestServer(t, nil)
	cases := map[string]string{
		"empty batch":    `{"operations": []}`,
		"unknown server": `{"operations": [{"op": "admit", "connection": {"name": "x", "sigma": 1, "rho": 0.1, "path": ["ghost"], "deadline": 5}}]}`,
		"malformed":      `{"operations": `,
	}
	for label, body := range cases {
		w := do(t, srv, "POST", "/v2/networks/default/batch", body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: want 400, got %d %s", label, w.Code, w.Body)
		}
		if env := decode[errorResponse](t, w); env.Error.Code != CodeInvalidSpec {
			t.Errorf("%s: want code %q, got %s", label, CodeInvalidSpec, w.Body)
		}
	}
	if srv.State().Count() != 0 {
		t.Fatalf("bad batch mutated state: %d", srv.State().Count())
	}
}

// TestAdmitBatchDeprecatedAlias sends a valid admit-only batch to the
// removed POST /v1/admit/batch: it answers 410 with a Link to the /v2
// mixed-op batch and admits nothing, and the same connection sent there as
// an admit op is admitted.
func TestAdmitBatchDeprecatedAlias(t *testing.T) {
	srv := newTestServer(t, nil)
	w := do(t, srv, "POST", "/v1/admit/batch", fmt.Sprintf(`{"connections": [%s]}`, connBody("legacy")))
	if w.Code != http.StatusGone {
		t.Fatalf("admit/batch: want 410, got %d %s", w.Code, w.Body)
	}
	if got := w.Header().Get("Deprecation"); got != "" {
		t.Errorf("Deprecation header %q on a removed route", got)
	}
	if got := w.Header().Get("Link"); got != `</v2/networks/default/batch>; rel="successor-version"` {
		t.Errorf("Link header %q does not point at /v2/networks/default/batch", got)
	}
	if env := decode[errorResponse](t, w); env.Error.Code != CodeGone {
		t.Errorf("want code %q, got %s", CodeGone, w.Body)
	}
	if n := srv.State().Count(); n != 0 {
		t.Fatalf("removed route admitted %d connections", n)
	}
	w = do(t, srv, "POST", "/v2/networks/default/batch",
		fmt.Sprintf(`{"operations": [{"op": "admit", "connection": %s}]}`, connBody("legacy")))
	resp := decode[BatchResponse](t, w)
	if w.Code != http.StatusOK || resp.Admitted != 1 || resp.Count != 1 {
		t.Fatalf("successor batch: %d %+v", w.Code, resp)
	}
}

func TestListPagination(t *testing.T) {
	srv := newTestServer(t, nil)
	admitN(t, srv, 5)

	// No paging parameters: the whole set, no cursor (the pre-pagination
	// contract).
	all := decode[ListResponse](t, do(t, srv, "GET", "/v2/networks/default/connections", ""))
	if all.Count != 5 || len(all.Connections) != 5 || all.NextCursor != "" {
		t.Fatalf("unpaged list: count %d, page %d, cursor %q", all.Count, len(all.Connections), all.NextCursor)
	}

	var got []string
	cursor := ""
	pages := 0
	for {
		path := "/v2/networks/default/connections?limit=2"
		if cursor != "" {
			path += "&cursor=" + cursor
		}
		w := do(t, srv, "GET", path, "")
		if w.Code != http.StatusOK {
			t.Fatalf("page %d: %d %s", pages, w.Code, w.Body)
		}
		page := decode[ListResponse](t, w)
		if page.Count != 5 {
			t.Fatalf("page %d reports count %d, want 5", pages, page.Count)
		}
		for _, c := range page.Connections {
			got = append(got, c.Name)
		}
		pages++
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if pages != 3 || len(got) != 5 {
		t.Fatalf("walked %d pages, %d connections; want 3 pages, 5 connections", pages, len(got))
	}
	for i, name := range got {
		if want := fmt.Sprintf("c%d", i); name != want {
			t.Errorf("position %d: %q, want %q (pages must be stable and ordered)", i, name, want)
		}
	}

	for _, path := range []string{
		"/v2/networks/default/connections?limit=-1",
		"/v2/networks/default/connections?limit=x",
		"/v2/networks/default/connections?cursor=%21%21",
		"/v2/networks/default/connections?cursor=" + encodeCursor(3, srv.State().SnapshotVersion())[:1],
	} {
		if w := do(t, srv, "GET", path, ""); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, w.Code)
		}
	}

	// A cursor past the end is an empty page, not an error.
	w := do(t, srv, "GET", "/v2/networks/default/connections?limit=2&cursor="+encodeCursor(99, srv.State().SnapshotVersion()), "")
	past := decode[ListResponse](t, w)
	if w.Code != http.StatusOK || len(past.Connections) != 0 || past.NextCursor != "" {
		t.Fatalf("past-the-end page: %d %+v", w.Code, past)
	}
}

func TestListServerFilter(t *testing.T) {
	srv := newTestServer(t, nil)
	// one connection crossing both servers, one entering at s1 only
	for _, body := range []string{
		`{"connection": {"name": "both", "sigma": 1, "rho": 0.002, "access_rate": 1, "path": ["s0", "s1"], "deadline": 100}}`,
		`{"connection": {"name": "tail", "sigma": 1, "rho": 0.002, "access_rate": 1, "path": ["s1"], "deadline": 100}}`,
	} {
		if w := do(t, srv, "POST", "/v2/networks/default/connections", body); w.Code != http.StatusOK {
			t.Fatalf("admit: %d %s", w.Code, w.Body)
		}
	}
	s0 := decode[ListResponse](t, do(t, srv, "GET", "/v2/networks/default/connections?server=s0", ""))
	if s0.Count != 1 || len(s0.Connections) != 1 || s0.Connections[0].Name != "both" {
		t.Fatalf("server=s0: %+v", s0)
	}
	s1 := decode[ListResponse](t, do(t, srv, "GET", "/v2/networks/default/connections?server=s1", ""))
	if s1.Count != 2 || len(s1.Connections) != 2 {
		t.Fatalf("server=s1: %+v", s1)
	}
	// The filter composes with paging.
	paged := decode[ListResponse](t, do(t, srv, "GET", "/v2/networks/default/connections?server=s1&limit=1", ""))
	if paged.Count != 2 || len(paged.Connections) != 1 || paged.NextCursor == "" {
		t.Fatalf("filtered page: %+v", paged)
	}
	if w := do(t, srv, "GET", "/v2/networks/default/connections?server=nope", ""); w.Code != http.StatusBadRequest {
		t.Fatalf("unknown server: status %d, want 400", w.Code)
	}
}

func TestRemoveReportsMode(t *testing.T) {
	// On the shared 2-server fabric every connection interferes with every
	// other, so a release's closure covers all survivors and compaction is
	// the right call under the default threshold.
	srv := newTestServer(t, nil)
	admitN(t, srv, 2)
	w := do(t, srv, "DELETE", "/v2/networks/default/connections/c0", "")
	if w.Code != http.StatusOK {
		t.Fatalf("remove: %d %s", w.Code, w.Body)
	}
	resp := decode[RemoveResponse](t, w)
	if resp.Removed != "c0" || resp.Count != 1 {
		t.Fatalf("remove response: %+v", resp)
	}
	if resp.Mode != "compacted" {
		t.Fatalf("full-closure release reported mode %q, want compacted", resp.Mode)
	}

	// Disjoint routes: the closure is empty, so the same release shrinks
	// the baseline in place and reports incremental.
	state, err := NewState([]server.Server{
		{Name: "s0", Capacity: 1, Discipline: server.FIFO},
		{Name: "s1", Capacity: 1, Discipline: server.FIFO},
		{Name: "s2", Capacity: 1, Discipline: server.FIFO},
		{Name: "s3", Capacity: 1, Discipline: server.FIFO},
	}, analysis.Integrated{})
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := NewServer(Config{State: state})
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{
		`{"connection": {"name": "left", "sigma": 1, "rho": 0.002, "access_rate": 1, "path": ["s0", "s1"], "deadline": 100}}`,
		`{"connection": {"name": "right", "sigma": 1, "rho": 0.002, "access_rate": 1, "path": ["s2", "s3"], "deadline": 100}}`,
	} {
		if w := do(t, srv2, "POST", "/v2/networks/default/connections", body); w.Code != http.StatusOK {
			t.Fatalf("admit: %d %s", w.Code, w.Body)
		}
	}
	w = do(t, srv2, "DELETE", "/v2/networks/default/connections/left", "")
	if w.Code != http.StatusOK {
		t.Fatalf("remove: %d %s", w.Code, w.Body)
	}
	if resp := decode[RemoveResponse](t, w); resp.Mode != "incremental" {
		t.Fatalf("disjoint release reported mode %q, want incremental", resp.Mode)
	}
}

func TestStatsEndpoint(t *testing.T) {
	srv := newTestServer(t, nil)
	admitN(t, srv, 3)
	do(t, srv, "DELETE", "/v2/networks/default/connections/c1", "")

	w := do(t, srv, "GET", "/v2/networks/default/stats", "")
	if w.Code != http.StatusOK {
		t.Fatalf("stats: %d %s", w.Code, w.Body)
	}
	st := decode[StatsResponse](t, w)
	if st.Analyzer != (analysis.Integrated{}).Name() || !st.Incremental {
		t.Fatalf("engine identity: %+v", st)
	}
	if st.Admitted != 2 {
		t.Fatalf("admitted %d, want 2", st.Admitted)
	}
	if st.Tests.Incremental+st.Tests.Full < 3 {
		t.Fatalf("test counters did not accumulate: %+v", st.Tests)
	}
	if st.Releases.Incremental+st.Releases.Full != 1 {
		t.Fatalf("release counters: %+v", st.Releases)
	}
	if st.BaselineEpoch == 0 {
		t.Fatalf("baseline epoch never advanced: %+v", st)
	}
	if st.SnapshotVersion == 0 {
		t.Fatalf("snapshot version never advanced: %+v", st)
	}
	if len(st.Affected) == 0 {
		t.Fatal("no affected-set histogram")
	}
	// Cumulative buckets: non-decreasing, ending at the observation count.
	prev := uint64(0)
	for i, b := range st.Affected {
		if b.Count < prev {
			t.Fatalf("bucket %d not cumulative: %+v", i, st.Affected)
		}
		prev = b.Count
	}
	if last := st.Affected[len(st.Affected)-1]; last.Count != st.AffectedCount {
		t.Fatalf("+Inf bucket %d != affected_count %d", last.Count, st.AffectedCount)
	}
}

func TestMetricsExposeReleases(t *testing.T) {
	srv := newTestServer(t, nil)
	admitN(t, srv, 1)
	do(t, srv, "DELETE", "/v2/networks/default/connections/c0", "")
	w := do(t, srv, "GET", "/v2/networks/default/metrics", "")
	body := w.Body.String()
	for _, want := range []string{
		"delayd_admission_releases_total{mode=\"incremental\"}",
		"delayd_admission_releases_total{mode=\"compacted\"}",
		"delayd_admission_baseline_epoch",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}
