package service

import (
	"net/http"
	"strings"
	"testing"
	"time"
)

// removedSpellingCases lists every spelling from before the API settled on
// /v2 with the successor its 410 names ({name} filled in).
var removedSpellingCases = []struct{ path, successor string }{
	{"/v1/connections", "/v2/networks/default/connections"},
	{"/v1/admit", "/v2/networks/default/connections"},
	{"/connections", "/v2/networks/default/connections"},
	{"/admit", "/v2/networks/default/connections"},
	{"/v1/connections/video", "/v2/networks/default/connections/video"},
	{"/connections/video", "/v2/networks/default/connections/video"},
	{"/v1/batch", "/v2/networks/default/batch"},
	{"/v1/admit/batch", "/v2/networks/default/batch"},
	{"/v1/stats", "/v2/networks/default/stats"},
	{"/v1/analyze", "/v2/networks/default/analyze"},
	{"/analyze", "/v2/networks/default/analyze"},
	{"/v1/metrics", "/v2/networks/default/metrics"},
	{"/metrics", "/v2/networks/default/metrics"},
	{"/v1/healthz", "/v2/healthz"},
	{"/healthz", "/v2/healthz"},
}

// successorLink is the Link header a removed spelling answers with.
func successorLink(successor string) string {
	return "<" + successor + `>; rel="successor-version"`
}

// TestRemovedSpellingsGone sends every removed spelling with two methods
// each: all answer 410 gone naming the /v2 successor in the message and a
// successor-version Link, and leave the admitted set untouched.
func TestRemovedSpellingsGone(t *testing.T) {
	srv := newTestServer(t, nil)
	if w := do(t, srv, "POST", "/v2/networks/default/connections", admitBody); w.Code != http.StatusOK {
		t.Fatalf("admit: %d %s", w.Code, w.Body)
	}
	count, version := srv.State().Count(), srv.State().SnapshotVersion()

	for _, c := range removedSpellingCases {
		for _, method := range []string{"POST", "DELETE"} {
			w := do(t, srv, method, c.path, admitBody)
			if w.Code != http.StatusGone {
				t.Errorf("%s %s: want 410, got %d %s", method, c.path, w.Code, w.Body)
				continue
			}
			env := decode[errorResponse](t, w)
			if env.Error.Code != CodeGone || !strings.Contains(env.Error.Message, c.successor) {
				t.Errorf("%s %s: envelope %s does not name %s", method, c.path, w.Body, c.successor)
			}
			if got, want := w.Header().Get("Link"), successorLink(c.successor); got != want {
				t.Errorf("%s %s: Link %q, want %q", method, c.path, got, want)
			}
			if dep := w.Header().Get("Deprecation"); dep != "" {
				t.Errorf("%s %s: Deprecation header %q", method, c.path, dep)
			}
		}
	}
	if srv.State().Count() != count || srv.State().SnapshotVersion() != version {
		t.Fatalf("removed spellings changed state: count %d -> %d, version %d -> %d",
			count, srv.State().Count(), version, srv.State().SnapshotVersion())
	}
}

// TestV1AliasesAndLegacyDeprecation drives each request the /v1 aliases and
// legacy spellings used to serve: their deprecation period is over, so each
// answers 410 without a Deprecation header, and the same request sent to
// the Link target gets the answer the old spelling gave. Canonical /v2
// routes stay header-free.
func TestV1AliasesAndLegacyDeprecation(t *testing.T) {
	srv := newTestServer(t, nil)
	const nw = "/v2/networks/default"
	formerlyServed := []struct {
		method, path, body, successor string
		want                          int
	}{
		{"POST", "/connections", strings.Replace(admitBody, `"video"`, `"v2"`, 1), nw + "/connections", http.StatusOK},
		{"POST", "/admit", strings.Replace(admitBody, `"video"`, `"v3"`, 1), nw + "/connections", http.StatusOK},
		{"POST", "/v1/connections", strings.Replace(admitBody, `"video"`, `"v4"`, 1), nw + "/connections", http.StatusOK},
		{"POST", "/v1/admit", strings.Replace(admitBody, `"video"`, `"v5"`, 1), nw + "/connections", http.StatusOK},
		{"GET", "/connections", "", nw + "/connections", http.StatusOK},
		{"GET", "/v1/connections", "", nw + "/connections", http.StatusOK},
		{"POST", "/analyze", analyzeBody, nw + "/analyze", http.StatusOK},
		{"POST", "/v1/analyze", analyzeBody, nw + "/analyze", http.StatusOK},
		{"GET", "/metrics", "", nw + "/metrics", http.StatusOK},
		{"GET", "/v1/stats", "", nw + "/stats", http.StatusOK},
		{"GET", "/healthz", "", "/v2/healthz", http.StatusOK},
		{"GET", "/v1/healthz", "", "/v2/healthz", http.StatusOK},
		{"DELETE", "/connections/v2", "", nw + "/connections/v2", http.StatusOK},
		{"DELETE", "/v1/connections/v3", "", nw + "/connections/v3", http.StatusOK},
	}
	for _, c := range formerlyServed {
		w := do(t, srv, c.method, c.path, c.body)
		if w.Code != http.StatusGone {
			t.Errorf("%s %s: want 410, got %d %s", c.method, c.path, w.Code, w.Body)
			continue
		}
		if dep := w.Header().Get("Deprecation"); dep != "" {
			t.Errorf("%s %s: removed spelling still sends Deprecation %q", c.method, c.path, dep)
		}
		link := w.Header().Get("Link")
		if link != successorLink(c.successor) {
			t.Errorf("%s %s: Link header %q does not point at %s", c.method, c.path, link, c.successor)
			continue
		}
		target := strings.TrimPrefix(link[:strings.Index(link, ">")], "<")
		if w := do(t, srv, c.method, target, c.body); w.Code != c.want {
			t.Errorf("%s %s (successor of %s): want %d, got %d %s", c.method, target, c.path, c.want, w.Code, w.Body)
		}
	}
	if n := srv.State().Count(); n != 2 {
		t.Fatalf("successors left %d connections admitted, want 2 (v4, v5)", n)
	}

	// Canonical /v2 routes answer without deprecation headers.
	for _, path := range []string{nw + "/connections", nw + "/metrics", nw + "/stats", "/v2/healthz", "/v2/networks"} {
		w := do(t, srv, "GET", path, "")
		if w.Code != http.StatusOK || w.Header().Get("Deprecation") != "" {
			t.Errorf("GET %s: canonical route deprecated itself: %d %q", path, w.Code, w.Header().Get("Deprecation"))
		}
	}
}

// TestLegacyRoutesShareMetricsLabel pins the cardinality contract: every
// removed spelling is counted under the one "removed" label, the /v2
// canonical route under its label with a literal {netid} placeholder, and
// no spelling leaks a label of its own.
func TestLegacyRoutesShareMetricsLabel(t *testing.T) {
	srv := newTestServer(t, nil)
	for _, c := range removedSpellingCases {
		do(t, srv, "POST", c.path, admitBody)
	}
	do(t, srv, "POST", "/v2/networks/default/connections", admitBody)
	if n := srv.Metrics().RequestCount(epRemoved, http.StatusGone); n != uint64(len(removedSpellingCases)) {
		t.Fatalf("removed-spelling label count %d, want %d", n, len(removedSpellingCases))
	}
	if n := srv.Metrics().RequestCount("POST /v2/networks/{netid}/connections", http.StatusOK); n != 1 {
		t.Fatalf("canonical label count %d, want 1", n)
	}
	for _, stale := range []string{"POST /connections", "POST /v1/connections", "POST /v2/networks/default/connections"} {
		for _, code := range []int{http.StatusOK, http.StatusGone} {
			if n := srv.Metrics().RequestCount(stale, code); n != 0 {
				t.Fatalf("spelling %q leaked its own metrics label (%d at %d)", stale, n, code)
			}
		}
	}
}

// TestErrorEnvelopeCodes asserts the error envelope shape
// {"error":{"code","message"}} and the stable code for every failure mode.
func TestErrorEnvelopeCodes(t *testing.T) {
	srv := newTestServer(t, func(c *Config) { c.MaxBodyBytes = 512 })
	cases := []struct {
		label, method, path, body string
		status                    int
		code                      string
	}{
		{"malformed JSON", "POST", "/v2/networks/default/connections", `{"connection": `, http.StatusBadRequest, CodeInvalidSpec},
		{"unknown server", "POST", "/v2/networks/default/connections",
			`{"connection": {"name": "x", "sigma": 1, "rho": 0.1, "path": ["nope"], "deadline": 5}}`,
			http.StatusBadRequest, CodeInvalidSpec},
		{"no deadline", "POST", "/v2/networks/default/connections",
			`{"connection": {"name": "x", "sigma": 1, "rho": 0.1, "path": ["s0"]}}`,
			http.StatusBadRequest, CodeInvalidSpec},
		{"unknown analyzer", "POST", "/v2/networks/default/analyze",
			strings.Replace(analyzeBody, `"integrated"`, `"quantum"`, 1),
			http.StatusBadRequest, CodeUnknownAnalyzer},
		{"remove missing", "DELETE", "/v2/networks/default/connections/ghost", "", http.StatusNotFound, CodeNotFound},
		{"oversized body", "POST", "/v2/networks/default/connections",
			`{"connection": {"name": "` + strings.Repeat("x", 600) + `"}}`,
			http.StatusRequestEntityTooLarge, CodeBodyTooLarge},
	}
	for _, c := range cases {
		w := do(t, srv, c.method, c.path, c.body)
		if w.Code != c.status {
			t.Errorf("%s: want %d, got %d %s", c.label, c.status, w.Code, w.Body)
			continue
		}
		env := decode[errorResponse](t, w)
		if env.Error.Code != c.code {
			t.Errorf("%s: want code %q, got %q (%s)", c.label, c.code, env.Error.Code, w.Body)
		}
		if env.Error.Message == "" {
			t.Errorf("%s: empty error message", c.label)
		}
	}
}

// TestErrorEnvelopeTimeout pins the shed envelope on every timed endpoint:
// a passed hard deadline answers 503 + Retry-After with the timeout code.
func TestErrorEnvelopeTimeout(t *testing.T) {
	srv := newTestServer(t, func(c *Config) { c.RequestTimeout = time.Nanosecond })
	for _, c := range []struct{ path, body string }{
		{"/v2/networks/default/analyze", analyzeBody},
		{"/v2/networks/default/connections", admitBody},
		{"/v2/networks/default/batch", `{"operations": [{"op": "admit", "connection": ` + connectionOf(admitBody) + `}]}`},
	} {
		w := do(t, srv, "POST", c.path, c.body)
		if w.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s: want 503, got %d %s", c.path, w.Code, w.Body)
		}
		if got := w.Header().Get("Retry-After"); got == "" {
			t.Fatalf("%s: shed response missing Retry-After header", c.path)
		}
		if env := decode[errorResponse](t, w); env.Error.Code != CodeTimeout {
			t.Fatalf("%s: want code %q, got %s", c.path, CodeTimeout, w.Body)
		}
	}
}

// connectionOf extracts the connection object from an AdmitRequest body.
func connectionOf(admitBody string) string {
	s := strings.TrimPrefix(admitBody, `{"connection": `)
	return strings.TrimSuffix(s, `}`)
}

// TestAdmitRejectionCarriesCodeAndViolations checks the structured
// rejection contract on the 200-level decision body: stable code plus the
// violating connection with bound and deadline as fields, not prose.
func TestAdmitRejectionCarriesCodeAndViolations(t *testing.T) {
	srv := newTestServer(t, nil)
	tight := strings.Replace(admitBody, `"deadline": 20`, `"deadline": 0.001`, 1)
	tight = strings.Replace(tight, `"access_rate": 1, `, "", 1)
	w := do(t, srv, "POST", "/v2/networks/default/connections", tight)
	resp := decode[AdmitResponse](t, w)
	if w.Code != http.StatusOK || resp.Admitted {
		t.Fatalf("want clean rejection, got %d %+v", w.Code, resp)
	}
	if resp.Code != CodeDeadlineMissed {
		t.Fatalf("want code %q, got %q", CodeDeadlineMissed, resp.Code)
	}
	if len(resp.Violations) == 0 {
		t.Fatal("rejection carries no violations")
	}
	v := resp.Violations[0]
	if v.Connection != "video" || v.Deadline != 0.001 || float64(v.Bound) <= v.Deadline {
		t.Fatalf("violation not structured: %+v", v)
	}

	// Unstable trials carry their own code.
	unstable := strings.Replace(admitBody, `"rho": 0.02`, `"rho": 1.5`, 1)
	unstable = strings.Replace(unstable, `"access_rate": 1, `, "", 1)
	w = do(t, srv, "POST", "/v2/networks/default/connections", unstable)
	resp = decode[AdmitResponse](t, w)
	if w.Code != http.StatusOK || resp.Admitted || resp.Code != CodeUnstable {
		t.Fatalf("want unstable rejection, got %d %+v", w.Code, resp)
	}
}

// TestEngineMetricsExposed checks the new admission-engine series on the
// canonical metrics route.
func TestEngineMetricsExposed(t *testing.T) {
	srv := newTestServer(t, nil)
	do(t, srv, "POST", "/v2/networks/default/connections", admitBody)
	do(t, srv, "POST", "/v2/networks/default/connections", strings.Replace(admitBody, `"video"`, `"v2"`, 1))
	w := do(t, srv, "GET", "/v2/networks/default/metrics", "")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics: %d", w.Code)
	}
	body := w.Body.String()
	for _, want := range []string{
		`delayd_admission_incremental_enabled 1`,
		`delayd_admission_tests_total{mode="incremental"}`,
		`delayd_admission_tests_total{mode="full"} 0`,
		`delayd_admission_commit_conflicts_total 0`,
		`delayd_admission_affected_connections_count 2`,
		`delayd_admission_affected_connections_bucket{le="+Inf"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n%s", want, body)
		}
	}
}
