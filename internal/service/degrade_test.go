package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"delaycalc/internal/analysis"
	"delaycalc/internal/netspec"
	"delaycalc/internal/topo"
)

// TestAnalyzeDegradesToDecomposed forces the soft budget to expire
// instantly: the integrated analysis is cut off at its first checkpoint,
// the handler falls back to the decomposed bound, and the response is
// labeled degraded with the bound source. The bounds must match a direct
// decomposed analysis bit for bit.
func TestAnalyzeDegradesToDecomposed(t *testing.T) {
	srv := newTestServer(t, func(c *Config) { c.AnalyzeTimeout = time.Nanosecond })
	w := do(t, srv, "POST", "/v2/networks/default/analyze", analyzeBody)
	if w.Code != http.StatusOK {
		t.Fatalf("degraded analyze: %d %s", w.Code, w.Body)
	}
	resp := decode[AnalyzeResponse](t, w)
	if !resp.Degraded {
		t.Fatalf("want degraded:true, got %s", w.Body)
	}
	if resp.BoundSource != (analysis.Decomposed{}).Name() {
		t.Fatalf("want bound_source %q, got %q", (analysis.Decomposed{}).Name(), resp.BoundSource)
	}
	if resp.Algorithm != (analysis.Decomposed{}).Name() {
		t.Fatalf("degraded algorithm %q, want decomposed", resp.Algorithm)
	}
	if got := srv.Metrics().Degraded(); got != 1 {
		t.Fatalf("degraded counter = %d, want 1", got)
	}

	// The degraded bounds are exactly the decomposed analysis of the
	// posted network.
	var req AnalyzeRequest
	if err := json.Unmarshal([]byte(analyzeBody), &req); err != nil {
		t.Fatal(err)
	}
	net, err := netspec.FromSpec(&req.Network)
	if err != nil {
		t.Fatal(err)
	}
	want, err := analysis.Decomposed{}.Analyze(net)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Bounds) != len(want.Bounds) {
		t.Fatalf("degraded bounds length %d, want %d", len(resp.Bounds), len(want.Bounds))
	}
	for i := range want.Bounds {
		if float64(resp.Bounds[i]) != want.Bounds[i] {
			t.Errorf("degraded bound %d = %v, want decomposed %v", i, resp.Bounds[i], want.Bounds[i])
		}
	}

	// The degraded result was cached under the FALLBACK's key, never the
	// requested analyzer's: a later uncontended integrated request must
	// miss, while an explicit decomposed request hits.
	digest, err := netspec.Digest(net)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := srv.Cache().Get((analysis.Integrated{}).Name() + ":" + digest); ok {
		t.Fatal("degraded result cached under the integrated key")
	}
	if _, ok := srv.Cache().Get((analysis.Decomposed{}).Name() + ":" + digest); !ok {
		t.Fatal("degraded result not cached under the decomposed key")
	}
}

// TestAnalyzeDecomposedNeverDegrades pins that the fallback analyzer
// itself is exempt from the soft budget: there is nothing sound to degrade
// to below it, so it runs to completion under the hard deadline.
func TestAnalyzeDecomposedNeverDegrades(t *testing.T) {
	srv := newTestServer(t, func(c *Config) { c.AnalyzeTimeout = time.Nanosecond })
	body := strings.Replace(analyzeBody, `"integrated"`, `"decomposed"`, 1)
	w := do(t, srv, "POST", "/v2/networks/default/analyze", body)
	if w.Code != http.StatusOK {
		t.Fatalf("decomposed analyze under 1ns budget: %d %s", w.Code, w.Body)
	}
	resp := decode[AnalyzeResponse](t, w)
	if resp.Degraded {
		t.Fatalf("decomposed analysis reported degraded: %s", w.Body)
	}
}

// TestAnalyzeTimeoutOverride pins the per-request budget override: a
// negative value is rejected up front, a generous value disables the
// degradation the 1ns server default would force.
func TestAnalyzeTimeoutOverride(t *testing.T) {
	srv := newTestServer(t, func(c *Config) { c.AnalyzeTimeout = time.Nanosecond })
	bad := analyzeBody[:len(analyzeBody)-1] + `, "timeout_seconds": -1}`
	w := do(t, srv, "POST", "/v2/networks/default/analyze", bad)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("negative timeout_seconds: want 400, got %d %s", w.Code, w.Body)
	}
	generous := analyzeBody[:len(analyzeBody)-1] + `, "timeout_seconds": 30}`
	w = do(t, srv, "POST", "/v2/networks/default/analyze", generous)
	if w.Code != http.StatusOK {
		t.Fatalf("override analyze: %d %s", w.Code, w.Body)
	}
	if resp := decode[AnalyzeResponse](t, w); resp.Degraded {
		t.Fatalf("30s override still degraded: %s", w.Body)
	}
}

// TestAdmitDegradesToDecomposed forces the admission test onto the
// degraded path and checks the decision still commits: the decomposed
// bound dominates the integrated one, so an admission it grants is safe.
func TestAdmitDegradesToDecomposed(t *testing.T) {
	srv := newTestServer(t, func(c *Config) { c.AnalyzeTimeout = time.Nanosecond })
	w := do(t, srv, "POST", "/v2/networks/default/connections", admitBody)
	if w.Code != http.StatusOK {
		t.Fatalf("degraded admit: %d %s", w.Code, w.Body)
	}
	resp := decode[AdmitResponse](t, w)
	if !resp.Degraded {
		t.Fatalf("want degraded:true, got %s", w.Body)
	}
	if resp.BoundSource != (analysis.Decomposed{}).Name() {
		t.Fatalf("want bound_source %q, got %q", (analysis.Decomposed{}).Name(), resp.BoundSource)
	}
	if !resp.Admitted || resp.Count != 1 {
		t.Fatalf("degraded admit should still commit: %+v", resp)
	}
	if srv.State().Count() != 1 {
		t.Fatalf("state count = %d after degraded admit", srv.State().Count())
	}
	// The decomposed bounds the decision was made on.
	lib, err := analysis.Decomposed{}.Analyze(&topo.Network{
		Servers:     testFabric(),
		Connections: []topo.Connection{mustConnection(t, admitBody)},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range lib.Bounds {
		if float64(resp.Bounds[i]) != lib.Bounds[i] {
			t.Errorf("degraded admit bound %d = %v, want decomposed %v", i, resp.Bounds[i], lib.Bounds[i])
		}
	}
}

// TestBatchAdmitDegrades runs a batch under an instant soft budget: every
// admit decision is marked degraded and the committed count matches.
func TestBatchAdmitDegrades(t *testing.T) {
	srv := newTestServer(t, func(c *Config) { c.AnalyzeTimeout = time.Nanosecond })
	conn := connectionOf(admitBody)
	conn2 := strings.Replace(conn, `"video"`, `"audio"`, 1)
	body := fmt.Sprintf(`{"operations": [{"op": "admit", "connection": %s}, {"op": "admit", "connection": %s}]}`, conn, conn2)
	w := do(t, srv, "POST", "/v2/networks/default/batch", body)
	if w.Code != http.StatusOK {
		t.Fatalf("degraded batch: %d %s", w.Code, w.Body)
	}
	resp := decode[BatchResponse](t, w)
	if resp.Admitted != 2 || resp.Count != 2 {
		t.Fatalf("degraded batch admitted %d (count %d), want 2: %s", resp.Admitted, resp.Count, w.Body)
	}
	for i, item := range resp.Results {
		if item.Decision == nil || !item.Decision.Degraded {
			t.Errorf("batch item %d not marked degraded: %+v", i, item)
		}
	}
}

// TestPanickingAnalyzerRecovered injects an analyzer that panics mid
// analysis: the request must answer the standard 500 envelope, the panic
// must not kill the process, and the in-flight gauge must return to zero
// (the defer-based accounting satellite).
func TestPanickingAnalyzerRecovered(t *testing.T) {
	srv := newTestServer(t, nil)
	srv.pick = func(string) (analysis.Analyzer, error) { return panicAnalyzer{}, nil }
	w := do(t, srv, "POST", "/v2/networks/default/analyze", analyzeBody)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("panic analyze: want 500, got %d %s", w.Code, w.Body)
	}
	env := decode[errorResponse](t, w)
	if env.Error.Code != CodeInternal {
		t.Fatalf("panic envelope code %q, want %q", env.Error.Code, CodeInternal)
	}
	if got := srv.Metrics().InFlight(); got != 0 {
		t.Fatalf("in-flight gauge %d after recovered panic, want 0", got)
	}
	// The server keeps serving afterwards.
	if w := do(t, srv, "GET", "/v2/healthz", ""); w.Code != http.StatusOK {
		t.Fatalf("healthz after panic: %d", w.Code)
	}
}

type panicAnalyzer struct{}

func (panicAnalyzer) Name() string { return "panic" }
func (panicAnalyzer) Analyze(*topo.Network) (*analysis.Result, error) {
	panic("injected analyzer panic")
}

// TestCancelledAnalysisNoGoroutineLeak sheds a burst of instantly
// timed-out requests and checks the goroutine count settles back: the
// synchronous, context-aware analyze path leaves nothing running behind a
// shed response.
func TestCancelledAnalysisNoGoroutineLeak(t *testing.T) {
	srv := newTestServer(t, func(c *Config) { c.RequestTimeout = time.Nanosecond })
	before := runtime.NumGoroutine()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := do(t, srv, "POST", "/v2/networks/default/analyze", analyzeBody)
			if w.Code != http.StatusServiceUnavailable {
				t.Errorf("want 503, got %d", w.Code)
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked by shed analyses: %d before, %d after settle",
		before, runtime.NumGoroutine())
}

// mustConnection decodes the connection object of an AdmitRequest body
// against the test fabric.
func mustConnection(t *testing.T, body string) topo.Connection {
	t.Helper()
	var req AdmitRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	index, err := netspec.ServerIndex(testFabric())
	if err != nil {
		t.Fatal(err)
	}
	conn, err := netspec.ConnectionFromSpec(&req.Connection, index)
	if err != nil {
		t.Fatal(err)
	}
	return conn
}
