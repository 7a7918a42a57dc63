package service

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"delaycalc/internal/analysis"
)

// benchServer builds a server over the test fabric with the given cache
// capacity (0 disables caching, forcing every analyze to run the analyzer).
func benchServer(b *testing.B, cacheSize int) *Server {
	b.Helper()
	state, err := NewState(testFabric(), analysis.Integrated{})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewServer(Config{State: state, Cache: NewCache(cacheSize)})
	if err != nil {
		b.Fatal(err)
	}
	return srv
}

// benchAnalyzeSpec is a 4-server tandem with cross traffic, big enough
// that the integrated analysis does real work per miss.
func benchAnalyzeSpec() string {
	var sb strings.Builder
	sb.WriteString(`{"analyzer": "integrated", "network": {"servers": [`)
	for i := 0; i < 4; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, `{"name": "s%d", "capacity": 1}`, i)
	}
	sb.WriteString(`], "connections": [`)
	sb.WriteString(`{"name": "through", "sigma": 1, "rho": 0.05, "path": ["s0", "s1", "s2", "s3"]}`)
	for i := 0; i < 3; i++ {
		fmt.Fprintf(&sb, `, {"name": "cross%d", "sigma": 1, "rho": 0.05, "path": ["s%d", "s%d"]}`, i, i, i+1)
	}
	sb.WriteString(`]}}`)
	return sb.String()
}

func benchAnalyzeOnce(b *testing.B, srv *Server, body string, wantCached string) {
	b.Helper()
	r := httptest.NewRequest("POST", "/v2/networks/default/analyze", strings.NewReader(body))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		b.Fatalf("analyze: %d %s", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), wantCached) {
		b.Fatalf("want %s in response, got %s", wantCached, w.Body)
	}
}

// BenchmarkAnalyzeCacheHit measures the full HTTP round trip when the
// result is served from the LRU cache: decode + digest + lookup.
func BenchmarkAnalyzeCacheHit(b *testing.B) {
	srv := benchServer(b, DefaultCacheSize)
	body := benchAnalyzeSpec()
	benchAnalyzeOnce(b, srv, body, `"cached": false`) // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchAnalyzeOnce(b, srv, body, `"cached": true`)
	}
}

// BenchmarkAnalyzeCacheMiss measures the same round trip with caching
// disabled, i.e. running the integrated analysis every time. The ratio to
// BenchmarkAnalyzeCacheHit is the cache win.
func BenchmarkAnalyzeCacheMiss(b *testing.B) {
	srv := benchServer(b, 0)
	body := benchAnalyzeSpec()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchAnalyzeOnce(b, srv, body, `"cached": false`)
	}
}
