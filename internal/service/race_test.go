package service

import (
	"fmt"
	"io"
	"sync"
	"testing"

	"delaycalc/internal/analysis"
)

// TestCachePutNilRejected is the regression test for the poisoned-key bug:
// caching a nil result would serve it as a hit forever, so Put must drop
// nil instead of storing it.
func TestCachePutNilRejected(t *testing.T) {
	c := NewCache(4)
	c.Put("k", nil)
	if c.Len() != 0 {
		t.Fatalf("nil put stored an entry: len=%d", c.Len())
	}
	if res, ok := c.Get("k"); ok {
		t.Fatalf("nil put served as a hit: %v", res)
	}
	// A real result under the same key still works.
	want := &analysis.Result{Algorithm: "x"}
	c.Put("k", want)
	if res, ok := c.Get("k"); !ok || res != want {
		t.Fatalf("real put after nil put: ok=%v res=%v", ok, res)
	}
}

// TestMetricsParallel hammers every Metrics entry point from parallel
// goroutines while WriteText renders concurrently; meaningful under -race.
func TestMetricsParallel(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ep := fmt.Sprintf("POST /v2/ep%d", g%3)
			for i := 0; i < 200; i++ {
				m.RequestStarted()
				m.QueueEntered()
				m.ObserveStage("theta", 0.001*float64(i%7))
				m.ObserveStage("partition", 0.0001)
				if i%5 == 0 {
					m.DegradedServed()
				}
				if i%7 == 0 {
					m.RequestShed()
				}
				m.QueueLeft()
				m.RequestFinished(ep, 200+(i%2)*303, 0.01)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				m.WriteText(io.Discard)
				_ = m.InFlight()
				_ = m.QueueDepth()
				_ = m.Degraded()
				_ = m.Shed()
			}
		}()
	}
	wg.Wait()
	if got := m.InFlight(); got != 0 {
		t.Fatalf("in-flight gauge %d after balanced start/finish", got)
	}
	if got := m.QueueDepth(); got != 0 {
		t.Fatalf("queue depth %d after balanced enter/leave", got)
	}
}

// TestCacheParallelEviction drives Put/Get from parallel goroutines
// against a capacity far below the key universe, so evictions race with
// lookups and reinsertions; meaningful under -race.
func TestCacheParallelEviction(t *testing.T) {
	c := NewCache(8)
	results := make([]*analysis.Result, 64)
	for i := range results {
		results[i] = &analysis.Result{Algorithm: fmt.Sprintf("a%d", i)}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				k := fmt.Sprintf("key%d", (g*31+i)%len(results))
				if i%3 == 0 {
					c.Put(k, results[(g+i)%len(results)])
				} else if res, ok := c.Get(k); ok && res == nil {
					t.Error("Get returned ok with nil result")
					return
				}
				if i%97 == 0 {
					c.Put(k, nil) // must stay a no-op under pressure too
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 8 {
		t.Fatalf("cache over capacity after parallel churn: %d", c.Len())
	}
	hits, misses := c.Stats()
	if hits+misses == 0 {
		t.Fatal("no lookups recorded")
	}
}
