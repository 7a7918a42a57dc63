package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestParseMix(t *testing.T) {
	w, err := parseMix("6:3:1")
	if err != nil || w != [3]int{6, 3, 1} {
		t.Fatalf("6:3:1 -> %v %v", w, err)
	}
	for _, bad := range []string{"", "1:2", "1:2:3:4", "-1:2:3", "x:2:3", "0:0:0"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("mix %q accepted", bad)
		}
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		q    float64
		want float64
	}{{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}}
	for _, tc := range cases {
		if got := percentile(sorted, tc.q); got != tc.want {
			t.Errorf("p%v = %g, want %g", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %g", got)
	}
}

// TestRunInProcess drives a short closed loop against the self-started
// daemon and checks the report lands on disk with the committed schema.
func TestRunInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("load run skipped in -short mode")
	}
	out := filepath.Join(t.TempDir(), "BENCH_service.json")
	cfg := &config{
		self:        4,
		duration:    500 * time.Millisecond,
		concurrency: 2,
		mix:         "6:3:1",
		seed:        1,
		rho:         0.002,
		deadline:    100,
		out:         out,
	}
	var buf bytes.Buffer
	if err := run(cfg, &buf); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.TotalOps == 0 || rep.Throughput <= 0 {
		t.Fatalf("empty report: %+v", rep)
	}
	admit, ok := rep.Ops["admit"]
	if !ok || admit.Count == 0 || admit.P99Ms <= 0 {
		t.Fatalf("no admit samples: %+v", rep.Ops)
	}
	if admit.Errors != 0 {
		t.Fatalf("admit errors: %+v", admit)
	}
	if len(rep.EngineStats) == 0 {
		t.Fatal("report is missing the daemon's stats document")
	}
	if !strings.Contains(buf.String(), "report written") {
		t.Fatalf("missing summary output:\n%s", buf.String())
	}
}

// runReport runs cfg in-process and decodes the report it wrote.
func runReport[T any](t *testing.T, cfg *config) T {
	t.Helper()
	cfg.out = filepath.Join(t.TempDir(), "report.json")
	var buf bytes.Buffer
	if err := run(cfg, &buf); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}
	data, err := os.ReadFile(cfg.out)
	if err != nil {
		t.Fatal(err)
	}
	var rep T
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	return rep
}

// shortRun is a ~100 ms closed loop on the 4-server tandem that the
// scenario tests extend with the phase under test.
func shortRun() *config {
	return &config{self: 4, duration: 100 * time.Millisecond, concurrency: 2, mix: "6:3:1",
		seed: 1, rho: 0.002, deadline: 100}
}

// TestOpenLoopPoint runs one Poisson rate point after the closed loop and
// checks the "open_loop" section: every scheduled arrival completed.
func TestOpenLoopPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("load run skipped in -short mode")
	}
	cfg := shortRun()
	cfg.openRates, cfg.openDuration = "200", 200*time.Millisecond
	rep := runReport[report](t, cfg)
	ol := rep.OpenLoop
	if ol == nil || ol.Arrival != "poisson" || ol.Duration != 0.2 || ol.Mix != "6:3:1" || len(ol.Points) != 1 {
		t.Fatalf("open_loop section: %+v", ol)
	}
	pt := ol.Points[0]
	if pt.TargetRate != 200 || pt.Scheduled == 0 || pt.Completed != pt.Scheduled || pt.Errors != 0 {
		t.Fatalf("open-loop point: %+v", pt)
	}
	if pt.AchievedRate <= 0 || pt.P50Ms <= 0 || pt.P99Ms < pt.P50Ms || pt.MaxMs < pt.P99Ms {
		t.Fatalf("open-loop latencies: %+v", pt)
	}
}

// TestBatchCompare runs the batch comparison (N=4, 3 trials) and checks the
// "batch_bench" section, including one commit per envelope.
func TestBatchCompare(t *testing.T) {
	if testing.Short() {
		t.Skip("load run skipped in -short mode")
	}
	cfg := shortRun()
	cfg.batchCompare, cfg.batchTrials = 4, 3
	bb := runReport[report](t, cfg).BatchBench
	if bb == nil || bb.BatchSize != 4 || bb.Trials != 3 {
		t.Fatalf("batch_bench section: %+v", bb)
	}
	if bb.SequentialP50Ms <= 0 || bb.BatchP50Ms <= 0 || bb.SpeedupP50 <= 0 || bb.Speedup <= 0 {
		t.Fatalf("batch_bench latencies: %+v", bb)
	}
	// Three trials of one batch envelope and two cleanup envelopes each.
	if bb.Envelopes != 9 || bb.Commits != 9 || bb.CommitsPerEnvelope != 1 {
		t.Fatalf("batch_bench commits: %+v", bb)
	}
}

// TestBlockChurn runs the block-pinned closed loop over two disjoint
// blocks with prefilled standing state and checks the report: one worker
// per block means one writer per component, so no commit may conflict.
func TestBlockChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("load run skipped in -short mode")
	}
	cfg := shortRun()
	cfg.duration = 150 * time.Millisecond
	cfg.blocks, cfg.blockSwitches, cfg.prefill = 2, 3, 5
	cfg.network = "default"
	rep := runReport[report](t, cfg)
	if rep.Blocks != 2 || rep.BlockSwitches != 3 || rep.Prefill != 5 || rep.Concurrency != 2 {
		t.Fatalf("block report: %+v", rep)
	}
	if rep.TotalOps == 0 || rep.Throughput <= 0 || rep.Commits == 0 {
		t.Fatalf("empty block run: %+v", rep)
	}
	for class, st := range rep.Ops {
		if st.Errors != 0 {
			t.Fatalf("%d %s errors", st.Errors, class)
		}
	}
	if rep.CommitConflicts != 0 || rep.ConflictsPerCommit != 0 {
		t.Fatalf("disjoint block workers conflicted: %d conflicts over %d commits", rep.CommitConflicts, rep.Commits)
	}
	var stats struct {
		Admitted   int `json:"admitted"`
		Components int `json:"components"`
	}
	if err := json.Unmarshal(rep.EngineStats, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Admitted < 10 || stats.Components != 2 {
		t.Fatalf("engine stats after the run: %+v", stats)
	}
}

// TestRunValidation covers the argument errors.
func TestRunValidation(t *testing.T) {
	base := config{self: 4, duration: time.Second, concurrency: 1, mix: "1:1:1"}
	cases := []func(*config){
		func(c *config) { c.mix = "nope" },
		func(c *config) { c.concurrency = 0 },
		func(c *config) { c.duration = 0 },
		func(c *config) { c.self = 0 },
		func(c *config) { c.target = "http://127.0.0.1:1"; c.servers = "" },
		func(c *config) { c.target = "http://127.0.0.1:1"; c.servers = "s0"; c.blocks = 2 },
	}
	for i, mutate := range cases {
		cfg := base
		mutate(&cfg)
		if err := run(&cfg, &bytes.Buffer{}); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}
