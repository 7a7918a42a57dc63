// Command delayload is the churn load generator for the delayd admission
// API. It drives a live daemon (or in-process ones it starts itself) with a
// mix of admit, release, and mixed-batch operations, measures per-operation
// latency and throughput, and writes the percentile summary to a JSON
// report — the service-level benchmark committed as BENCH_service.json
// (and, over the block fabric, BENCH_blocks.json).
//
// Usage:
//
//	delayload [-target http://host:8080 -servers s0,s1,...] | [-self 8 -analyzer integrated]
//	          [-network default] [-duration 10s] [-concurrency 4] [-mix 6:3:1]
//	          [-seed 1] [-rho 0.002] [-deadline 100] [-out BENCH_service.json]
//	          [-open-rates 100,200,400 [-open-duration 3s]]
//	          [-batch-compare 32 [-batch-trials 20]]
//	          [-gate-release-factor 0] [-gate-batch 0]
//	          [-blocks 0 [-block-switches 3]] [-prefill 0]
//
// With -target, delayload aims at a running delayd and -servers must name
// the fabric servers in path order (generated connections take random
// contiguous sub-paths). Without -target, every phase starts a fresh
// in-process delayd on a loopback listener, so no phase inherits another's
// admitted set: over a -self N-server tandem, or with -blocks B over B
// disjoint -block-switches tandems (topo.DisjointBlocks), one independent
// component each, with closed-loop worker i pinned inside block i mod B.
// -prefill admits that many connections per block (the tandem is one
// block) before the timed window, so standing state is present from the
// first measured operation. Operations go through the network-scoped /v2
// API of the -network tenant.
//
// Every phase is one scenario (scenario.go): an op source run under an
// arrival policy, with each op's latency timed from its scheduled send
// time. The phases are:
//
//   - the closed loop: -concurrency workers, each sending its next op when
//     the previous one returns, for -duration. The -mix a:r:b weights choose
//     between single admissions (POST .../connections), releases of
//     connections the worker admitted (DELETE .../connections/{name}), and
//     small mixed batches (POST .../batch). The report's "ops" section.
//   - the open-loop sweep (-open-rates r1,r2,...): per rate, Poisson
//     arrivals of the same mix for -open-duration, each sent at its
//     scheduled instant however many are still in flight, so overload
//     cannot hide behind coordinated omission. The "open_loop" section.
//   - the batch comparison (-batch-compare N): one worker alternating N
//     sequential admissions with one batch-of-N envelope of the same
//     candidates, plus the engine's own counters proving each envelope
//     committed exactly one snapshot. The "batch_bench" section.
//
// The report also records the daemon's commit conflicts per commit over
// the closed-loop window: zero when every worker owns its block, because
// the engine commits per independent component.
//
// Gates (exit status 1): any transport error or non-200 reply; a batch
// envelope averaging other than one commit; release p99 > admit p99 x
// -gate-release-factor; sequential p50 / batch p50 < -gate-batch (the
// median is gated, not the p99: a single-ms envelope's p99 is dominated by
// scheduler and GC noise). A zero factor disables its gate. Throughput and
// conflict regressions against a committed report are benchjson -diff's
// job.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"delaycalc/internal/analysis"
	"delaycalc/internal/server"
	"delaycalc/internal/service"
	"delaycalc/internal/topo"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.target, "target", "", "base URL of a running delayd (empty: start one in-process)")
	flag.StringVar(&cfg.servers, "servers", "", "comma-separated fabric server names in path order (required with -target)")
	flag.IntVar(&cfg.self, "self", 8, "tandem size of the in-process daemon (without -target)")
	flag.StringVar(&cfg.analyzer, "analyzer", "integrated", "in-process daemon's analysis: integrated or decomposed")
	flag.StringVar(&cfg.network, "network", service.DefaultNetworkID, "tenant network the /v2 operations are scoped to")
	flag.DurationVar(&cfg.duration, "duration", 10*time.Second, "closed-loop measurement window")
	flag.IntVar(&cfg.concurrency, "concurrency", 4, "closed-loop workers")
	flag.StringVar(&cfg.mix, "mix", "6:3:1", "admit:release:batch operation weights")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload RNG seed")
	flag.Float64Var(&cfg.rho, "rho", 0.002, "token rate of generated connections")
	flag.Float64Var(&cfg.deadline, "deadline", 100, "deadline of generated connections")
	flag.StringVar(&cfg.out, "out", "BENCH_service.json", "report path (empty: stdout only)")
	flag.Float64Var(&cfg.gateReleaseFactor, "gate-release-factor", 0,
		"fail when release p99 > admit p99 x this factor (0 disables the gate)")
	flag.IntVar(&cfg.blocks, "blocks", 0, "in-process fabric of this many disjoint tandem blocks instead of the -self tandem, workers pinned per block (0: tandem)")
	flag.IntVar(&cfg.blockSwitches, "block-switches", 3, "tandem switches per block (with -blocks)")
	flag.IntVar(&cfg.prefill, "prefill", 0, "connections admitted per block before the timed window")
	flag.StringVar(&cfg.openRates, "open-rates", "",
		"comma-separated Poisson arrival rates (ops/sec): run an open-loop sweep after the closed loop")
	flag.DurationVar(&cfg.openDuration, "open-duration", 0, "open-loop window per rate point (0: use -duration)")
	flag.IntVar(&cfg.batchCompare, "batch-compare", 0,
		"batch size N: benchmark one batch-of-N envelope against N sequential admissions (0 disables)")
	flag.IntVar(&cfg.batchTrials, "batch-trials", 20, "trials per arm of the batch comparison")
	flag.Float64Var(&cfg.gateBatch, "gate-batch", 0,
		"fail when sequential p50 / batch p50 < this factor (0 disables the gate)")
	flag.Parse()

	if err := run(&cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "delayload:", err)
		os.Exit(1)
	}
}

type config struct {
	target, servers   string
	self              int
	analyzer          string
	network           string
	duration          time.Duration
	concurrency       int
	mix               string
	seed              int64
	rho, deadline     float64
	out               string
	gateReleaseFactor float64

	// Block fabric (-blocks) and standing state (-prefill).
	blocks        int
	blockSwitches int
	prefill       int

	// Open-loop sweep (-open-rates) and batch comparison (-batch-compare).
	openRates    string
	openDuration time.Duration
	batchCompare int
	batchTrials  int
	gateBatch    float64
}

// opStats is the per-class section of the report.
type opStats struct {
	Count      int     `json:"count"`
	Errors     int     `json:"errors"`
	Rejected   int     `json:"rejected,omitempty"` // admission tests that said no (not errors)
	MeanMs     float64 `json:"mean_ms"`
	P50Ms      float64 `json:"p50_ms"`
	P90Ms      float64 `json:"p90_ms"`
	P99Ms      float64 `json:"p99_ms"`
	MaxMs      float64 `json:"max_ms"`
	Throughput float64 `json:"ops_per_sec"`
}

// report is the BENCH_service.json schema.
type report struct {
	Target      string             `json:"target"`
	Network     string             `json:"network,omitempty"`
	Duration    float64            `json:"duration_seconds"`
	Concurrency int                `json:"concurrency"`
	Mix         string             `json:"mix"`
	Rate        float64            `json:"rate_ops_per_sec"` // always 0: the closed loop is unthrottled
	Seed        int64              `json:"seed"`
	TotalOps    int                `json:"total_ops"`
	Throughput  float64            `json:"ops_per_sec"`
	Ops         map[string]opStats `json:"ops"`
	// Blocks, BlockSwitches and Prefill describe the fabric (0 blocks: the
	// -self or -target tandem).
	Blocks        int `json:"blocks,omitempty"`
	BlockSwitches int `json:"block_switches,omitempty"`
	Prefill       int `json:"prefill,omitempty"`
	// CommitConflicts and Commits are the daemon's counters over the
	// closed-loop window; ConflictsPerCommit is their ratio.
	CommitConflicts    uint64  `json:"commit_conflicts"`
	Commits            uint64  `json:"commits"`
	ConflictsPerCommit float64 `json:"conflicts_per_commit"`
	// EngineStats is the daemon's network-scoped stats document after the run.
	EngineStats json.RawMessage   `json:"engine_stats,omitempty"`
	OpenLoop    *openLoopReport   `json:"open_loop,omitempty"`
	BatchBench  *batchBenchReport `json:"batch_bench,omitempty"`
}

// openLoopPoint is one rate of the open-loop sweep. Latencies are measured
// from the scheduled arrival instant, so a backlog that delays dispatch or
// completion is charged to the operations that suffered it.
type openLoopPoint struct {
	TargetRate   float64 `json:"target_rate_ops_per_sec"`
	Scheduled    int     `json:"scheduled"`
	Completed    int     `json:"completed"`
	Errors       int     `json:"errors"`
	Rejected     int     `json:"rejected,omitempty"`
	AchievedRate float64 `json:"achieved_ops_per_sec"`
	MeanMs       float64 `json:"mean_ms"`
	P50Ms        float64 `json:"p50_ms"`
	P90Ms        float64 `json:"p90_ms"`
	P99Ms        float64 `json:"p99_ms"`
	MaxMs        float64 `json:"max_ms"`
}

// openLoopReport is the "open_loop" section of BENCH_service.json.
type openLoopReport struct {
	Arrival  string          `json:"arrival"` // always "poisson"
	Duration float64         `json:"duration_seconds"`
	Mix      string          `json:"mix"`
	Points   []openLoopPoint `json:"points"`
}

// batchBenchReport is the "batch_bench" section of BENCH_service.json:
// one batch-of-N envelope versus N sequential admissions, plus the
// engine-counter proof that envelopes commit once.
type batchBenchReport struct {
	BatchSize       int     `json:"batch_size"`
	Trials          int     `json:"trials"`
	SequentialP50Ms float64 `json:"sequential_p50_ms"`
	SequentialP99Ms float64 `json:"sequential_p99_ms"`
	BatchP50Ms      float64 `json:"batch_p50_ms"`
	BatchP99Ms      float64 `json:"batch_p99_ms"`
	// SpeedupP50 (sequential p50 / batch p50) is the gate statistic; the
	// p99 ratio is reported for tail visibility but too noisy to gate on.
	SpeedupP50         float64 `json:"speedup_p50"`
	Speedup            float64 `json:"speedup"` // sequential p99 / batch p99
	Envelopes          uint64  `json:"envelopes"`
	Commits            uint64  `json:"commits"`
	CommitsPerEnvelope float64 `json:"commits_per_envelope"`
}

// percentile returns the q-quantile (0 < q <= 1) of sorted samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// summarize turns one class's samples into its report section.
func summarize(r *recorder, elapsed time.Duration) opStats {
	sort.Float64s(r.latMs)
	st := opStats{
		Count:    len(r.latMs),
		Errors:   r.errors,
		Rejected: r.rejected,
		P50Ms:    percentile(r.latMs, 0.50),
		P90Ms:    percentile(r.latMs, 0.90),
		P99Ms:    percentile(r.latMs, 0.99),
	}
	if st.Count > 0 {
		sum := 0.0
		for _, v := range r.latMs {
			sum += v
		}
		st.MeanMs = sum / float64(st.Count)
		st.MaxMs = r.latMs[st.Count-1]
		st.Throughput = float64(st.Count) / elapsed.Seconds()
	}
	return st
}

// summarize reports every class of a run and the run's total sample count.
func (o *outcome) summarize() (map[string]opStats, int) {
	ops, total := make(map[string]opStats), 0
	for class, r := range o.classes {
		st := summarize(r, o.elapsed)
		ops[class] = st
		total += st.Count
	}
	return ops, total
}

func parseMix(s string) (w [3]int, err error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return w, fmt.Errorf("mix %q: want admit:release:batch", s)
	}
	for i, p := range parts {
		w[i], err = strconv.Atoi(strings.TrimSpace(p))
		if err != nil || w[i] < 0 {
			return w, fmt.Errorf("mix %q: weights must be non-negative integers", s)
		}
	}
	if w[0]+w[1]+w[2] == 0 {
		return w, fmt.Errorf("mix %q: all weights are zero", s)
	}
	return w, nil
}

// parseList parses a comma-separated list of positive numbers into
// ascending order.
func parseList(flagName, s string) ([]float64, error) {
	var vals []float64
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("%s %q: values must be positive numbers", flagName, s)
		}
		vals = append(vals, v)
	}
	if len(vals) == 0 {
		return nil, fmt.Errorf("%s %q: no values", flagName, s)
	}
	sort.Float64s(vals)
	return vals, nil
}

// pickAnalyzer resolves the -analyzer flag for the in-process daemon.
func pickAnalyzer(name string) (analysis.Analyzer, error) {
	switch name {
	case "", "integrated":
		return analysis.Integrated{}, nil
	case "decomposed":
		return analysis.Decomposed{}, nil
	default:
		return nil, fmt.Errorf("analyzer %q: want integrated or decomposed", name)
	}
}

// validate checks the settings every scenario shares.
func validate(cfg *config) ([3]int, error) {
	if cfg.network == "" {
		cfg.network = service.DefaultNetworkID
	}
	if cfg.concurrency < 1 {
		return [3]int{}, fmt.Errorf("concurrency must be at least 1")
	}
	if cfg.duration <= 0 {
		return [3]int{}, fmt.Errorf("duration must be positive")
	}
	return parseMix(cfg.mix)
}

// fabric resolves the daemon the run drives: the fabric server names in
// path order, the blocks closed-loop lanes are pinned to (one block for a
// tandem), and a connect function returning a client plus its shutdown.
// With -target every phase connects to that daemon; without it each call
// starts a fresh in-process daemon over the -self tandem or the -blocks
// fabric.
func fabric(cfg *config) ([]string, [][]string, func() (*daemon, func(), error), error) {
	if cfg.target != "" {
		if cfg.blocks > 0 {
			return nil, nil, nil, fmt.Errorf("-blocks builds an in-process fabric and cannot be combined with -target")
		}
		var names []string
		for _, n := range strings.Split(cfg.servers, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
		if len(names) == 0 {
			return nil, nil, nil, fmt.Errorf("-target requires -servers with the fabric server names in path order")
		}
		d := newDaemon(cfg.target, cfg.network)
		return names, [][]string{names}, func() (*daemon, func(), error) { return d, func() {}, nil }, nil
	}
	analyzer, err := pickAnalyzer(cfg.analyzer)
	if err != nil {
		return nil, nil, nil, err
	}
	var servers []server.Server
	switch {
	case cfg.blocks > 0:
		net, err := topo.DisjointBlocks(cfg.blocks, cfg.blockSwitches, 0.5)
		if err != nil {
			return nil, nil, nil, err
		}
		servers = net.Servers
	case cfg.self >= 1:
		servers = tandem(cfg.self)
	default:
		return nil, nil, nil, fmt.Errorf("-self must be at least 1 without -target")
	}
	names := make([]string, len(servers))
	for i, s := range servers {
		names[i] = s.Name
	}
	blocks := [][]string{names}
	if cfg.blocks > 0 {
		blocks = make([][]string, cfg.blocks)
		for i := range blocks {
			blocks[i] = names[i*cfg.blockSwitches : (i+1)*cfg.blockSwitches]
		}
	}
	return names, blocks, func() (*daemon, func(), error) { return selfServe(servers, analyzer) }, nil
}

func run(cfg *config, out io.Writer) error {
	mix, err := validate(cfg)
	if err != nil {
		return err
	}
	names, blocks, connect, err := fabric(cfg)
	if err != nil {
		return err
	}

	// The batch comparison runs first, on its own daemon: that keeps the
	// closed loop's standing state and GC heap out of the ~1 ms-scale
	// envelope samples the batch gate judges.
	var batchBench *batchBenchReport
	if cfg.batchCompare > 0 {
		if batchBench, err = runBatchCompare(cfg, names, connect, out); err != nil {
			return err
		}
	}
	d, shutdown, err := connect()
	if err != nil {
		return err
	}
	src := newChurn("ld", mix, cfg, cfg.concurrency, cfg.seed, func(i int) []string { return blocks[i%len(blocks)] })
	if err := src.prefill(d, blocks, cfg.prefill); err != nil {
		shutdown()
		return fmt.Errorf("prefill: %w", err)
	}
	var before, after service.StatsResponse
	if err := d.call("GET", "/stats", nil, &before); err != nil {
		shutdown()
		return err
	}
	res := execute(d, policy{workers: cfg.concurrency, window: cfg.duration}, src.next)
	rep := &report{
		Target:      d.host,
		Network:     cfg.network,
		Duration:    res.elapsed.Seconds(),
		Concurrency: cfg.concurrency,
		Mix:         cfg.mix,
		Seed:        cfg.seed,
		Blocks:      cfg.blocks,
		Prefill:     cfg.prefill,
		BatchBench:  batchBench,
	}
	if cfg.blocks > 0 {
		rep.BlockSwitches = cfg.blockSwitches
	}
	rep.Ops, rep.TotalOps = res.summarize()
	rep.Throughput = float64(rep.TotalOps) / res.elapsed.Seconds()
	// The daemon's own counters record how much of the churn ran
	// incrementally and how often commits collided.
	err = d.call("GET", "/stats", nil, &rep.EngineStats)
	if err == nil {
		err = json.Unmarshal(rep.EngineStats, &after)
	}
	shutdown()
	if err != nil {
		return err
	}
	rep.CommitConflicts = after.CommitConflicts - before.CommitConflicts
	rep.Commits = after.SnapshotVersion - before.SnapshotVersion
	if rep.Commits > 0 {
		rep.ConflictsPerCommit = float64(rep.CommitConflicts) / float64(rep.Commits)
	}
	res.logLastError()
	if cfg.openRates != "" {
		if rep.OpenLoop, err = runOpenLoopSweep(cfg, mix, names, connect, out); err != nil {
			return err
		}
	}

	classes := make([]string, 0, len(rep.Ops))
	for class := range rep.Ops {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	fmt.Fprintf(out, "delayload: %d ops in %.1fs (%.0f ops/s) against %s, %d conflicts / %d commits\n",
		rep.TotalOps, rep.Duration, rep.Throughput, rep.Target, rep.CommitConflicts, rep.Commits)
	fmt.Fprintf(out, "%-8s %8s %7s %9s %9s %9s %9s\n", "op", "count", "errors", "p50 ms", "p90 ms", "p99 ms", "max ms")
	for _, class := range classes {
		st := rep.Ops[class]
		fmt.Fprintf(out, "%-8s %8d %7d %9.3f %9.3f %9.3f %9.3f\n",
			class, st.Count, st.Errors, st.P50Ms, st.P90Ms, st.P99Ms, st.MaxMs)
	}
	if err := writeReport(cfg.out, rep, out); err != nil {
		return err
	}

	var failures []error
	for _, class := range classes {
		if st := rep.Ops[class]; st.Errors > 0 {
			failures = append(failures, fmt.Errorf("%d %s operations failed", st.Errors, class))
		}
	}
	if cfg.gateReleaseFactor > 0 {
		admit, release := rep.Ops["admit"], rep.Ops["release"]
		switch {
		case admit.Count == 0 || release.Count == 0:
			failures = append(failures, fmt.Errorf("release gate needs both admit and release samples (admit %d, release %d)",
				admit.Count, release.Count))
		case release.P99Ms > admit.P99Ms*cfg.gateReleaseFactor:
			failures = append(failures, fmt.Errorf("release p99 %.3fms exceeds admit p99 %.3fms x %.1f",
				release.P99Ms, admit.P99Ms, cfg.gateReleaseFactor))
		default:
			fmt.Fprintf(out, "release gate ok: release p99 %.3fms <= admit p99 %.3fms x %.1f\n",
				release.P99Ms, admit.P99Ms, cfg.gateReleaseFactor)
		}
	}
	if rep.OpenLoop != nil {
		for _, pt := range rep.OpenLoop.Points {
			if pt.Errors > 0 {
				failures = append(failures, fmt.Errorf("%d open-loop operations failed at rate %g", pt.Errors, pt.TargetRate))
			}
		}
	}
	if bb := rep.BatchBench; bb != nil {
		// The single-commit invariant is not an opt-in gate: a batch
		// envelope that committed more than one snapshot means
		// the pipelined path regressed to per-op commits.
		if bb.CommitsPerEnvelope != 1 {
			failures = append(failures, fmt.Errorf("batch envelopes averaged %.2f commits each (want exactly 1: %d commits / %d envelopes)",
				bb.CommitsPerEnvelope, bb.Commits, bb.Envelopes))
		}
		if cfg.gateBatch > 0 {
			if bb.SpeedupP50 < cfg.gateBatch {
				failures = append(failures, fmt.Errorf("batch gate: batch-of-%d p50 only %.2fx faster than sequential (need %.1fx; p99 ratio %.2fx)",
					bb.BatchSize, bb.SpeedupP50, cfg.gateBatch, bb.Speedup))
			} else {
				fmt.Fprintf(out, "batch gate ok: %.2fx >= %.1fx (p50)\n", bb.SpeedupP50, cfg.gateBatch)
			}
		}
	}
	return errors.Join(failures...)
}

// runOpenLoopSweep runs the churn mix as Poisson arrivals at every
// -open-rates point, each point on a fresh connection from connect.
func runOpenLoopSweep(cfg *config, mix [3]int, names []string, connect func() (*daemon, func(), error), out io.Writer) (*openLoopReport, error) {
	rates, err := parseList("open-rates", cfg.openRates)
	if err != nil {
		return nil, err
	}
	dur := cfg.openDuration
	if dur <= 0 {
		dur = cfg.duration
	}
	rep := &openLoopReport{Arrival: "poisson", Duration: dur.Seconds(), Mix: cfg.mix}
	fmt.Fprintf(out, "delayload: open-loop sweep (poisson arrivals, %s per point)\n", dur)
	for _, rate := range rates {
		d, shutdown, err := connect()
		if err != nil {
			return nil, fmt.Errorf("rate=%g: %w", rate, err)
		}
		seed := cfg.seed + int64(rate*1000)
		res := execute(d, policy{rate: rate, window: dur, seed: seed},
			newChurn(fmt.Sprintf("ol%g.", rate), mix, cfg, 1, seed+1, func(int) []string { return names }).next)
		shutdown()
		if res.sent == 0 {
			return nil, fmt.Errorf("rate=%g: %s schedules no arrivals", rate, dur)
		}
		res.logLastError()
		all := &recorder{}
		for _, r := range res.classes {
			all.merge(r)
		}
		st := summarize(all, res.elapsed)
		pt := openLoopPoint{
			TargetRate:   rate,
			Scheduled:    res.sent,
			Completed:    st.Count,
			Errors:       st.Errors,
			Rejected:     st.Rejected,
			AchievedRate: st.Throughput,
			MeanMs:       st.MeanMs,
			P50Ms:        st.P50Ms,
			P90Ms:        st.P90Ms,
			P99Ms:        st.P99Ms,
			MaxMs:        st.MaxMs,
		}
		rep.Points = append(rep.Points, pt)
		fmt.Fprintf(out, "rate=%-6g %5d/%d done (%.0f ops/s achieved, %d errors)  p50 %.3f  p99 %.3f  max %.3f ms\n",
			rate, pt.Completed, pt.Scheduled, pt.AchievedRate, pt.Errors, pt.P50Ms, pt.P99Ms, pt.MaxMs)
	}
	return rep, nil
}

// runBatchCompare runs the two arms of the batch comparison on one worker,
// after unrecorded warm-up trials that absorb one-time costs (connection
// setup, heap growth, the first GC cycles), and reads the daemon's batch
// counters around the recorded trials.
func runBatchCompare(cfg *config, names []string, connect func() (*daemon, func(), error), out io.Writer) (*batchBenchReport, error) {
	n, trials := cfg.batchCompare, cfg.batchTrials
	if trials < 1 {
		return nil, fmt.Errorf("batch-trials must be at least 1")
	}
	d, shutdown, err := connect()
	if err != nil {
		return nil, err
	}
	defer shutdown()
	arms := batchArms(n, names, cfg.rho, cfg.deadline)
	warmup := min(3, trials)
	if err := execute(d, policy{workers: 1, ops: armSteps * warmup}, arms).err(); err != nil {
		return nil, fmt.Errorf("batch-compare warm-up: %w", err)
	}
	var before, after service.StatsResponse
	if err := d.call("GET", "/stats", nil, &before); err != nil {
		return nil, err
	}
	res := execute(d, policy{workers: 1, ops: armSteps * trials}, arms)
	if err := res.err(); err != nil {
		return nil, fmt.Errorf("batch-compare: %w", err)
	}
	if err := d.call("GET", "/stats", nil, &after); err != nil {
		return nil, err
	}
	seq, batch := summarize(res.class("sequential"), res.elapsed), summarize(res.class("batch"), res.elapsed)
	rep := &batchBenchReport{
		BatchSize:       n,
		Trials:          trials,
		SequentialP50Ms: seq.P50Ms,
		SequentialP99Ms: seq.P99Ms,
		BatchP50Ms:      batch.P50Ms,
		BatchP99Ms:      batch.P99Ms,
		Envelopes:       after.BatchEnvelopes - before.BatchEnvelopes,
		Commits:         after.BatchCommits - before.BatchCommits,
	}
	if rep.BatchP99Ms > 0 {
		rep.Speedup = rep.SequentialP99Ms / rep.BatchP99Ms
	}
	if rep.BatchP50Ms > 0 {
		rep.SpeedupP50 = rep.SequentialP50Ms / rep.BatchP50Ms
	}
	if rep.Envelopes > 0 {
		rep.CommitsPerEnvelope = float64(rep.Commits) / float64(rep.Envelopes)
	}
	fmt.Fprintf(out, "batch-compare: %d x %d ops — sequential p50 %.3f / p99 %.3f ms, batch p50 %.3f / p99 %.3f ms (%.2fx p50, %.2fx p99), %.2f commits/envelope\n",
		trials, n, rep.SequentialP50Ms, rep.SequentialP99Ms, rep.BatchP50Ms, rep.BatchP99Ms, rep.SpeedupP50, rep.Speedup, rep.CommitsPerEnvelope)
	return rep, nil
}

// writeReport writes v as indented JSON to path (nothing when path is empty).
func writeReport(path string, v any, out io.Writer) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "report written to %s\n", path)
	return nil
}
