// Command delayload is the churn load generator for the delayd admission
// API. It drives a live daemon (or in-process ones it starts itself) with a
// mix of admit, release, and mixed-batch operations, measures per-operation
// latency and throughput, and writes the percentile summary to a JSON
// report — the service-level benchmark committed per PR as
// BENCH_service.json (or, with -shards, BENCH_shards.json).
//
// Usage:
//
//	delayload [-target http://host:8080 -servers s0,s1,...] | [-self 8 -analyzer integrated]
//	          [-network default] [-duration 10s] [-concurrency 4] [-mix 6:3:1]
//	          [-seed 1] [-rho 0.002] [-deadline 100] [-out BENCH_service.json]
//	          [-open-rates 100,200,400 [-open-duration 3s]]
//	          [-batch-compare 32 [-batch-trials 20]]
//	          [-gate-release-factor 0] [-gate-batch 0]
//
//	delayload -shards 1,2,4,8 [-blocks 8] [-block-switches 3] [-prefill 0] ...
//	          [-out BENCH_shards.json] [-gate-scaling 0]
//
// With -target, delayload aims at a running delayd and -servers must name
// the fabric servers in path order (generated connections take random
// contiguous sub-paths). Without -target, every phase starts a fresh
// in-process delayd over a -self N-server tandem on a loopback listener,
// so no phase inherits another's admitted set. Operations go through the
// network-scoped /v2 API of the -network tenant.
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
//   - the shard sweep (-shards): the closed loop repeated once per shard
//     count against a fresh daemon over a -blocks disjoint-block fabric
//     (topo.DisjointBlocks) partitioned into that many shards, with every
//     worker pinned inside one block and -prefill connections admitted per
//     block first. All runs land under the report's top-level "runs" key.
//
// Gates (exit status 1): any transport error or non-200 reply; a batch
// envelope averaging other than one commit; release p99 > admit p99 x
// -gate-release-factor; sequential p50 / batch p50 < -gate-batch (the
// median is gated, not the p99: a single-ms envelope's p99 is dominated by
// scheduler and GC noise); throughput at 4 shards (or the largest count)
// < 1-shard throughput x -gate-scaling. A zero factor disables its gate.
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
	flag.StringVar(&cfg.shards, "shards", "", "comma-separated shard counts: run the shard-scaling sweep instead of a single load run")
	flag.IntVar(&cfg.blocks, "blocks", 8, "disjoint fabric blocks in the sweep fabric (with -shards)")
	flag.IntVar(&cfg.blockSwitches, "block-switches", 3, "tandem switches per block (with -shards)")
	flag.IntVar(&cfg.prefill, "prefill", 0, "connections admitted per block before the timed window (with -shards)")
	flag.Float64Var(&cfg.gateScaling, "gate-scaling", 0,
		"fail when throughput at 4 (or max) shards < 1-shard throughput x this factor (0 disables the gate)")
	flag.StringVar(&cfg.openRates, "open-rates", "",
		"comma-separated Poisson arrival rates (ops/sec): run an open-loop sweep after the closed loop")
	flag.DurationVar(&cfg.openDuration, "open-duration", 0, "open-loop window per rate point (0: use -duration)")
	flag.IntVar(&cfg.batchCompare, "batch-compare", 0,
		"batch size N: benchmark one batch-of-N envelope against N sequential admissions (0 disables)")
	flag.IntVar(&cfg.batchTrials, "batch-trials", 20, "trials per arm of the batch comparison")
	flag.Float64Var(&cfg.gateBatch, "gate-batch", 0,
		"fail when sequential p50 / batch p50 < this factor (0 disables the gate)")
	flag.Parse()

	runner := run
	if cfg.shards != "" {
		runner = runShardSweep
		outSet := false
		flag.Visit(func(f *flag.Flag) { outSet = outSet || f.Name == "out" })
		if !outSet {
			cfg.out = "BENCH_shards.json"
		}
	}
	if err := runner(&cfg, os.Stdout); err != nil {
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

	// Shard-scaling sweep (-shards).
	shards        string
	blocks        int
	blockSwitches int
	prefill       int
	gateScaling   float64

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

// shardRun is one sweep measurement in the BENCH_shards.json report.
type shardRun struct {
	Shards            int                `json:"shards"`
	Duration          float64            `json:"duration_seconds"`
	TotalOps          int                `json:"total_ops"`
	Throughput        float64            `json:"ops_per_sec"`
	CrossShardCommits uint64             `json:"cross_shard_commits"`
	CommitConflicts   uint64             `json:"commit_conflicts"`
	Ops               map[string]opStats `json:"ops"`
}

// shardReport is the BENCH_shards.json schema. The top-level "runs" key is
// what benchjson keys its scaling diff mode on.
type shardReport struct {
	Blocks        int        `json:"blocks"`
	BlockSwitches int        `json:"block_switches"`
	Prefill       int        `json:"prefill,omitempty"`
	Duration      float64    `json:"duration_seconds"`
	Concurrency   int        `json:"concurrency"`
	Mix           string     `json:"mix"`
	Seed          int64      `json:"seed"`
	Runs          []shardRun `json:"runs"`
	ScalingFrom   int        `json:"scaling_from_shards"`
	ScalingTo     int        `json:"scaling_to_shards"`
	ScalingFactor float64    `json:"scaling_factor"`
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
// path order and a connect function returning a client plus its shutdown.
// With -target every phase connects to that daemon; without it each call
// starts a fresh in-process daemon over the -self tandem.
func fabric(cfg *config) ([]string, func() (*daemon, func(), error), error) {
	if cfg.target != "" {
		var names []string
		for _, n := range strings.Split(cfg.servers, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
		if len(names) == 0 {
			return nil, nil, fmt.Errorf("-target requires -servers with the fabric server names in path order")
		}
		d := newDaemon(cfg.target, cfg.network)
		return names, func() (*daemon, func(), error) { return d, func() {}, nil }, nil
	}
	if cfg.self < 1 {
		return nil, nil, fmt.Errorf("-self must be at least 1 without -target")
	}
	analyzer, err := pickAnalyzer(cfg.analyzer)
	if err != nil {
		return nil, nil, err
	}
	servers := tandem(cfg.self)
	names := make([]string, len(servers))
	for i, s := range servers {
		names[i] = s.Name
	}
	return names, func() (*daemon, func(), error) { return selfServe(servers, analyzer, 1) }, nil
}

func run(cfg *config, out io.Writer) error {
	mix, err := validate(cfg)
	if err != nil {
		return err
	}
	names, connect, err := fabric(cfg)
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
	res := execute(d, policy{workers: cfg.concurrency, window: cfg.duration},
		newChurn("ld", mix, cfg, cfg.concurrency, cfg.seed, func(int) []string { return names }).next)
	rep := &report{
		Target:      d.host,
		Network:     cfg.network,
		Duration:    res.elapsed.Seconds(),
		Concurrency: cfg.concurrency,
		Mix:         cfg.mix,
		Seed:        cfg.seed,
		BatchBench:  batchBench,
	}
	rep.Ops, rep.TotalOps = res.summarize()
	rep.Throughput = float64(rep.TotalOps) / res.elapsed.Seconds()
	// The daemon's own counters record how much of the churn ran
	// incrementally (and, sharded, how it spread).
	_ = d.call("GET", "/stats", nil, &rep.EngineStats)
	shutdown()
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
	fmt.Fprintf(out, "delayload: %d ops in %.1fs (%.0f ops/s) against %s\n",
		rep.TotalOps, rep.Duration, rep.Throughput, rep.Target)
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
		// envelope that committed more than one snapshot per shard means
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

// runShardSweep runs the closed loop once per shard count against a fresh
// daemon over a disjoint-block fabric, with every worker pinned inside one
// block so operations stay shard-local, and writes all runs to one report.
func runShardSweep(cfg *config, out io.Writer) error {
	mix, err := validate(cfg)
	if err != nil {
		return err
	}
	counts, err := parseList("shards", cfg.shards)
	if err != nil {
		return err
	}
	for _, c := range counts {
		if c != float64(int(c)) {
			return fmt.Errorf("shards %q: counts must be positive integers", cfg.shards)
		}
	}
	if cfg.target != "" {
		return fmt.Errorf("-shards starts its own in-process daemons and cannot be combined with -target")
	}
	if cfg.network != service.DefaultNetworkID {
		return fmt.Errorf("-shards drives the in-process daemon's default network, not -network %q", cfg.network)
	}
	if maxShards := int(counts[len(counts)-1]); cfg.blocks < maxShards {
		return fmt.Errorf("-blocks %d < max shard count %d: shards beyond the block count would idle", cfg.blocks, maxShards)
	}
	net, err := topo.DisjointBlocks(cfg.blocks, cfg.blockSwitches, 0.5)
	if err != nil {
		return err
	}
	blockNames := make([][]string, cfg.blocks)
	for i, s := range net.Servers {
		b := i / cfg.blockSwitches
		blockNames[b] = append(blockNames[b], s.Name)
	}
	laneNames := func(i int) []string { return blockNames[i%len(blockNames)] }

	sweep := shardReport{
		Blocks:        cfg.blocks,
		BlockSwitches: cfg.blockSwitches,
		Prefill:       cfg.prefill,
		Duration:      cfg.duration.Seconds(),
		Concurrency:   cfg.concurrency,
		Mix:           cfg.mix,
		Seed:          cfg.seed,
	}
	fmt.Fprintf(out, "delayload: shard sweep over %d disjoint blocks x %d switches, %d workers, %s each\n",
		cfg.blocks, cfg.blockSwitches, cfg.concurrency, cfg.duration)
	for _, c := range counts {
		shards := int(c)
		d, shutdown, err := selfServe(net.Servers, analysis.Integrated{}, shards)
		if err != nil {
			return fmt.Errorf("shards=%d: %w", shards, err)
		}
		src := newChurn("ld", mix, cfg, cfg.concurrency, cfg.seed, laneNames)
		if err := src.prefill(d, blockNames, cfg.prefill); err != nil {
			shutdown()
			return fmt.Errorf("shards=%d: prefill: %w", shards, err)
		}
		res := execute(d, policy{workers: cfg.concurrency, window: cfg.duration}, src.next)
		var stats service.StatsResponse
		statsErr := d.call("GET", "/stats", nil, &stats)
		shutdown()
		res.logLastError()
		if statsErr != nil {
			return fmt.Errorf("shards=%d: %w", shards, statsErr)
		}
		run := shardRun{
			Shards:            shards,
			Duration:          res.elapsed.Seconds(),
			CrossShardCommits: stats.CrossShardCommits,
			CommitConflicts:   stats.CommitConflicts,
		}
		run.Ops, run.TotalOps = res.summarize()
		run.Throughput = float64(run.TotalOps) / res.elapsed.Seconds()
		sweep.Runs = append(sweep.Runs, run)
		fmt.Fprintf(out, "shards=%d: %d ops in %.1fs (%.0f ops/s), %d cross-shard commits, %d conflicts\n",
			shards, run.TotalOps, run.Duration, run.Throughput, run.CrossShardCommits, run.CommitConflicts)
		for class, st := range run.Ops {
			if st.Errors > 0 {
				return fmt.Errorf("shards=%d: %d %s operations failed", shards, st.Errors, class)
			}
		}
	}

	// The scaling factor compares the 1-shard (or smallest measured) run
	// against 4 shards when measured, else the largest count.
	from, to := sweep.Runs[0], sweep.Runs[len(sweep.Runs)-1]
	for _, r := range sweep.Runs {
		if r.Shards == 4 {
			to = r
		}
	}
	sweep.ScalingFrom, sweep.ScalingTo = from.Shards, to.Shards
	if from.Throughput > 0 {
		sweep.ScalingFactor = to.Throughput / from.Throughput
	}
	fmt.Fprintf(out, "scaling: %.2fx ops/s going from %d to %d shards\n",
		sweep.ScalingFactor, sweep.ScalingFrom, sweep.ScalingTo)
	if err := writeReport(cfg.out, sweep, out); err != nil {
		return err
	}

	if cfg.gateScaling > 0 {
		if sweep.ScalingFrom == sweep.ScalingTo {
			return fmt.Errorf("scaling gate needs at least two distinct shard counts")
		}
		if sweep.ScalingFactor < cfg.gateScaling {
			return fmt.Errorf("scaling gate: %.2fx (%d -> %d shards) below required %.1fx",
				sweep.ScalingFactor, sweep.ScalingFrom, sweep.ScalingTo, cfg.gateScaling)
		}
		fmt.Fprintf(out, "scaling gate ok: %.2fx >= %.1fx\n", sweep.ScalingFactor, cfg.gateScaling)
	}
	return nil
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
