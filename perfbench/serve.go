package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"delaycalc/internal/netspec"
	"delaycalc/internal/server"
	"delaycalc/internal/service"
	"delaycalc/internal/topo"
)

// servingRun is everything one serving run measured.
type servingRun struct {
	w      *serving
	setups []float64 // seconds
	// setupSteal is the host's steal share during each start-up, and
	// closedSteal during each closed-loop time window.
	setupSteal  []float64
	closedSteal []float64
	warm        *phase
	closed      *phase
	open        []*openResult
	// retried are rungs measured again because they failed while the host
	// stole CPU time; they count in the load accounting only.
	retried  []*openResult
	counters counterDelta
	cpuSec   float64
	rssMB    float64
	final    []topo.Connection
	servers  []server.Server
	checks   []string // failed output checks
	// windowLines describe the per-window values behind the medians.
	windowLines []string
}

func fmtList(xs []float64) string {
	var b strings.Builder
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.4g", x)
	}
	return b.String()
}

// phases returns every load phase for the sent/failed accounting.
func (s *servingRun) phases() []*phase {
	ps := []*phase{s.warm, s.closed}
	for _, o := range append(s.open, s.retried...) {
		ps = append(ps, &o.phase)
	}
	return ps
}

// closedWindow is the length of the closed-loop windows whose throughput
// and p50s are reported as medians.
const closedWindow = 3 * time.Second

// windows splits the run's measuring time: 60% closed loop, 30% for the
// reference (middle) rung and 5% for each other rung. The closed loop is
// extended (by up to half its length) until its pooled writes support a
// p99 and half of it was free of steal, the reference rung until its
// expected arrivals support a p99.
func windows(seconds float64) (closed, ref, other time.Duration) {
	sec := func(f float64) time.Duration { return time.Duration(f * seconds * float64(time.Second)) }
	return sec(0.6), sec(0.3), sec(0.05)
}

// runServing boots delayd for the workload, drives the closed loop and the
// open-loop ladder and checks the outputs. It returns the still-running
// daemon; the caller stops it.
func runServing(cfg *runConfig, w *serving) (*servingRun, *daemon, error) {
	run := &servingRun{w: w}
	specPath := filepath.Join(cfg.work, fmt.Sprintf("%s-seed%d.json", w.name, cfg.seed))
	if err := w.writeSpec(specPath); err != nil {
		return nil, nil, err
	}
	args := w.daemonArgs(specPath)
	startups := w.startups
	if cfg.trace {
		startups = 1
	}
	var d *daemon
	for i := 0; i < startups; i++ {
		tot0, steal0, _ := machineTicks()
		dd, took, err := startDaemon(cfg.delayd, args, filepath.Join(cfg.work, "delayd.log"))
		if err != nil {
			return nil, nil, err
		}
		tot1, steal1, _ := machineTicks()
		run.setups = append(run.setups, took.Seconds())
		run.setupSteal = append(run.setupSteal, ratio(steal1-steal0, tot1-tot0))
		if i < startups-1 {
			if err := dd.stop(); err != nil {
				return nil, nil, fmt.Errorf("stopping start-up probe: %w", err)
			}
			continue
		}
		d = dd
	}
	var meter *stealMeter
	fail := func(err error) (*servingRun, *daemon, error) {
		if meter != nil {
			meter.stop()
		}
		d.stop()
		return nil, nil, err
	}
	servers, err := fabricServers(w, specPath)
	if err != nil {
		return fail(err)
	}
	run.servers = servers

	c := httpClient(cfg.conns)
	g := newGenerator(w)
	workers := make([]*worker, cfg.conns)
	for i := range workers {
		workers[i] = &worker{
			rng:    rand.New(rand.NewSource(cfg.seed*7919 + int64(i))),
			block:  i % len(w.blocks),
			prefix: "c" + strconv.Itoa(i) + "n",
		}
	}
	run.warm = closedLoop("warm-up", c, d.base, g, workers, func(total int, _ time.Duration) bool {
		return total >= w.warmOps
	})

	ctx := context.Background()
	closedDur, refDur, rungDur := windows(cfg.seconds)
	before, metBefore, err := readCounters(ctx, c, d.base)
	if err != nil {
		return fail(err)
	}
	cpu0, err := cpuSeconds(d.cmd.Process.Pid)
	if err != nil {
		return fail(err)
	}
	// The harness's CPU time and the VM's steal are printed diagnostics
	// only; a failed read shows as zero.
	self0, _ := cpuSeconds(os.Getpid())
	tot0, steal0, _ := machineTicks()
	need := samplesFor(0.99)
	meter = startStealMeter()
	run.closed = closedLoop("closed", c, d.base, g, workers, func(total int, el time.Duration) bool {
		// Writes are 90% of the mix.
		writes := total * 9 / 10
		enough := writes >= need && meter.cleanTime() >= closedDur/2
		return el >= closedDur && (enough || el >= closedDur*3/2)
	})
	for i := 0; i < int(run.closed.Elapsed/closedWindow); i++ {
		from := run.closed.Start.Add(time.Duration(i) * closedWindow)
		run.closedSteal = append(run.closedSteal, meter.share(from, from.Add(closedWindow)))
	}
	cpu1, err := cpuSeconds(d.cmd.Process.Pid)
	if err != nil {
		return fail(err)
	}
	self1, _ := cpuSeconds(os.Getpid())
	tot1, steal1, _ := machineTicks()
	run.windowLines = append(run.windowLines, fmt.Sprintf("closed loop: delayd cpu %.2fs, harness cpu %.2fs, vm steal %.1f%% of machine time",
		cpu1-cpu0, self1-self0, 100*ratio(steal1-steal0, tot1-tot0)))
	after, metAfter, err := readCounters(ctx, c, d.base)
	if err != nil {
		return fail(err)
	}
	run.cpuSec = cpu1 - cpu0
	run.counters = counterDelta{Before: before, After: after, MetBefore: metBefore, MetAfter: metAfter}

	rng := rand.New(rand.NewSource(cfg.seed*104729 + 1))
	for i, rate := range w.rates {
		dur := rungDur
		if i == len(w.rates)/2 {
			dur = refDur
			if min := time.Duration(float64(need) * 1.1 / rate * float64(time.Second)); min > dur {
				dur = min
			}
		}
		start := time.Now()
		o := openLoop(c, d.base, g, rng, "o"+strconv.Itoa(i)+"n", rate, dur, cfg.conns, w.limitMs)
		// The top rung sits above capacity and fails by design; a lower one
		// that failed while the host stole CPU time is measured again.
		if st := meter.share(start, time.Now()); i < len(w.rates)-1 && !judge(o.rung(), w.limitMs).Passed && st > stealLimit {
			fmt.Printf("rung %g ops/s failed while the host stole %.1f%% of machine time; measuring it again\n", rate, 100*st)
			run.retried = append(run.retried, o)
			o = openLoop(c, d.base, g, rng, "o"+strconv.Itoa(i)+"n", rate, dur, cfg.conns, w.limitMs)
		}
		run.open = append(run.open, o)
	}
	meter.stop()
	meter = nil

	run.checks = append(run.checks, run.checkOutputs(ctx, c, d.base)...)
	if run.rssMB, err = peakRSSMB(d.cmd.Process.Pid); err != nil {
		return fail(err)
	}
	return run, d, nil
}

// fabricServers returns the servers delayd boots for the workload, loaded
// the way the daemon loads them.
func fabricServers(w *serving, specPath string) ([]server.Server, error) {
	if w.tandem > 0 {
		net, err := topo.PaperTandem(w.tandem, 0.5)
		if err != nil {
			return nil, err
		}
		return net.Servers, nil
	}
	data, err := os.ReadFile(specPath)
	if err != nil {
		return nil, err
	}
	net, err := netspec.Decode(data)
	if err != nil {
		return nil, err
	}
	return net.Servers, nil
}

// checkOutputs pages through the final admitted set over /v2, re-analyzes
// it with the full analyzer and checks bounds, counts and the batch commit
// invariant. It returns one message per failed check.
func (s *servingRun) checkOutputs(ctx context.Context, c *http.Client, base string) []string {
	var failed []string
	for _, p := range s.phases() {
		for _, u := range p.Unexpected {
			failed = append(failed, p.Name+": "+u)
		}
	}
	conns, listed, err := pageAdmitted(ctx, c, base, s.servers)
	if err != nil {
		return append(failed, "paging the admitted set: "+err.Error())
	}
	s.final = conns
	var st service.StatsResponse
	if err := getJSON(ctx, c, base+apiPrefix+"/stats", &st); err != nil {
		return append(failed, "reading stats: "+err.Error())
	}
	if len(conns) != st.Admitted || listed != st.Admitted {
		failed = append(failed, fmt.Sprintf("paged %d connections (list count %d) but /stats admitted is %d", len(conns), listed, st.Admitted))
	}
	if st.BatchCommits > st.BatchEnvelopes {
		failed = append(failed, fmt.Sprintf("batch commits %d exceed envelopes %d", st.BatchCommits, st.BatchEnvelopes))
	}
	analyzer, err := service.PickAnalyzer(s.w.algo)
	if err != nil {
		return append(failed, err.Error())
	}
	res, err := analyzer.Analyze(&topo.Network{Servers: s.servers, Connections: conns})
	if err != nil {
		return append(failed, "full analysis of the admitted set: "+err.Error())
	}
	for i, conn := range conns {
		if !(res.Bounds[i] <= conn.Deadline) {
			failed = append(failed, fmt.Sprintf("admitted %s has full-analysis bound %s > deadline %g",
				conn.Name, fmtBound(res.Bounds[i]), conn.Deadline))
			break
		}
	}
	return failed
}

// pageAdmitted lists the admitted set page by page through the /v2 cursor
// API and converts it back to topology connections. listed is the count
// the first page reported.
func pageAdmitted(ctx context.Context, c *http.Client, base string, servers []server.Server) ([]topo.Connection, int, error) {
	index, err := netspec.ServerIndex(servers)
	if err != nil {
		return nil, 0, err
	}
	var out []topo.Connection
	listed := -1
	cursor := ""
	for {
		url := base + apiPrefix + "/connections?limit=" + strconv.Itoa(readLimit)
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		var page service.ListResponse
		if err := getJSON(ctx, c, url, &page); err != nil {
			return nil, 0, err
		}
		if listed < 0 {
			listed = page.Count
		}
		for i := range page.Connections {
			conn, err := netspec.ConnectionFromSpec(&page.Connections[i], index)
			if err != nil {
				return nil, 0, err
			}
			out = append(out, conn)
		}
		if page.NextCursor == "" {
			return out, listed, nil
		}
		cursor = page.NextCursor
	}
}

// p50Part is the smallest part of the reference rung whose median counts
// toward open_p50_ms.
const p50Part = 200

// endToEnd computes the workload's end-to-end metrics, plus the three
// latencies the traced run reports. The closed loop is cut into windows of
// closedWindow, and those in which the host stole CPU time are left out
// (see stealLimit); throughput is the median of the rest, and the p50s are
// taken over their samples. The write p99 is the median over windows of
// at least samplesFor(0.99) writes, and the reference rung's latencies the
// medians over parts of at least p50Part arrivals (samplesFor(0.99) for
// its p99), so a burst of outside interference moves one window, not the
// result.
func (s *servingRun) endToEnd() (map[string]float64, []string) {
	var problems []string
	need := samplesFor(0.99)
	setups, cleanSetups := pickClean(s.setupSteal, (len(s.setups)+1)/2)
	m := map[string]float64{
		"setup_s":        median(pick(s.setups, setups)),
		"peak_rss_mb":    s.rssMB,
		"rejected_share": ratio(float64(s.closed.Rejected), float64(s.closed.Admits)),
	}
	// Throughput is the median over the closed loop's time windows in
	// which the host stole at most stealLimit, and each p50 is taken over
	// all samples of those windows.
	var tput []float64
	var byKind [4][]float64
	wins, clean := pickClean(s.closedSteal, minCleanWindows)
	all := timeWindows(s.closed.Samples, closedWindow, s.closed.Elapsed)
	for _, i := range wins {
		tput = append(tput, float64(len(all[i]))/closedWindow.Seconds())
		for _, x := range all[i] {
			byKind[x.kind] = append(byKind[x.kind], x.ms)
		}
	}
	// The write p99 needs samplesFor(0.99) writes per window.
	var writeP99 []float64
	for _, win := range splitByWrites(s.closed.Samples, need) {
		var writes []float64
		for _, x := range win {
			if isWrite(x.kind) {
				writes = append(writes, x.ms)
			}
		}
		if !tailSupported(len(writes), 0.99) {
			problems = append(problems, fmt.Sprintf("closed loop: %d writes do not support a p99", len(writes)))
		}
		writeP99 = append(writeP99, percentile(sorted(writes), 0.99))
	}
	stealPct := make([]float64, len(s.closedSteal))
	for i, x := range s.closedSteal {
		stealPct[i] = 100 * x
	}
	s.windowLines = append(s.windowLines,
		fmt.Sprintf("set-up: %d of %d start-ups used (steal within %g%%: %v)", len(setups), len(s.setups), 100*stealLimit, cleanSetups),
		fmt.Sprintf("closed windows: steal %% %s", fmtList(stealPct)),
		fmt.Sprintf("closed windows: %d of %d used (steal within %g%%: %v)", len(wins), len(all), 100*stealLimit, clean),
		fmt.Sprintf("closed windows: throughput %s", fmtList(tput)),
		fmt.Sprintf("closed write windows: p99 %s", fmtList(writeP99)))
	m["throughput_ops_s"] = median(tput)
	m["write_p99_ms"] = median(writeP99)
	for _, k := range []opKind{opAdmit, opRelease, opBatch, opRead} {
		m[k.String()+"_p50_ms"] = percentile(sorted(byKind[k]), 0.5)
	}
	ref := s.open[len(s.open)/2]
	var openP50, openP99 []float64
	for _, part := range chunks(ref.Latencies, p50Part) {
		openP50 = append(openP50, percentile(sorted(part), 0.5))
	}
	for _, part := range chunks(ref.Latencies, need) {
		lat := sorted(part)
		if !tailSupported(len(lat), 0.99) {
			problems = append(problems, fmt.Sprintf("open loop: %d arrivals at the reference rate do not support a p99", len(lat)))
		}
		openP99 = append(openP99, percentile(lat, 0.99))
	}
	s.windowLines = append(s.windowLines,
		fmt.Sprintf("reference rung parts: p50 %s", fmtList(openP50)),
		fmt.Sprintf("reference rung parts: p99 %s", fmtList(openP99)))
	m["open_p50_ms"] = median(openP50)
	m["open_p99_ms"] = median(openP99)
	var rungs []rung
	for _, o := range s.open {
		rungs = append(rungs, o.rung())
	}
	m["slo_rate_ops_s"] = sloRate(rungs, s.w.limitMs)
	return m, problems
}

// report prints the run's load accounting and per-rung verdicts.
func (s *servingRun) report(out *os.File) {
	fmt.Fprintf(out, "set-up: %d start-ups, seconds %v\n", len(s.setups), s.setups)
	for _, p := range s.phases() {
		fmt.Fprintf(out, "phase %-8s sent %6d succeeded %6d failed %3d rejected %5d (of %d admits) in %.2fs\n",
			p.Name, p.Sent, p.Succeeded, p.Failed, p.Rejected, p.Admits, p.Elapsed.Seconds())
	}
	for _, o := range s.open {
		v := judge(o.rung(), s.w.limitMs)
		fmt.Fprintf(out, "rung %5.0f ops/s: arrivals %5d unsent %4d p50 %.3fms p99 %.3fms lateness p99 %.3fms valid %v backlogged %v passed %v\n",
			o.Rate, len(o.Latencies), o.Unsent, percentile(sorted(o.Latencies), 0.5), v.P99, o.LatenessP99, v.Valid, o.Backlogged, v.Passed)
	}
	fmt.Fprintf(out, "final admitted set: %d connections\n", len(s.final))
	for _, l := range s.windowLines {
		fmt.Fprintln(out, l)
	}
}
