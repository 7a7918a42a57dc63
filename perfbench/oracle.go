package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"delaycalc/internal/analysis"
	"delaycalc/internal/falsify"
	"delaycalc/internal/sim"
	"delaycalc/internal/topo"
)

// Oracle budget: a reduced falsification search over the full default
// matrix, both FIFO analyzers.
const (
	oracleIters    = 20
	oracleRestarts = 2
)

var oracleAnalyzers = []analysis.Analyzer{analysis.Decomposed{}, analysis.Integrated{}}

// runOracle runs falsify.Search passes (seed, seed+1, ...) until the run's
// seconds are spent, and checks every report: no contradiction, no
// truncated pair, every attackable pair ran its whole trial budget.
func runOracle(cfg *runConfig) (*outcome, error) {
	var setups []float64
	var scenarios []falsify.Scenario
	for i := 0; i < 5; i++ {
		start := time.Now()
		m, err := falsify.DefaultMatrix()
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		scenarios = m
	}
	out := &outcome{units: oracleEndToEnd}
	if cfg.trace {
		out.units = oraclePerLayer
	}
	budget := oracleRestarts * (oracleIters + 1)
	trials := 0
	start := time.Now()
	for pass := int64(0); pass == 0 || time.Since(start).Seconds() < cfg.seconds; pass++ {
		rep, err := falsify.Search(context.Background(), scenarios, oracleAnalyzers, falsify.Options{
			Seed: cfg.seed + pass, Iterations: oracleIters, Restarts: oracleRestarts, Parallelism: cfg.conns,
		})
		out.attempted += len(scenarios) * len(oracleAnalyzers)
		if err != nil {
			out.failed += len(scenarios) * len(oracleAnalyzers)
			out.problems = append(out.problems, err.Error())
			break
		}
		for _, c := range rep.Contradictions {
			out.problems = append(out.problems, fmt.Sprintf("seed %d: contradiction on %s/%s: observed %g > bound %g",
				rep.Seed, c.Scenario, c.Analyzer, c.Observed, c.Bound))
		}
		for _, r := range rep.Results {
			trials += r.Trials
			if r.Truncated {
				out.problems = append(out.problems, fmt.Sprintf("seed %d: %s/%s truncated", rep.Seed, r.Scenario, r.Analyzer))
			}
			if !r.Unbounded && r.Trials != budget {
				out.problems = append(out.problems, fmt.Sprintf("seed %d: %s/%s ran %d of %d trials",
					rep.Seed, r.Scenario, r.Analyzer, r.Trials, budget))
			}
		}
		fmt.Printf("oracle pass seed %d: %d pairs, %d contradictions, %.2fs elapsed\n",
			rep.Seed, len(rep.Results), len(rep.Contradictions), time.Since(start).Seconds())
	}
	elapsed := time.Since(start).Seconds()
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		out.metrics = map[string]float64{
			"setup_s":      median(setups),
			"trials_per_s": float64(trials) / elapsed,
			"peak_rss_mb":  rss,
			"failed_share": float64(out.failed) / float64(out.attempted),
		}
		return out, nil
	}
	m, err := simLayer(scenarios)
	if err != nil {
		return nil, err
	}
	out.metrics = m
	return out, nil
}

// simLayer runs each scenario's all-greedy trial at the search's first
// packet size and horizon, and times the analyses the search starts from.
func simLayer(scenarios []falsify.Scenario) (map[string]float64, error) {
	var runs []simRun
	for _, sc := range scenarios {
		runs = append(runs, simRun{sc.Name, sc.Net, sim.WorstCaseHorizon(sc.Net) + 2*sc.Spread})
	}
	m, err := simTimes(runs)
	if err != nil {
		return nil, err
	}
	var analyze []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		for _, sc := range scenarios {
			for _, an := range oracleAnalyzers {
				if _, err := an.Analyze(sc.Net); err != nil {
					return nil, fmt.Errorf("analyze %s: %w", sc.Name, err)
				}
			}
		}
		analyze = append(analyze, float64(time.Since(start))/float64(time.Millisecond))
	}
	m["analysis.oracle_analyze_ms"] = median(analyze)
	return m, nil
}

// simRun is one all-greedy simulation: a network and its horizon.
type simRun struct {
	name    string
	net     *topo.Network
	horizon float64
}

// simTimes runs each simulation at falsify's first packet size and
// returns the simulator's packet rate, time and allocations per packet.
func simTimes(runs []simRun) (map[string]float64, error) {
	const packetSize = 0.05 // falsify's default first packet size
	packets := 0
	var simTime time.Duration
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	for _, r := range runs {
		start := time.Now()
		res, err := sim.Run(r.net, sim.Config{PacketSize: packetSize, Horizon: r.horizon})
		if err != nil {
			return nil, fmt.Errorf("sim %s: %w", r.name, err)
		}
		simTime += time.Since(start)
		packets += res.Delivered
	}
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs - m0
	return map[string]float64{
		"sim.packets_per_s":     float64(packets) / simTime.Seconds(),
		"sim.ns_per_packet":     float64(simTime.Nanoseconds()) / float64(packets),
		"sim.allocs_per_packet": float64(mallocs) / float64(packets),
	}, nil
}
