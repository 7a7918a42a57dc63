// Command perfbench is the repository's benchmark: it builds nothing
// itself (run.sh builds delayd and this harness from the checkout), boots
// the real delayd daemon as a separate process for the serving workloads,
// drives it over loopback HTTP, checks its outputs, and prints every
// metric by name and unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage:
//
//	perfbench -workload churn-tandem16 -seed 1 -seconds 30 -trace 0 \
//	          -delayd .bench_build/bin/delayd -work .bench_build
//
// -trace 0 measures the end-to-end metrics; -trace 1 makes a separate
// traced run that replays the workload's operation stream through every
// layer and reports the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
)

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	work     string
	delayd   string
	conns    int
}

// metricOut is one metric in the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// outcome is what a workload run hands back to main.
type outcome struct {
	metrics   map[string]float64
	attempted int
	failed    int
	problems  []string // failed output checks
	// units declares every metric the run must report, with its unit.
	units map[string]string
}

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "churn-tandem16, churn-blocks8 or oracle-falsify")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measuring time of the run")
	flag.IntVar(&trace, "trace", 0, "1: traced per-layer run instead of the end-to-end run")
	flag.StringVar(&cfg.work, "work", ".bench_build", "directory for specs, logs, spans and reports")
	flag.StringVar(&cfg.delayd, "delayd", ".bench_build/bin/delayd", "delayd binary built from this checkout")
	flag.Parse()
	cfg.trace = trace == 1
	// The load generator shares the CPUs with the daemon; collecting its
	// garbage less often leaves more of them to the daemon.
	debug.SetGCPercent(400)
	cfg.conns = runtime.NumCPU()

	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fatal(err)
	}
	env := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0), "num_cpu": runtime.NumCPU(), "go": runtime.Version(),
		"connections": cfg.conns,
	}
	env["revision"], env["dirty"] = buildRevision()
	envLine, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envLine)

	var out *outcome
	var err error
	switch cfg.workload {
	case "oracle-falsify":
		out, err = runOracle(&cfg)
	default:
		out, err = runServingWorkload(&cfg)
	}
	if err != nil {
		fatal(err)
	}
	emit(out)
}

// buildRevision returns the source revision and dirty flag go build
// stamped into this binary; run.sh builds it from the same tree as delayd.
// Outside a git checkout there is no stamp and the revision is "unknown".
func buildRevision() (rev string, dirty bool) {
	rev = "unknown"
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return rev, false
	}
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	return rev, dirty
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// runServingWorkload runs a serving workload end to end, and with -trace 1
// follows it with the traced replays.
func runServingWorkload(cfg *runConfig) (*outcome, error) {
	w, err := newServing(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	run, d, err := runServing(cfg, w)
	if err != nil {
		return nil, err
	}
	stopErr := d.stop()
	out := &outcome{problems: run.checks, units: servingEndToEnd}
	if cfg.trace {
		out.units = servingPerLayer
	}
	for _, p := range run.phases() {
		out.attempted += p.Sent
		out.failed += p.Failed
	}
	if stopErr != nil {
		out.problems = append(out.problems, "delayd shutdown: "+stopErr.Error())
	}
	if !cfg.trace {
		m, problems := run.endToEnd()
		run.report(os.Stdout)
		out.metrics = m
		out.problems = append(out.problems, problems...)
		return out, nil
	}
	run.report(os.Stdout)
	m, problems, err := traceServing(cfg, run)
	if err != nil {
		return nil, err
	}
	out.metrics = m
	out.problems = append(out.problems, problems...)
	return out, nil
}

// emit prints the metric table and the result line, and exits non-zero
// when any output check failed. Only declared metrics enter the result
// line; a declared metric that is missing or not finite fails the run.
func emit(out *outcome) {
	units := out.units
	line := resultLine{Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricOut{}}
	names := make([]string, 0, len(out.metrics))
	for name := range out.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := out.metrics[name]
		unit, declared := units[name]
		fmt.Printf("metric %-44s %14.6g %s\n", name, v, unit)
		if !declared {
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			line.Correct = false
			out.problems = append(out.problems, "metric "+name+" is not a finite number")
			continue
		}
		line.Metrics[name] = metricOut{Value: v, Unit: unit}
	}
	for name := range units {
		if _, ok := out.metrics[name]; !ok {
			line.Correct = false
			out.problems = append(out.problems, "metric "+name+" was not measured")
		}
	}
	for _, p := range out.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	if line.Attempted < 1 {
		line.Attempted = 1
	}
	data, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(data))
	if !line.Correct {
		os.Exit(1)
	}
}
