// Command benchjson converts `go test -bench` output on stdin into a JSON
// array on stdout, one object per benchmark result. It exists so make
// targets can publish machine-readable benchmark artifacts
// (e.g. BENCH_curves.json) without external tooling.
//
//	go test -bench=. -benchmem ./internal/minplus | benchjson > bench.json
//
// Each object carries the benchmark name (GOMAXPROCS suffix stripped), the
// owning package (from the interleaved "pkg:" headers), the iteration
// count, and whichever of ns/op, B/op, and allocs/op the run reported.
// Results are sorted by (pkg, name) so re-running the same benchmark set
// yields byte-identical artifacts regardless of package execution order.
//
// With -diff the freshly parsed results are additionally compared against
// a committed snapshot:
//
//	go test -bench=. ./... | benchjson -diff BENCH_curves.json -tolerance 1.3
//
// A benchmark whose ns/op exceeds tolerance times its snapshot value is a
// regression; benchjson prints every comparison to stderr and exits 2 if
// any benchmark regressed. Benchmarks present on only one side are
// reported but do not fail the gate (new benchmarks land before their
// snapshot does).
//
// When the -diff snapshot is a JSON object rather than an array, it is
// treated as a delayload report (BENCH_service.json, BENCH_blocks.json)
// and stdin must be a fresh report from the same tool. The per-operation
// p99_ms latencies are compared under the same tolerance, a block-fabric
// snapshot's closed-loop throughput regresses when the fresh run falls
// below it divided by the tolerance, and a snapshot's conflicts_per_commit
// is a bound the fresh run must not exceed:
//
//	delayload -self 8 ... -out /dev/stdout | benchjson -diff BENCH_service.json
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

type result struct {
	Name        string  `json:"name"`
	Pkg         string  `json:"pkg,omitempty"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

func (r result) key() string { return r.Pkg + " " + r.Name }

func parse(sc *bufio.Scanner) ([]result, error) {
	var results []result
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "pkg:"); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		name := fields[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		r := result{Name: name, Pkg: pkg, Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				r.NsPerOp = v
			case "B/op":
				r.BytesPerOp = int64(v)
			case "allocs/op":
				r.AllocsPerOp = int64(v)
			}
		}
		results = append(results, r)
	}
	return results, sc.Err()
}

// diff compares current ns/op against the snapshot per (pkg, name) and
// reports whether any benchmark regressed past the tolerance factor.
func diff(current, snapshot []result, tolerance float64) bool {
	base := make(map[string]result, len(snapshot))
	for _, r := range snapshot {
		base[r.key()] = r
	}
	regressed := false
	seen := make(map[string]bool, len(current))
	for _, r := range current {
		seen[r.key()] = true
		b, ok := base[r.key()]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchjson: %-60s NEW (no snapshot entry)\n", r.key())
			continue
		}
		if b.NsPerOp <= 0 || r.NsPerOp <= 0 {
			continue
		}
		ratio := r.NsPerOp / b.NsPerOp
		status := "ok"
		if ratio > tolerance {
			status = "REGRESSED"
			regressed = true
		}
		fmt.Fprintf(os.Stderr, "benchjson: %-60s %12.0f -> %12.0f ns/op (%.2fx) %s\n",
			r.key(), b.NsPerOp, r.NsPerOp, ratio, status)
	}
	for _, b := range snapshot {
		if !seen[b.key()] {
			fmt.Fprintf(os.Stderr, "benchjson: %-60s MISSING from current run\n", b.key())
		}
	}
	return regressed
}

// serviceReport is the slice of a delayload report the service diff reads:
// per-operation closed-loop latencies, the open-loop sweep, and the
// batched-vs-sequential comparison. Sections absent from either side are
// skipped, never failed — reports grow sections over time and a snapshot
// predating one must not block the build that introduces it.
type serviceReport struct {
	Blocks             int      `json:"blocks"`
	Throughput         float64  `json:"ops_per_sec"`
	ConflictsPerCommit *float64 `json:"conflicts_per_commit"`
	Ops                map[string]struct {
		P99 float64 `json:"p99_ms"`
	} `json:"ops"`
	OpenLoop *struct {
		Points []struct {
			TargetRate float64 `json:"target_rate_ops_per_sec"`
			P99        float64 `json:"p99_ms"`
		} `json:"points"`
	} `json:"open_loop"`
	BatchBench *struct {
		BatchSize  int     `json:"batch_size"`
		SpeedupP50 float64 `json:"speedup_p50"`
	} `json:"batch_bench"`
}

// diffService compares two delayload reports: per-operation and per-rate
// open-loop p99 latencies regress upward (current > snapshot x tolerance),
// the batch speedup and a block-fabric run's closed-loop throughput
// regress downward (current < snapshot / tolerance), and conflicts per
// commit regress when they exceed the snapshot's value at all.
func diffService(current, snapshot []byte, tolerance float64) (bool, error) {
	var cur, base serviceReport
	if err := json.Unmarshal(current, &cur); err != nil {
		return false, fmt.Errorf("current service report: %w", err)
	}
	if err := json.Unmarshal(snapshot, &base); err != nil {
		return false, fmt.Errorf("snapshot service report: %w", err)
	}
	regressed := false
	if base.Blocks > 0 && base.Throughput > 0 {
		status := "ok"
		if cur.Throughput < base.Throughput/tolerance {
			status = "REGRESSED"
			regressed = true
		}
		fmt.Fprintf(os.Stderr, "benchjson: throughput %8.0f -> %8.0f ops/s (%.2fx) %s\n",
			base.Throughput, cur.Throughput, cur.Throughput/base.Throughput, status)
	}
	if base.ConflictsPerCommit != nil {
		c := math.NaN()
		if cur.ConflictsPerCommit != nil {
			c = *cur.ConflictsPerCommit
		}
		status := "ok"
		if !(c <= *base.ConflictsPerCommit) {
			status = "REGRESSED"
			regressed = true
		}
		fmt.Fprintf(os.Stderr, "benchjson: conflicts/commit %.4f (bound %.4f) %s\n",
			c, *base.ConflictsPerCommit, status)
	}
	names := make([]string, 0, len(cur.Ops))
	for name := range cur.Ops {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b, ok := base.Ops[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchjson: op %-10s NEW (no snapshot entry)\n", name)
			continue
		}
		c := cur.Ops[name]
		if b.P99 <= 0 || c.P99 <= 0 {
			continue
		}
		ratio := c.P99 / b.P99
		status := "ok"
		if ratio > tolerance {
			status = "REGRESSED"
			regressed = true
		}
		fmt.Fprintf(os.Stderr, "benchjson: op %-10s p99 %8.3f -> %8.3f ms (%.2fx) %s\n",
			name, b.P99, c.P99, ratio, status)
	}
	if cur.OpenLoop != nil && base.OpenLoop != nil {
		baseByRate := make(map[float64]float64, len(base.OpenLoop.Points))
		for _, p := range base.OpenLoop.Points {
			baseByRate[p.TargetRate] = p.P99
		}
		for _, p := range cur.OpenLoop.Points {
			b, ok := baseByRate[p.TargetRate]
			if !ok {
				fmt.Fprintf(os.Stderr, "benchjson: open-loop rate %-8.0f NEW (no snapshot entry)\n", p.TargetRate)
				continue
			}
			if b <= 0 || p.P99 <= 0 {
				continue
			}
			ratio := p.P99 / b
			status := "ok"
			if ratio > tolerance {
				status = "REGRESSED"
				regressed = true
			}
			fmt.Fprintf(os.Stderr, "benchjson: open-loop rate %-8.0f p99 %8.3f -> %8.3f ms (%.2fx) %s\n",
				p.TargetRate, b, p.P99, ratio, status)
		}
	}
	if cur.BatchBench != nil && base.BatchBench != nil &&
		cur.BatchBench.SpeedupP50 > 0 && base.BatchBench.SpeedupP50 > 0 {
		status := "ok"
		if cur.BatchBench.SpeedupP50 < base.BatchBench.SpeedupP50/tolerance {
			status = "REGRESSED"
			regressed = true
		}
		fmt.Fprintf(os.Stderr, "benchjson: batch-of-%d speedup %.2fx -> %.2fx (p50) %s\n",
			base.BatchBench.BatchSize, base.BatchBench.SpeedupP50, cur.BatchBench.SpeedupP50, status)
	}
	return regressed, nil
}

func main() {
	diffPath := flag.String("diff", "", "compare parsed results against this committed snapshot; exit 2 on ns/op regressions")
	tolerance := flag.Float64("tolerance", 1.3, "with -diff, the allowed ns/op slowdown factor before a benchmark counts as regressed")
	flag.Parse()

	var snapshot []byte
	if *diffPath != "" {
		var err error
		snapshot, err = os.ReadFile(*diffPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}

	// An object-shaped snapshot is a delayload report; the current report
	// echoes through unchanged.
	if trimmed := bytes.TrimSpace(snapshot); len(trimmed) > 0 && trimmed[0] == '{' {
		current, err := io.ReadAll(os.Stdin)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		regressed, err := diffService(current, snapshot, *tolerance)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		os.Stdout.Write(current)
		if regressed {
			os.Exit(2)
		}
		return
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	results, err := parse(sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	sort.Slice(results, func(i, j int) bool { return results[i].key() < results[j].key() })

	regressed := false
	if *diffPath != "" {
		var base []result
		if err := json.Unmarshal(snapshot, &base); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", *diffPath, err)
			os.Exit(1)
		}
		regressed = diff(results, base, *tolerance)
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if regressed {
		os.Exit(2)
	}
}
