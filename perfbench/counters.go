package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"delaycalc/internal/service"
)

// promSample is one line of the text exposition format: a metric name, its
// raw label set ("" when none) and the value.
type promSample struct {
	Name   string
	Labels string
	Value  float64
}

// parseMetrics reads the daemon's /metrics body into name{labels} -> value.
// Comment lines are skipped; a malformed sample line is an error.
func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, err
		}
		out[s.key()] = s.Value
	}
	return out, sc.Err()
}

func (s promSample) key() string {
	if s.Labels == "" {
		return s.Name
	}
	return s.Name + "{" + s.Labels + "}"
}

func parseSample(line string) (promSample, error) {
	var s promSample
	rest := line
	if i := strings.IndexByte(line, '{'); i >= 0 {
		j := strings.LastIndexByte(line, '}')
		if j < i {
			return s, fmt.Errorf("metrics: unbalanced labels in %q", line)
		}
		s.Name, s.Labels, rest = line[:i], line[i+1:j], line[j+1:]
	} else {
		sp := strings.IndexByte(line, ' ')
		if sp < 0 {
			return s, fmt.Errorf("metrics: no value in %q", line)
		}
		s.Name, rest = line[:sp], line[sp:]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return s, fmt.Errorf("metrics: bad value in %q: %w", line, err)
	}
	s.Value = v
	return s, nil
}

// sumMatching adds every sample whose name is exactly name, whatever its
// labels, and whose label set contains labelSub ("" matches all).
func sumMatching(m map[string]float64, name, labelSub string) float64 {
	total := 0.0
	for k, v := range m {
		n, labels, _ := strings.Cut(k, "{")
		if n == name && strings.Contains(labels, labelSub) {
			total += v
		}
	}
	return total
}

// counterDelta is what changed in the daemon's own counters across one
// measurement window: the /stats document and /metrics samples read once
// before and once after.
type counterDelta struct {
	Before, After       service.StatsResponse
	MetBefore, MetAfter map[string]float64
}

func (d counterDelta) stat(f func(s service.StatsResponse) uint64) float64 {
	return float64(f(d.After)) - float64(f(d.Before))
}

func (d counterDelta) metric(name, labelSub string) float64 {
	return sumMatching(d.MetAfter, name, labelSub) - sumMatching(d.MetBefore, name, labelSub)
}

// admissionLayer derives the admission engine's per-layer ratios. Commits
// are counted as snapshot versions installed, which every committing admit,
// release and batch envelope advances by one.
func (d counterDelta) admissionLayer() map[string]float64 {
	commits := d.stat(func(s service.StatsResponse) uint64 { return s.SnapshotVersion })
	conflicts := d.stat(func(s service.StatsResponse) uint64 { return s.CommitConflicts })
	envs := d.stat(func(s service.StatsResponse) uint64 { return s.BatchEnvelopes })
	bcommits := d.stat(func(s service.StatsResponse) uint64 { return s.BatchCommits })
	relInc := d.stat(func(s service.StatsResponse) uint64 { return s.Releases.Incremental })
	relFull := d.stat(func(s service.StatsResponse) uint64 { return s.Releases.Full })
	testInc := d.stat(func(s service.StatsResponse) uint64 { return s.Tests.Incremental })
	testFull := d.stat(func(s service.StatsResponse) uint64 { return s.Tests.Full })
	affSum := d.stat(func(s service.StatsResponse) uint64 { return s.AffectedSum })
	affCount := d.stat(func(s service.StatsResponse) uint64 { return s.AffectedCount })
	return map[string]float64{
		"admission.conflicts_per_commit":    ratio(conflicts, commits),
		"admission.commits_per_envelope":    ratio(bcommits, envs),
		"admission.compacted_release_share": ratio(relFull, relInc+relFull),
		"admission.affected_mean":           ratio(affSum, affCount),
		"admission.incremental_test_share":  ratio(testInc, testInc+testFull),
	}
}

// analysisStages are the stage labels of delayd_analysis_stage_seconds.
var analysisStages = []string{"partition", "aggregate", "theta", "propagate"}

// stageMsPerOp returns each analysis stage's seconds over the window, in
// ms per completed operation.
func (d counterDelta) stageMsPerOp(ops int) map[string]float64 {
	out := make(map[string]float64, len(analysisStages))
	for _, st := range analysisStages {
		sec := d.metric("delayd_analysis_stage_seconds_sum", fmt.Sprintf("stage=%q", st))
		out["analysis.stage."+st+"_ms_per_op"] = ratio(sec*1000, float64(ops))
	}
	return out
}

// serverSeconds is the daemon's own request-handling time over the window.
func (d counterDelta) serverSeconds() float64 {
	return d.metric("delayd_request_duration_seconds_sum", "")
}
