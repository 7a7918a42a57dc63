package main

import (
	"math"
	"strings"
	"testing"

	"delaycalc/internal/service"
)

const metricsBefore = `# HELP delayd_requests_total Requests served, by endpoint and status code.
# TYPE delayd_requests_total counter
delayd_requests_total{endpoint="POST /v2/networks/{netid}/connections",code="200"} 10
delayd_in_flight_requests 1
delayd_analysis_stage_seconds_bucket{stage="theta",le="0.001"} 4
delayd_analysis_stage_seconds_sum{stage="theta"} 0.5
delayd_analysis_stage_seconds_sum{stage="propagate"} 0.25
delayd_request_duration_seconds_sum{endpoint="POST /v2/networks/{netid}/connections"} 1.5
delayd_request_duration_seconds_sum{endpoint="DELETE /v2/networks/{netid}/connections/{name}"} 0.5
`

const metricsAfter = `delayd_requests_total{endpoint="POST /v2/networks/{netid}/connections",code="200"} 30
delayd_in_flight_requests 0
delayd_analysis_stage_seconds_sum{stage="theta"} 2.5
delayd_analysis_stage_seconds_sum{stage="propagate"} 0.25
delayd_request_duration_seconds_sum{endpoint="POST /v2/networks/{netid}/connections"} 4.5
delayd_request_duration_seconds_sum{endpoint="DELETE /v2/networks/{netid}/connections/{name}"} 1.5
`

func TestParseMetrics(t *testing.T) {
	m, err := parseMetrics(strings.NewReader(metricsBefore))
	if err != nil {
		t.Fatal(err)
	}
	if got := m[`delayd_requests_total{endpoint="POST /v2/networks/{netid}/connections",code="200"}`]; got != 10 {
		t.Errorf("labelled counter = %v, want 10", got)
	}
	if got := m["delayd_in_flight_requests"]; got != 1 {
		t.Errorf("bare gauge = %v, want 1", got)
	}
	if got := sumMatching(m, "delayd_request_duration_seconds_sum", ""); got != 2 {
		t.Errorf("summed endpoints = %v, want 2", got)
	}
	if got := sumMatching(m, "delayd_analysis_stage_seconds_sum", `stage="theta"`); got != 0.5 {
		t.Errorf("theta stage = %v, want 0.5 (buckets must not be summed in)", got)
	}
	for _, bad := range []string{"delayd_x{a=\"1\" 2", "delayd_x", "delayd_x{} nope"} {
		if _, err := parseMetrics(strings.NewReader(bad + "\n")); err == nil {
			t.Errorf("parseMetrics(%q) accepted a malformed line", bad)
		}
	}
}

func TestCounterDeltas(t *testing.T) {
	mb, err := parseMetrics(strings.NewReader(metricsBefore))
	if err != nil {
		t.Fatal(err)
	}
	ma, err := parseMetrics(strings.NewReader(metricsAfter))
	if err != nil {
		t.Fatal(err)
	}
	before := service.StatsResponse{
		SnapshotVersion: 100, CommitConflicts: 7, BatchEnvelopes: 10, BatchCommits: 10,
		Releases:    service.StatsCounter{Incremental: 5, Full: 5},
		Tests:       service.StatsCounter{Incremental: 40, Full: 10},
		AffectedSum: 1000, AffectedCount: 50,
	}
	after := service.StatsResponse{
		SnapshotVersion: 140, CommitConflicts: 17, BatchEnvelopes: 20, BatchCommits: 19,
		Releases:    service.StatsCounter{Incremental: 8, Full: 12},
		Tests:       service.StatsCounter{Incremental: 70, Full: 10},
		AffectedSum: 1600, AffectedCount: 70,
	}
	d := counterDelta{Before: before, After: after, MetBefore: mb, MetAfter: ma}
	want := map[string]float64{
		"admission.conflicts_per_commit":    10.0 / 40,
		"admission.commits_per_envelope":    9.0 / 10,
		"admission.compacted_release_share": 7.0 / 10,
		"admission.affected_mean":           600.0 / 20,
		"admission.incremental_test_share":  1,
	}
	got := d.admissionLayer()
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-12 {
			t.Errorf("%s = %v, want %v", k, got[k], w)
		}
	}
	stages := d.stageMsPerOp(100)
	if got := stages["analysis.stage.theta_ms_per_op"]; math.Abs(got-20) > 1e-12 {
		t.Errorf("theta ms/op = %v, want 20", got)
	}
	if got := stages["analysis.stage.propagate_ms_per_op"]; got != 0 {
		t.Errorf("propagate ms/op = %v, want 0", got)
	}
	if got := stages["analysis.stage.partition_ms_per_op"]; got != 0 {
		t.Errorf("absent stage ms/op = %v, want 0", got)
	}
	if got := d.serverSeconds(); got != 4 {
		t.Errorf("server seconds = %v, want 4", got)
	}
	empty := counterDelta{Before: before, After: before, MetBefore: mb, MetAfter: mb}
	if got := empty.admissionLayer()["admission.commits_per_envelope"]; !math.IsNaN(got) {
		t.Errorf("no envelopes: commits per envelope = %v, want NaN", got)
	}
}
