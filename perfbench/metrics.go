package main

// The metrics each run reports, with their units. BENCHMARK.json declares
// the serving sets; the oracle sets are printed the same way. The
// open-loop latencies and the write p99 are per-layer (unbounded): on a
// shared 2-vCPU machine their run-to-run spread is wider than any bound a
// regression gate can use.

var servingEndToEnd = map[string]string{
	"setup_s":          "s",
	"throughput_ops_s": "1/s",
	"admit_p50_ms":     "ms",
	"release_p50_ms":   "ms",
	"batch_p50_ms":     "ms",
	"read_p50_ms":      "ms",
	"slo_rate_ops_s":   "1/s",
	"peak_rss_mb":      "MiB",
	"rejected_share":   "ratio",
}

var servingPerLayer = func() map[string]string {
	m := map[string]string{
		"service.allocs_per_op":             "allocs/op",
		"service.bytes_per_op":              "B/op",
		"service.resp_bytes_per_op":         "B/op",
		"admission.allocs_per_op":           "allocs/op",
		"admission.conflicts_per_commit":    "ratio",
		"admission.commits_per_envelope":    "ratio",
		"admission.compacted_release_share": "ratio",
		"admission.affected_mean":           "count",
		"admission.incremental_test_share":  "ratio",
		"analysis.allocs_per_op":            "allocs/op",
		"analysis.analyze_ms":               "ms",
		"analysis.new_baseline_ms":          "ms",
		"minplus.sumn_ns":                   "ns",
		"minplus.sumn_allocs":               "allocs/op",
		"minplus.convolve_gated_ns":         "ns",
		"minplus.convolve_gated_allocs":     "allocs/op",
		"minplus.hdev_ns":                   "ns",
		"minplus.hdev_allocs":               "allocs/op",
		"delayd.cpu_ms_per_op":              "ms",
		"delayd.cpu_util":                   "ratio",
		"delayd.server_share":               "ratio",
		"loadgen.lateness_p99_ms":           "ms",
		"delayd.write_p99_ms":               "ms",
		"delayd.open_p99_ms":                "ms",
		"delayd.open_p50_ms":                "ms",
		"sim.packets_per_s":                 "1/s",
		"sim.ns_per_packet":                 "ns",
		"sim.allocs_per_packet":             "allocs/op",
	}
	for _, st := range analysisStages {
		m["analysis.stage."+st+"_ms_per_op"] = "ms"
	}
	for _, k := range []opKind{opAdmit, opRelease, opBatch, opRead} {
		for _, layer := range []string{"delayd", "service", "admission"} {
			m[layer+"."+k.String()+".p50_us"] = "us"
			m[layer+"."+k.String()+".self_p50_us"] = "us"
		}
		if k != opRead {
			m["analysis."+k.String()+".p50_us"] = "us"
		}
		m["trace."+k.String()+".unattributed_us"] = "us"
	}
	return m
}()

var oracleEndToEnd = map[string]string{
	"setup_s":      "s",
	"trials_per_s": "1/s",
	"peak_rss_mb":  "MiB",
	"failed_share": "ratio",
}

var oraclePerLayer = map[string]string{
	"sim.packets_per_s":          "1/s",
	"sim.ns_per_packet":          "ns",
	"sim.allocs_per_packet":      "allocs/op",
	"analysis.oracle_analyze_ms": "ms",
}
