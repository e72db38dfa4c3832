package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef mirrors one metric entry of BENCHMARK.json. The tables below
// are what the program emits; bench_test.go holds them equal to the
// file, name by name.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the workload's path sees. Every workload
// reports all four, each with its own meaning of "op":
//
//	repro_*    one trial; op_p50_ms is the median over rounds (one trial
//	           of each scenario) of the round's mean trial time
//	svc_*      one complaint: first byte the client sends for it (its
//	           reports when it carries them) -> verdict decoded
//	fleet_mixed one record: Writer.Write call -> front-door read-back
//	           covers it
//	fleet_read one fleet-wide rollup query -> merged three-shard result
var endToEnd = []metricDef{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.15},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "alloc_kb_per_op", Unit: "KB", Better: "lower", Bound: 0.10},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer metrics come from the traced run. A workload reports the
// layers on its path; the others read 0 there.
var perLayer = []metricDef{
	{Name: "experiments.trial_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "experiments.correct_frac", Unit: "frac", Better: "higher"},

	{Name: "sim.substrate_ms_per_trial", Unit: "ms", Better: "lower"},
	{Name: "sim.us_per_data_packet", Unit: "us", Better: "lower"},
	{Name: "sim.data_packets_per_trial", Unit: "count", Better: "lower"},
	{Name: "sim.pfc_frames_per_trial", Unit: "count", Better: "lower"},

	{Name: "core.diagnose_all_ms_per_trial", Unit: "ms", Better: "lower"},
	{Name: "core.sessions_per_trial", Unit: "count", Better: "lower"},
	{Name: "core.reports_per_session", Unit: "count", Better: "lower"},

	{Name: "telemetry.snapshot_us", Unit: "us", Better: "lower"},
	{Name: "telemetry.marshal_us_per_report", Unit: "us", Better: "lower"},
	{Name: "telemetry.unmarshal_us_per_report", Unit: "us", Better: "lower"},
	{Name: "telemetry.report_bytes", Unit: "B", Better: "lower"},

	{Name: "provenance.build_us_p50", Unit: "us", Better: "lower"},
	{Name: "provenance.build_kb_per_call", Unit: "KB", Better: "lower"},
	{Name: "provenance.build_allocs_per_call", Unit: "count", Better: "lower"},
	{Name: "provenance.build_ms_per_trial", Unit: "ms", Better: "lower"},
	{Name: "provenance.render_us", Unit: "us", Better: "lower"},

	{Name: "diagnosis.diagnose_us_p50", Unit: "us", Better: "lower"},
	{Name: "diagnosis.render_us", Unit: "us", Better: "lower"},

	{Name: "metrics.score_ms_per_trial", Unit: "ms", Better: "lower"},

	{Name: "wire.frame_us_per_report", Unit: "us", Better: "lower"},
	{Name: "wire.validate_us_per_report", Unit: "us", Better: "lower"},
	{Name: "wire.verdict_json_us", Unit: "us", Better: "lower"},
	{Name: "wire.verdict_bytes", Unit: "B", Better: "lower"},
	{Name: "wire.rollup_json_us", Unit: "us", Better: "lower"},
	{Name: "wire.rollup_result_bytes", Unit: "B", Better: "lower"},

	{Name: "analyzd.handshake_ms", Unit: "ms", Better: "lower"},
	{Name: "analyzd.send_report_us", Unit: "us", Better: "lower"},
	{Name: "analyzd.verdict_rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "analyzd.verdict_rtt_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "analyzd.report_to_verdict_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "analyzd.unattributed_us", Unit: "us", Better: "lower"},
	{Name: "analyzd.decode_errors", Unit: "count", Better: "lower"},
	{Name: "analyzd.rejected_reports", Unit: "count", Better: "lower"},
	{Name: "analyzd.shed", Unit: "count", Better: "lower"},

	{Name: "fleetstore.add_us", Unit: "us", Better: "lower"},
	{Name: "fleetstore.add_unique_us", Unit: "us", Better: "lower"},
	{Name: "fleetstore.durable_add_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "fleetstore.record_json_us", Unit: "us", Better: "lower"},
	{Name: "fleetstore.record_bytes", Unit: "B", Better: "lower"},
	{Name: "fleetstore.pipe_dropped", Unit: "count", Better: "lower"},

	{Name: "wal.append_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.append_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.appends_per_sync", Unit: "count", Better: "higher"},

	{Name: "fleet.write_to_ack_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.write_to_visible_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.write_rtt_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.write_unattributed_us", Unit: "us", Better: "lower"},
	{Name: "fleet.repl_ack_lag_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.frontdoor_incidents_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.query_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.query_unattributed_us", Unit: "us", Better: "lower"},
	{Name: "fleet.shard_rollups_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.frontdoor_rollups_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.reader_late_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.writer_redials", Unit: "count", Better: "lower"},
	{Name: "fleet.writer_duplicates", Unit: "count", Better: "lower"},
	{Name: "fleet.writer_reroutes", Unit: "count", Better: "lower"},
	{Name: "fleet.follower_resyncs", Unit: "count", Better: "lower"},

	{Name: "rollup.observe_us", Unit: "us", Better: "lower"},
	{Name: "rollup.merge_windows_us", Unit: "us", Better: "lower"},
	{Name: "rollup.windows_merged", Unit: "count", Better: "lower"},

	{Name: "process.alloc_kb_per_op", Unit: "KB", Better: "lower"},
	{Name: "process.gc_cpu_frac", Unit: "frac", Better: "lower"},
	{Name: "process.tracing_overhead_frac", Unit: "frac", Better: "lower"},
}

func hasMetric(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.Name == name {
			return true
		}
	}
	return false
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read the benchmark contract (run from the repository root): %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
