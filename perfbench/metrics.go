package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metricDef is one reported metric. End-to-end metrics come from
// untraced repetitions and make the --trace 0 result; per-layer metrics
// make the --trace 1 result. target names the end-to-end metric a
// per-layer metric is expected to move.
type metricDef struct {
	name     string
	unit     string
	better   string
	perLayer bool
	target   string
}

// metricTable lists every metric in BENCHMARK.json order. Figures
// prefixed sim_ are simulated outcomes, identical for a given seed;
// everything else is measured on the host.
var metricTable = []metricDef{
	{"jobs_per_s", "1/s", "higher", false, ""},
	{"setup_s", "s", "lower", false, ""},
	{"peak_rss_mb", "MB", "lower", false, ""},
	{"sim_edp_js", "J.s", "lower", false, ""},
	{"sim_energy_j", "J", "lower", false, ""},
	{"sim_makespan_s", "s", "lower", false, ""},

	{"sim_wait_p50_s", "s", "lower", true, "queueing outcome; 0 when queues stay empty"},
	{"sim_wait_p99_s", "s", "lower", true, "queueing outcome; 0 when queues stay empty"},
	{"experiments.env_db_build_s", "s", "lower", true, "setup_s"},
	{"experiments.env_train_lr_s", "s", "lower", true, "setup_s"},
	{"experiments.env_train_reptree_s", "s", "lower", true, "setup_s (no workload calls the model)"},
	{"experiments.env_train_mlp_s", "s", "lower", true, "setup_s (no workload calls the model)"},
	{"experiments.stream_stats_s", "s", "lower", true, "jobs_per_s, most on recurring-sharded"},
	{"scenario.generate_s", "s", "lower", true, "setup_s"},
	{"scenario.distinct_obs_share", "ratio", "lower", true, "input property: what memo shortcuts cannot help"},
	{"core.submit_s", "s", "lower", true, "jobs_per_s on unique-single"},
	{"core.submit_ns_p50", "ns", "lower", true, "jobs_per_s on unique-single"},
	{"core.submit_ns_p99", "ns", "lower", true, "jobs_per_s on unique-single"},
	{"core.run_s", "s", "lower", true, "jobs_per_s"},
	{"core.run_cpu_per_wall", "ratio", "higher", true, "jobs_per_s on bursty-steal, recurring-sharded"},
	{"core.completed_s", "s", "lower", true, "jobs_per_s"},
	{"core.barriers", "count", "lower", true, "jobs_per_s on bursty-steal"},
	{"core.windows", "count", "lower", true, "jobs_per_s on bursty-steal, recurring-sharded"},
	{"core.window_events", "count", "higher", true, "jobs_per_s on bursty-steal, recurring-sharded"},
	{"core.elided_ratio", "ratio", "higher", true, "jobs_per_s on bursty-steal, recurring-sharded"},
	{"core.steals", "count", "lower", true, "jobs_per_s and sim_wait_p99_s on bursty-steal"},
	{"core.shard_jobs_max_over_mean", "ratio", "lower", true, "jobs_per_s on sharded workloads"},
	{"core.tune_hits", "count", "higher", true, "jobs_per_s (read side: recurring-sharded)"},
	{"core.tune_misses", "count", "lower", true, "jobs_per_s (write side: unique-single)"},
	{"core.tune_hit_ratio", "ratio", "higher", true, "jobs_per_s"},
	{"core.tune_miss_s", "s", "lower", true, "jobs_per_s on unique-single"},
	{"core.tune_miss_ns_p50", "ns", "lower", true, "jobs_per_s on unique-single"},
	{"core.tune_miss_ns_p99", "ns", "lower", true, "jobs_per_s on unique-single"},
	{"core.queue_depth_highwater", "count", "lower", true, "sim_wait_p99_s and jobs_per_s on bursty-steal"},
	{"core.pairings", "count", "higher", true, "sim_wait_p99_s and jobs_per_s on bursty-steal"},
	{"core.leaps", "count", "lower", true, "sim_wait_p99_s and jobs_per_s on bursty-steal"},
	{"core.reservations", "count", "lower", true, "sim_wait_p99_s and jobs_per_s on bursty-steal"},
	{"core.alloc_bytes_per_job", "B", "lower", true, "jobs_per_s, peak_rss_mb"},
	{"core.mallocs_per_job", "count", "lower", true, "jobs_per_s, peak_rss_mb"},
	{"core.gc_cycles", "count", "lower", true, "jobs_per_s, peak_rss_mb"},
	{"bench.trace_overhead_ratio", "ratio", "lower", true, "untraced / traced jobs_per_s"},
	{"bench.unattributed_share", "ratio", "lower", true, "drive time outside submit, run, completed and stats spans"},
}

// writeTable prints every metric m holds, with its unit and target.
func writeTable(w io.Writer, m map[string]float64) {
	fmt.Fprintf(w, "%-34s %20s %-6s %s\n", "metric", "value", "unit", "moves")
	for _, d := range metricTable {
		if v, ok := m[d.name]; ok {
			fmt.Fprintf(w, "%-34s %20.6g %-6s %s\n", d.name, v, d.unit, d.target)
		}
	}
	// failed_ratio is 0 on a correct run, which a bounded metric must
	// not be, so the result carries it as its failed and attempted
	// counts and the table alone prints it.
	fmt.Fprintf(w, "%-34s %20.6g %-6s\n", "failed_ratio", m["failed_ratio"], "ratio")
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// writeResult prints the one-line JSON result: every metric of the
// mode's list. A missing or non-finite metric makes the result
// incorrect and is reported as an error.
func writeResult(w io.Writer, res result, m map[string]float64, perLayer bool) error {
	res.Metrics = map[string]metricValue{}
	var missing []string
	for _, d := range metricTable {
		if d.perLayer != perLayer {
			continue
		}
		v, ok := m[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.name)
			continue
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
	}
	var err error
	if len(missing) > 0 {
		res.Correct = false
		err = fmt.Errorf("metrics missing or not finite: %v", missing)
	}
	b, jerr := json.Marshal(res)
	if jerr != nil {
		return jerr
	}
	fmt.Fprintf(w, "%s\n", b)
	return err
}
