// Command ecost-sim runs one workload scenario through a mapping policy
// on a simulated cluster — either in batch mode (the Figure-9 runner) or
// as an online, event-driven simulation through the full ECoST pipeline
// (profile → classify → queue → pair → tune).
//
// Usage:
//
//	ecost-sim -scenario WS4 -policy ECoST -nodes 4
//	ecost-sim -scenario WS8 -online -nodes 2 -arrival 120
//	ecost-sim -scenario WS4 -online -nodes 256 -jobs 2000 -arrival 6
//	ecost-sim -scenario 'gen:jobs=500;arrivals=mmpp:calm=300,burst=10;sizes=pareto:alpha=1.5,min=1;mix=zipf:s=1.1,tenants=16' -nodes 8 -seed 7
//	ecost-sim -scenario 'gen:jobs=200' -arrivals poisson:60 -trace-record load.jsonl
//	ecost-sim -online -trace-replay load.jsonl -nodes 8
//	ecost-sim -scenario WS4 -online -metrics
//	ecost-sim -scenario WS4 -online -trace-out trace.json -edp-report
//	ecost-sim -scenario WS4 -online -quality-report
//	ecost-sim -scenario WS4 -online -serve :9090
//	ecost-sim -scenario WS4 -online -nodes 8 -shards 4 -steal -metrics
//
// Every online run drives the sharded control plane: -shards N
// partitions the cluster into N per-shard schedulers over disjoint node
// slices with hash-routed submissions (default 1 = one shard, the whole
// cluster under a single scheduler), and -steal lets idle shards claim
// queued jobs at event barriers. The shard/steal and barrier lines and
// the per-shard "== shard N ==" sections print only with -shards 2+.
//
// -scenario accepts either a named workload (WS1..WS8) or a generated
// heavy-traffic scenario in the `gen:` grammar of internal/scenario
// (seeded arrival processes, heavy-tailed sizes, recurring tenant
// mixes); gen: scenarios imply -online. -trace-record writes the
// arrival stream as JSONL before the run; -trace-replay plays a
// recorded stream back byte-identically instead of generating one.
// Stream runs (gen:, -jobs, replay) report queueing observables:
// utilization, wait-queue lengths, and wait/sojourn percentiles.
//
// -metrics appends an observability snapshot of the online run (queue
// depth, per-class wait latency, pairing-tree outcomes, STP prediction
// telemetry, energy split by occupancy phase). The snapshot is
// deterministic: two runs with the same flags produce byte-identical
// output. -metrics-volatile additionally includes wall-clock sections,
// which vary run to run.
//
// -trace-out writes a Chrome trace_event JSON of the run's spans (job
// lifecycle, map/reduce phases, per-node occupancy) loadable in
// Perfetto or chrome://tracing; -timeline-out writes the same spans as
// a deterministic text timeline; -edp-report prints the per-job and
// per-class energy/EDP attribution rollup. Sharded runs (-shards 2+)
// trace too: each shard records its own span set, -trace-out merges
// them deterministically into one document with a track group per
// shard and cross-shard steals drawn as flow arrows (steal_out →
// steal_in), and -timeline-out writes per-shard "== shard N =="
// sections plus a "== merged ==" global section. -quality-report prints the
// decision-quality report (classifier confusion, predicted-vs-realized
// STP error, co-location interference, oracle regret, drift alerts)
// built from the per-decision audit log. -serve exposes all of the
// above plus Prometheus /metrics, the audit log as /decisions JSONL,
// the quality report as /quality, and /debug/pprof/ over HTTP, live
// during the run and until interrupted afterwards. Sharded runs
// (-shards 2+) serve merged views by default — Prometheus families
// gain a shard="N" label — with ?shard=N selecting one shard, and add
// the flight-recorder endpoints /shards, /epochs, /health, and
// /flight.
//
// -flight-out writes the sharded control plane's anomaly-triggered
// flight-recorder dumps (queue growth, shard imbalance, STP drift) as
// JSONL; -health-report prints the aggregated shard-health report
// (steal-flow matrix, Jain fairness, queue-growth slope, power skew)
// after the run. Both require -shards 2 or more.
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"

	"ecost/internal/cliutil"
	"ecost/internal/core"
	"ecost/internal/experiments"
	"ecost/internal/scenario"
	"ecost/internal/trace"
)

func main() {
	var rf runFlags
	flag.StringVar(&rf.Scenario, "scenario", "WS4", "workload scenario WS1..WS8, or a generated stream 'gen:jobs=N[;arrivals=…][;sizes=…][;mix=…]' (implies -online)")
	policy := flag.String("policy", "ECoST", "mapping policy: SM, MNM1, MNM2, SNM, CBM, PTM, ECoST, UB")
	flag.IntVar(&rf.Nodes, "nodes", 4, "cluster size")
	flag.BoolVar(&rf.Online, "online", false, "run the event-driven online scheduler instead of batch mapping")
	flag.Float64Var(&rf.Arrival, "arrival", 0, "mean inter-arrival seconds for -online workload streams (0 = all at t=0)")
	flag.StringVar(&rf.Arrivals, "arrivals", "", "override a gen: scenario's arrival process, e.g. poisson:60, mmpp:calm=300,burst=10, diurnal:mean=60,amp=0.8")
	flag.IntVar(&rf.Jobs, "jobs", 0, "scale the online job stream to this many jobs by cycling the scenario's list (0 = scenario as-is; requires -online)")
	flag.StringVar(&rf.TraceRecord, "trace-record", "", "write the arrival stream as a JSONL trace to this file before running (requires -online)")
	flag.StringVar(&rf.TraceReplay, "trace-replay", "", "replay a recorded JSONL arrival trace instead of generating a stream (requires -online)")
	seed := flag.Int64("seed", 42, "random seed")
	flag.BoolVar(&rf.Metrics, "metrics", false, "collect and print an observability snapshot (implies -online)")
	flag.BoolVar(&rf.MetricsJSON, "metrics-json", false, "print the -metrics snapshot as JSON instead of text")
	flag.BoolVar(&rf.MetricsVolatile, "metrics-volatile", false, "include wall-clock (non-deterministic) sections in the -metrics snapshot")
	flag.StringVar(&rf.TraceOut, "trace-out", "", "write a Chrome trace_event JSON of the online run to this file (requires -online)")
	flag.StringVar(&rf.TimelineOut, "timeline-out", "", "write the deterministic span timeline of the online run to this file (requires -online)")
	flag.BoolVar(&rf.EDPReport, "edp-report", false, "print the per-job / per-class EDP attribution report after the online run (requires -online)")
	flag.BoolVar(&rf.QualityReport, "quality-report", false, "print the decision-quality report (confusion, STP error, regret, drift) after the online run (requires -online)")
	flag.StringVar(&rf.ServeAddr, "serve", "", "serve /metrics, /trace, /report, /decisions, /quality, and /debug/pprof/ on this address during and after the online run (requires -online)")
	flag.IntVar(&rf.Shards, "shards", 1, "partition the online cluster into this many per-shard schedulers with hash-routed submissions (requires -online; 1 = one shard)")
	flag.BoolVar(&rf.Steal, "steal", false, "let idle shards steal queued jobs at event barriers (requires -shards 2+)")
	flag.StringVar(&rf.FlightOut, "flight-out", "", "write the flight recorder's anomaly-triggered epoch dumps as JSONL to this file after the run (requires -shards 2+; epoch records need every global event time, so the recorder pins the exact barrier cadence instead of eliding barriers)")
	flag.BoolVar(&rf.HealthReport, "health-report", false, "print the shard-health report (steal flow, fairness, queue slope, power skew) after the run (requires -shards 2+)")
	logLevel := flag.String("log-level", "warn", "log verbosity: debug, info, warn, error")
	flag.Parse()

	if err := cliutil.SetupLogging(os.Stderr, *logLevel); err != nil {
		fmt.Fprintln(os.Stderr, "ecost-sim:", err)
		os.Exit(cliutil.ExitUsage)
	}
	if rf.Metrics && !rf.Online {
		slog.Warn("-metrics instruments the online scheduler; enabling -online")
		rf.Online = true
	}
	rf.ScenarioGen = strings.HasPrefix(rf.Scenario, "gen:")
	if rf.ScenarioGen && !rf.Online {
		slog.Warn("gen: scenarios drive the online scheduler; enabling -online")
		rf.Online = true
	}
	flag.Visit(func(fl *flag.Flag) {
		if fl.Name == "shards" {
			rf.ShardsSet = true
		}
	})
	if msg := rf.contradiction(); msg != "" {
		cliutil.Usagef(msg)
	}
	if msg := rf.unwritableOutput(); msg != "" {
		cliutil.Usagef(msg)
	}

	var genSpec scenario.Spec
	if rf.ScenarioGen {
		var err error
		if genSpec, err = rf.genSpec(*seed); err != nil {
			cliutil.Usagef("bad -scenario gen: spec", "err", err)
		}
	}

	var wl core.Workload
	if !rf.ScenarioGen && rf.TraceReplay == "" {
		var err error
		wl, err = core.Scenario(rf.Scenario)
		if err != nil {
			cliutil.Usagef("bad -scenario", "err", err)
		}
		fmt.Printf("scenario %s %s\n%s\n\n", wl.Name, wl.ClassSignature(), wl.AppSignature())
	}

	slog.Info("building environment (database + models)")
	env, err := experiments.NewEnv(experiments.FastOptions())
	if err != nil {
		cliutil.Fatalf("building environment failed", "err", err)
	}

	if rf.Online {
		arrivals, header, perJobTable := buildStream(wl, rf, genSpec, *seed)
		if rf.TraceRecord != "" {
			writeArtifact("-trace-record", rf.TraceRecord, func(w io.Writer) error {
				return scenario.WriteTrace(w, arrivals)
			})
			slog.Info("recorded arrival trace", "path", rf.TraceRecord, "arrivals", len(arrivals))
		}
		runOnline(env, rf, arrivals, header, perJobTable)
		return
	}

	var pol core.Policy
	found := false
	for _, p := range core.Policies() {
		if p.String() == *policy {
			pol, found = p, true
		}
	}
	if !found {
		cliutil.Usagef("unknown -policy", "policy", *policy)
	}
	runner := &core.PolicyRunner{Oracle: env.Oracle, DB: env.DB, Tuner: env.LkT, Profiler: env.Profiler}
	res, err := runner.Run(pol, wl, rf.Nodes)
	if err != nil {
		cliutil.Fatalf("policy run failed", "policy", pol.String(), "err", err)
	}
	ub, err := runner.Run(core.UB, wl, rf.Nodes)
	if err != nil {
		cliutil.Fatalf("UB baseline run failed", "err", err)
	}
	fmt.Printf("policy %v on %d node(s):\n", pol, rf.Nodes)
	fmt.Printf("  makespan  %.0f s\n", res.Makespan)
	fmt.Printf("  energy    %.0f J\n", res.EnergyJ)
	fmt.Printf("  EDP       %.4g J·s\n", res.EDP)
	fmt.Printf("  vs UB     %.2fx (UB EDP %.4g)\n", res.EDP/ub.EDP, ub.EDP)
}

// writeArtifact streams one exporter into a freshly created file and
// exits through cliutil.Fatalf when the flag's target cannot be
// written.
func writeArtifact(flagName, path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err == nil {
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		cliutil.Fatalf("writing "+flagName+" failed", "err", err)
	}
}

// buildStream resolves the online arrival stream from the three
// sources, in precedence order: a replayed JSONL trace, a generated
// gen: scenario (spec, validated with the flags), or the named workload
// cycled through scenario.FromWorkload (the -jobs path; 0 keeps the
// scenario as-is).
// It returns the stream, the run header, and whether the per-job
// completion table should be printed (plain workload runs only —
// stream runs report queueing observables instead).
func buildStream(wl core.Workload, rf runFlags, spec scenario.Spec, seed int64) ([]trace.Arrival, string, bool) {
	if rf.TraceReplay != "" {
		f, err := os.Open(rf.TraceReplay)
		if err != nil {
			cliutil.Fatalf("opening -trace-replay failed", "err", err)
		}
		arrivals, err := scenario.ReadTrace(f)
		f.Close()
		if err != nil {
			cliutil.Fatalf("reading -trace-replay failed", "err", err)
		}
		header := fmt.Sprintf("online ECoST on %d node(s), replaying %s (%d arrivals):", rf.Nodes, rf.TraceReplay, len(arrivals))
		return arrivals, header, false
	}
	if rf.ScenarioGen {
		arrivals, err := scenario.Generate(spec)
		if err != nil {
			cliutil.Usagef("bad -scenario gen: spec", "err", err)
		}
		header := fmt.Sprintf("online ECoST on %d node(s), scenario %s, seed %d:", rf.Nodes, spec.String(), seed)
		return arrivals, header, false
	}
	arrivals, err := scenario.FromWorkload(wl, rf.Jobs, rf.Arrival, seed)
	if err != nil {
		cliutil.Fatalf("building workload stream failed", "err", err)
	}
	header := fmt.Sprintf("online ECoST on %d node(s), mean inter-arrival %.0fs:", rf.Nodes, rf.Arrival)
	return arrivals, header, rf.Jobs == 0
}
