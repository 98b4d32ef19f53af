package experiments

import (
	"ecost/internal/audit"
	"ecost/internal/core"
	"ecost/internal/flight"
	"ecost/internal/metrics"
	"ecost/internal/scenario"
	"ecost/internal/tracing"
)

// ShardedObservation bundles the observability handles of one fully
// observed run: per-shard registries and audit logs, the per-shard span
// tracers grouped for deterministic merging, plus the control plane's
// flight recorder. Every export they render (metrics snapshots, audit
// JSONL, merged Chrome trace and timeline, EDP report, shard-health
// report, epoch JSONL, flight dumps) is a pure function of the
// submitted stream, independent of GOMAXPROCS — the same determinism
// contract as the run itself.
type ShardedObservation struct {
	Registries []*metrics.Registry
	Audits     []*audit.Log
	Trace      *tracing.ShardSet
	Flight     *flight.Recorder
}

// attach wires the audit logs, span tracers and flight recorder into
// every shard of sched, whose tuners already registered Registries.
func (o *ShardedObservation) attach(sched *core.ShardedScheduler) {
	for i := range sched.Shards() {
		sh := sched.Shard(i)
		sh.SetMetrics(o.Registries[i])
		aud := audit.NewLog(audit.DriftConfig{})
		o.Audits = append(o.Audits, aud)
		sh.SetAudit(aud)
	}
	o.Trace = tracing.NewShardSet()
	sched.SetTracer(o.Trace)
	o.Flight = flight.New(flight.Config{Shards: sched.Shards(), ShardNodes: sched.ShardNodes()})
	sched.SetFlight(o.Flight)
}

// OnlineScenarioObserved is OnlineScenario with the full observability
// stack attached: per-shard registries feeding memoized metered LkT
// tuners, per-shard decision audit logs, span tracers, and the barrier
// flight recorder. It reports the same observables and additionally
// returns the observation handles so callers can render traces, decision
// quality, shard health, epoch wide-events, and anomaly dumps after the
// run.
func OnlineScenarioObserved(env *Env, spec scenario.Spec, nodes int, cfg core.ShardedConfig) (Table, OnlineData, QueueStats, *ShardedObservation, error) {
	arrivals, err := scenario.Generate(spec)
	if err != nil {
		return Table{}, OnlineData{}, QueueStats{}, nil, err
	}
	r, err := runOnline(env, arrivals, nodes, drive{cfg: cfg, tuner: env.LkT, observe: true})
	if err != nil {
		return Table{}, OnlineData{}, QueueStats{}, nil, err
	}
	tbl := r.scenarioTable("Online ECoST scenario, observed", spec.String(), nodes)
	tbl.AddRow("epochs", r.obs.Flight.Epochs())
	tbl.AddRow("flight dumps", len(r.obs.Flight.Dumps()))
	tbl.Notes = append(tbl.Notes,
		"fully observed run: per-shard metrics + audit + span tracers, barrier flight recorder; render traces, shard health, and dumps from the returned handles")
	return tbl, r.data, r.qs, r.obs, nil
}
