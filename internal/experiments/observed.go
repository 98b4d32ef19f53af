package experiments

import (
	"ecost/internal/audit"
	"ecost/internal/core"
	"ecost/internal/flight"
	"ecost/internal/metrics"
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
