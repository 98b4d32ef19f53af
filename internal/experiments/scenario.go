package experiments

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"ecost/internal/core"
	"ecost/internal/scenario"
	"ecost/internal/trace"
)

// QueueStats are the queueing observables the paper never measured:
// cluster utilization, the wait-queue length distribution, and wait /
// sojourn percentiles. All derive deterministically from the completed
// jobs, so two identical runs report identical stats.
type QueueStats struct {
	// Utilization is busy node-seconds (union of resident intervals
	// per node) over nodes × makespan.
	Utilization float64

	// Time-weighted wait-queue length distribution over [0, makespan]:
	// jobs submitted but not yet started.
	MeanQueueLen float64
	P95QueueLen  float64
	MaxQueueLen  int

	// Wait (start − submit) and sojourn (finish − submit) percentiles.
	WaitP50, WaitP95, WaitP99          float64
	SojournP50, SojournP95, SojournP99 float64
}

// StreamStats computes the queueing observables of a finished online
// run. makespan bounds the busy-time integral; it is the scheduler's
// reported makespan (max finish time). Every sum runs in a fixed order
// (node id, then queue depth), so the stats are bit-identical run to
// run.
func StreamStats(done []core.CompletedJob, nodes int, makespan float64) QueueStats {
	var qs QueueStats
	if len(done) == 0 || nodes <= 0 || makespan <= 0 {
		return qs
	}

	// Utilization: per-node union of [Started, Finished) intervals
	// (co-located jobs overlap; the union counts the wall time the
	// node held at least one resident). The intervals are bucketed by
	// node with a counting sort into one flat slice, then each node's
	// run is sorted by start and swept.
	type iv struct{ s, e float64 }
	span := nodes
	for _, c := range done {
		span = max(span, c.Node+1)
	}
	off := make([]int, span+1)
	for _, c := range done {
		off[c.Node+1]++
	}
	for n := 1; n <= span; n++ {
		off[n] += off[n-1]
	}
	ivs := make([]iv, len(done))
	fill := slices.Clone(off[:span])
	for _, c := range done {
		ivs[fill[c.Node]] = iv{c.Started, c.Finished}
		fill[c.Node]++
	}
	busy := 0.0
	for n := 0; n < span; n++ {
		run := ivs[off[n]:off[n+1]]
		if len(run) == 0 {
			continue
		}
		slices.SortFunc(run, func(a, b iv) int { return cmp.Compare(a.s, b.s) })
		curS, curE := run[0].s, run[0].e
		for _, v := range run[1:] {
			if v.s > curE {
				busy += curE - curS
				curS, curE = v.s, v.e
				continue
			}
			if v.e > curE {
				curE = v.e
			}
		}
		busy += curE - curS
	}
	qs.Utilization = busy / (float64(nodes) * makespan)

	// Wait-queue length over time: +1 at submit, −1 at start, swept in
	// time order with time-weighted durations per level.
	type ev struct {
		at float64
		d  int
	}
	evs := make([]ev, 0, 2*len(done))
	for _, c := range done {
		evs = append(evs, ev{c.Submitted, +1}, ev{c.Started, -1})
	}
	slices.SortFunc(evs, func(a, b ev) int {
		if a.at != b.at {
			return cmp.Compare(a.at, b.at)
		}
		return a.d - b.d // starts drain before same-instant submits
	})
	// levelDur[l] is the time spent at depth l. Depth is never negative
	// between instants — a job starts no earlier than it is submitted —
	// so the clamp only keeps malformed input from indexing below 0.
	var levelDur []float64
	addLevel := func(depth int, d float64) {
		depth = max(depth, 0)
		if depth >= len(levelDur) {
			levelDur = append(levelDur, make([]float64, depth+1-len(levelDur))...)
		}
		levelDur[depth] += d
	}
	depth, prevAt := 0, 0.0
	for _, e := range evs {
		if e.at > prevAt {
			addLevel(depth, e.at-prevAt)
			prevAt = e.at
		}
		depth += e.d
		if depth > qs.MaxQueueLen {
			qs.MaxQueueLen = depth
		}
	}
	if makespan > prevAt {
		addLevel(depth, makespan-prevAt)
	}
	total := 0.0
	top := -1
	for l, d := range levelDur {
		if d == 0 {
			continue
		}
		total += d
		qs.MeanQueueLen += float64(l) * d
		top = l
	}
	if total > 0 {
		qs.MeanQueueLen /= total
		cum := 0.0
		qs.P95QueueLen = float64(top)
		for l, d := range levelDur {
			if d == 0 {
				continue
			}
			cum += d
			if cum >= 0.95*total {
				qs.P95QueueLen = float64(l)
				break
			}
		}
	}

	waits := make([]float64, 0, len(done))
	sojourns := make([]float64, 0, len(done))
	for _, c := range done {
		waits = append(waits, c.Started-c.Submitted)
		sojourns = append(sojourns, c.Finished-c.Submitted)
	}
	slices.Sort(waits)
	slices.Sort(sojourns)
	qs.WaitP50, qs.WaitP95, qs.WaitP99 = pct(waits, 0.50), pct(waits, 0.95), pct(waits, 0.99)
	qs.SojournP50, qs.SojournP95, qs.SojournP99 = pct(sojourns, 0.50), pct(sojourns, 0.95), pct(sojourns, 0.99)
	return qs
}

// pct is the nearest-rank percentile of a sorted sample.
func pct(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// AddRows appends the stats to a result table.
func (qs QueueStats) AddRows(tbl *Table) {
	tbl.AddRow("utilization", qs.Utilization)
	tbl.AddRow("mean queue length", qs.MeanQueueLen)
	tbl.AddRow("p95 queue length", qs.P95QueueLen)
	tbl.AddRow("max queue length", qs.MaxQueueLen)
	tbl.AddRow("wait p50/p95/p99 (s)", fmt.Sprintf("%.1f / %.1f / %.1f", qs.WaitP50, qs.WaitP95, qs.WaitP99))
	tbl.AddRow("sojourn p50/p95/p99 (s)", fmt.Sprintf("%.1f / %.1f / %.1f", qs.SojournP50, qs.SojournP95, qs.SojournP99))
}

// OnlineScenario drives the online ECoST control plane with a
// generated scenario stream (internal/scenario) and reports cluster EDP
// plus the queueing observables. It is OnlineTrace for production-shaped
// load: open-loop arrival processes, heavy-tailed sizes, recurring
// tenants. cfg.Shards == 1 runs the whole cluster under one scheduler;
// with more shards and stealing off, makespan and energy match the
// single-shard run to 1e-9 whenever jobs do not overlap in time (see
// DESIGN.md §14 for the determinism contract).
func OnlineScenario(env *Env, spec scenario.Spec, nodes int, cfg core.ShardedConfig) (Table, OnlineData, QueueStats, error) {
	arrivals, err := scenario.Generate(spec)
	if err != nil {
		return Table{}, OnlineData{}, QueueStats{}, err
	}
	return OnlineReplay(env, spec.String(), arrivals, nodes, cfg)
}

// OnlineReplay drives the control plane with a pre-parsed arrival
// stream (a replayed JSONL trace). The run is indistinguishable from the
// generating run: identical streams produce identical tables,
// independent of GOMAXPROCS. The stream must be in nondecreasing time
// order, as scenario.ReadTrace enforces; an arrival the control plane
// rejects (out of order, bad time or size) fails the run.
func OnlineReplay(env *Env, label string, arrivals []trace.Arrival, nodes int, cfg core.ShardedConfig) (Table, OnlineData, QueueStats, error) {
	r, err := runOnline(env, arrivals, nodes, drive{cfg: cfg, tuner: env.LkT})
	if err != nil {
		return Table{}, OnlineData{}, QueueStats{}, err
	}
	return r.scenarioTable("Online ECoST scenario", label, nodes), r.data, r.qs, nil
}
