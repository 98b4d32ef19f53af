package main

import (
	"fmt"

	"ecost/internal/core"
	"ecost/internal/scenario"
	"ecost/internal/trace"
)

// workload is one traffic shape the benchmark drives through the
// online pipeline. Each exists to make a different layer do the work;
// guard fails the run when the input or the counters no longer show
// that purpose.
type workload struct {
	name string
	// spec is the scenario grammar without its jobs= clause.
	spec        string
	jobs        int
	nodes       int
	cfg         core.ShardedConfig
	fastAccrual bool
	guard       func(m map[string]float64) error
}

// workloadTable lists the workloads in BENCHMARK.json order.
var workloadTable = []workload{
	{
		// The 10k-node scale path at the offered load of
		// BenchmarkOnlineShardedCluster. Queues are mostly empty, so
		// free-running windows, the event loop, per-shard parallelism
		// and memo hits do the work; profiling and STP scans are nearly
		// absent.
		name:        "recurring-sharded",
		spec:        "arrivals=poisson:0.09375;mix=zipf:s=1.1,tenants=64",
		jobs:        100_000,
		nodes:       16384,
		cfg:         core.ShardedConfig{Shards: 16, Steal: true, ProfileMemo: true},
		fastAccrual: true,
		guard: func(m map[string]float64) error {
			return atMost(m, "scenario.distinct_obs_share", 0.01)
		},
	},
	{
		// Exactly what `ecost-sim -scenario gen:…` runs: one shard,
		// noisy per-job profiling and per-node accrual. Every job is a
		// new observation, so profile, KNN classify and LkT tune misses
		// dominate; sharding, barriers, stealing and worker parallelism
		// are bypassed.
		name:  "unique-single",
		spec:  "arrivals=poisson:1.5;sizes=lognormal:mu=1.2,sigma=0.8,max=20;mix=unknown",
		jobs:  60_000,
		nodes: 1024,
		cfg:   core.ShardedConfig{Shards: 1},
		guard: func(m map[string]float64) error {
			return atLeast(m, "scenario.distinct_obs_share", 0.9)
		},
	},
	{
		// Bursts at about 4x capacity build and drain queues, so exact
		// barriers, steal passes and wait-queue pairing (leap-forward,
		// reservations) do the work. Routing by app name leaves several
		// of the 16 shards with no routed arrivals.
		name:        "bursty-steal",
		spec:        "arrivals=mmpp:calm=1.0,burst=0.05,pcalm=0.998,pburst=0.998;mix=zipf:s=1.5,tenants=32",
		jobs:        100_000,
		nodes:       512,
		cfg:         core.ShardedConfig{Shards: 16, Steal: true, ProfileMemo: true},
		fastAccrual: true,
		guard: func(m map[string]float64) error {
			if err := atLeast(m, "core.barriers", 1); err != nil {
				return err
			}
			return atLeast(m, "core.steals", 1)
		},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloadTable {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func atMost(m map[string]float64, name string, max float64) error {
	if v := m[name]; v > max {
		return fmt.Errorf("workload guard: %s = %g, want <= %g", name, v, max)
	}
	return nil
}

func atLeast(m map[string]float64, name string, min float64) error {
	if v := m[name]; v < min {
		return fmt.Errorf("workload guard: %s = %g, want >= %g", name, v, min)
	}
	return nil
}

// stream generates the workload's arrival stream for seed: a window of
// w.jobs arrivals, starting at a seed-chosen offset into the scenario
// stream, re-based to start at t=0. The scenario seed alone does not
// vary the stream, because sim.RNG.Split derives every scenario
// substream from its stream id and not from the parent seed; the
// offset makes each seed replay a different stretch of the same
// stationary traffic shape, while the seed still reaches the scenario.
func (w workload) stream(seed int64) ([]trace.Arrival, error) {
	off := int(splitmix(uint64(seed)) % uint64(w.jobs/2))
	spec, err := scenario.ParseSpec(fmt.Sprintf("jobs=%d;%s", off+w.jobs, w.spec))
	if err != nil {
		return nil, err
	}
	spec.Seed = seed
	all, err := scenario.Generate(spec)
	if err != nil {
		return nil, err
	}
	out := make([]trace.Arrival, w.jobs)
	t0 := all[off].At
	for i, a := range all[off:] {
		a.At -= t0
		out[i] = a
	}
	return out, nil
}

// splitmix is the SplitMix64 finaliser: neighbouring seeds map to
// unrelated offsets.
func splitmix(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// distinctObsShare is the share of arrivals whose (app, size) pair is
// new to the stream: the part of the input that recurring-tenant
// shortcuts (profile memo, tune memo) cannot help.
func distinctObsShare(arrivals []trace.Arrival) float64 {
	type key struct {
		app  string
		size float64
	}
	seen := make(map[key]struct{})
	for _, a := range arrivals {
		seen[key{a.App.Name, a.SizeGB}] = struct{}{}
	}
	return float64(len(seen)) / float64(len(arrivals))
}
