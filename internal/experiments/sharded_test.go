package experiments

import (
	"strings"
	"testing"

	"ecost/internal/core"
	"ecost/internal/scenario"
)

// freshEnv returns a shallow copy of the shared Env with a fresh
// profiler at the canonical seed, so two runs observe identical
// measurement noise regardless of what earlier tests consumed.
func freshEnv(t *testing.T) *Env {
	t.Helper()
	return freshProfiler(sharedEnv(t))
}

// TestOnlineScenarioShardedMultiShard: a multi-shard steal-enabled run
// completes the stream, reports coherent stats, and is deterministic
// run to run.
func TestOnlineScenarioShardedMultiShard(t *testing.T) {
	spec := scenarioSpec(20)
	cfg := core.ShardedConfig{Shards: 4, Steal: true, ProfileMemo: true}
	_, a, qsA, err := OnlineScenario(freshEnv(t), spec, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Jobs != 20 {
		t.Fatalf("ran %d jobs, want 20", a.Jobs)
	}
	if qsA.Utilization <= 0 || qsA.Utilization > 1 {
		t.Fatalf("utilization %v outside (0, 1]", qsA.Utilization)
	}
	if a.Makespan <= 0 || a.EnergyJ <= 0 {
		t.Fatalf("degenerate run: makespan %v energy %v", a.Makespan, a.EnergyJ)
	}
	_, b, qsB, err := OnlineScenario(freshEnv(t), spec, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b || qsA != qsB {
		t.Fatalf("multi-shard run not deterministic:\n got %+v / %+v\nwant %+v / %+v", b, qsB, a, qsA)
	}
}

// TestOnlineReplaySharded: replaying the generating stream through the
// sharded runner reproduces the generated run exactly.
func TestOnlineReplaySharded(t *testing.T) {
	spec := scenarioSpec(16)
	cfg := core.ShardedConfig{Shards: 2, Steal: true}
	_, want, wantQS, err := OnlineScenario(freshEnv(t), spec, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	arrivals, err := scenario.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, got, gotQS, err := OnlineReplay(freshEnv(t), "replay", arrivals, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || gotQS != wantQS {
		t.Fatalf("replay diverged from generating run:\n got %+v / %+v\nwant %+v / %+v", got, gotQS, want, wantQS)
	}
}

// TestOnlineReplayRejectsBadStream: an arrival the control plane
// rejects — here one out of time order — fails the run with an error
// instead of a panic.
func TestOnlineReplayRejectsBadStream(t *testing.T) {
	arrivals, err := scenario.Generate(scenarioSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	arrivals[1].At, arrivals[2].At = arrivals[2].At+1, arrivals[1].At
	if _, _, _, err := OnlineReplay(freshEnv(t), "bad", arrivals, 2, core.ShardedConfig{Shards: 1}); err == nil {
		t.Fatal("out-of-order stream accepted")
	}
}

// TestShardSweep: the sweep produces one well-formed point per shard
// count with identical simulated job counts.
func TestShardSweep(t *testing.T) {
	env := sharedEnv(t)
	tbl, points, err := ShardSweep(env, scenarioSpec(16), 4, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("%d points, want 3", len(points))
	}
	for _, p := range points {
		if p.JobsPerSec <= 0 || p.WallMS <= 0 {
			t.Fatalf("shards %d: degenerate throughput %v jobs/s, %v ms", p.Shards, p.JobsPerSec, p.WallMS)
		}
		if p.Makespan <= 0 || p.EnergyJ <= 0 {
			t.Fatalf("shards %d: degenerate outcome makespan %v energy %v", p.Shards, p.Makespan, p.EnergyJ)
		}
	}
	if points[0].Steals != 0 {
		t.Fatalf("single-shard point stole %d jobs; stealing needs a victim shard", points[0].Steals)
	}
	if !strings.Contains(tbl.String(), "Shard sweep") {
		t.Errorf("table title missing:\n%s", tbl.String())
	}
}
