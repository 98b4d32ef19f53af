package experiments

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"ecost/internal/core"
	"ecost/internal/scenario"
	"ecost/internal/trace"
)

// scenarioSpec is the small mixed-shape stream the scenario tests run:
// bursty arrivals, heavy-tailed sizes, recurring zipf tenants.
func scenarioSpec(jobs int) scenario.Spec {
	return scenario.Spec{
		Jobs: jobs,
		Seed: 17,
		Arrivals: scenario.ArrivalSpec{Kind: scenario.ArrivalMMPP,
			CalmMean: 400, BurstMean: 40, CalmStay: 0.9, BurstStay: 0.8},
		Sizes: scenario.SizeSpec{Kind: scenario.SizePareto, Alpha: 1.6, Min: 1, Max: 12},
		Mix:   scenario.MixSpec{Kind: scenario.MixZipf, S: 1.1, Tenants: 6},
	}
}

// instrumentedRun drives one fully observed single-shard run through
// the production online runner (metrics, tracing, audit and a memoized
// metered LkT tuner) from a fresh profiler, and returns the three
// deterministic exports: the metrics snapshot text, the span timeline,
// and the decision JSONL.
func instrumentedRun(t *testing.T, env *Env, arrivals []trace.Arrival, nodes int) (snap, timeline, decisions string) {
	t.Helper()
	r, err := runOnline(freshProfiler(env), arrivals, nodes, drive{cfg: core.ShardedConfig{Shards: 1}, tuner: env.LkT, observe: true})
	if err != nil {
		t.Fatal(err)
	}
	var snapBuf, tlBuf, decBuf bytes.Buffer
	if err := r.obs.Registries[0].Snapshot(false).WriteText(&snapBuf); err != nil {
		t.Fatal(err)
	}
	if err := r.obs.Trace.WriteTimeline(&tlBuf); err != nil {
		t.Fatal(err)
	}
	if err := r.obs.Audits[0].WriteJSONL(&decBuf); err != nil {
		t.Fatal(err)
	}
	return snapBuf.String(), tlBuf.String(), decBuf.String()
}

// TestRecordReplayGolden is the acceptance golden: a generated stream
// recorded to JSONL and replayed produces byte-identical metrics
// snapshot, span timeline and decision JSONL through the online
// scheduler, at GOMAXPROCS 1 and 4.
func TestRecordReplayGolden(t *testing.T) {
	env := sharedEnv(t)
	generated, err := scenario.Generate(scenarioSpec(24))
	if err != nil {
		t.Fatal(err)
	}
	var rec bytes.Buffer
	if err := scenario.WriteTrace(&rec, generated); err != nil {
		t.Fatal(err)
	}
	replayed, err := scenario.ReadTrace(bytes.NewReader(rec.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		snapGen, tlGen, decGen := instrumentedRun(t, env, generated, 2)
		snapRep, tlRep, decRep := instrumentedRun(t, env, replayed, 2)
		if snapGen != snapRep {
			t.Fatalf("GOMAXPROCS=%d: metrics snapshot diverged between generated and replayed run", procs)
		}
		if tlGen != tlRep {
			t.Fatalf("GOMAXPROCS=%d: span timeline diverged between generated and replayed run", procs)
		}
		if decGen != decRep {
			t.Fatalf("GOMAXPROCS=%d: decision JSONL diverged between generated and replayed run", procs)
		}
		if !strings.Contains(tlGen, "job") {
			t.Fatal("timeline carries no job spans; the run did not execute")
		}
	}

	// Cross-GOMAXPROCS: the exports themselves must not depend on
	// parallelism either.
	runtime.GOMAXPROCS(1)
	s1, t1, d1 := instrumentedRun(t, env, generated, 2)
	runtime.GOMAXPROCS(4)
	s4, t4, d4 := instrumentedRun(t, env, generated, 2)
	if s1 != s4 || t1 != t4 || d1 != d4 {
		t.Fatal("instrumented exports diverged across GOMAXPROCS 1 vs 4")
	}
}

// TestOnlineScenarioStats: the scenario runner reports coherent
// queueing observables on a saturating stream.
func TestOnlineScenarioStats(t *testing.T) {
	r := runScenario(t, sharedEnv(t), scenarioSpec(20), 2, core.ShardedConfig{Shards: 1}, false)
	qs := r.qs
	if r.data.Jobs != 20 {
		t.Fatalf("ran %d jobs, want 20", r.data.Jobs)
	}
	if qs.Utilization <= 0 || qs.Utilization > 1 {
		t.Fatalf("utilization %v outside (0, 1]", qs.Utilization)
	}
	if qs.SojournP50 > qs.SojournP95 || qs.SojournP95 > qs.SojournP99 {
		t.Fatalf("sojourn percentiles not monotone: %v %v %v", qs.SojournP50, qs.SojournP95, qs.SojournP99)
	}
	if qs.WaitP50 > qs.WaitP95 || qs.WaitP95 > qs.WaitP99 {
		t.Fatalf("wait percentiles not monotone: %v %v %v", qs.WaitP50, qs.WaitP95, qs.WaitP99)
	}
	if qs.SojournP99 <= 0 {
		t.Fatal("p99 sojourn is zero; jobs take time")
	}
	if float64(qs.MaxQueueLen) < qs.P95QueueLen || qs.P95QueueLen < 0 {
		t.Fatalf("queue-length stats incoherent: max %d p95 %v", qs.MaxQueueLen, qs.P95QueueLen)
	}
}

// TestStreamStatsUnion pins the busy-time union on a hand-built
// completion set: two overlapping residents on one node must not
// double-count.
func TestStreamStatsUnion(t *testing.T) {
	done := []core.CompletedJob{
		{Node: 0, Submitted: 0, Started: 0, Finished: 10},
		{Node: 0, Submitted: 0, Started: 5, Finished: 15}, // overlaps 5..10
		{Node: 1, Submitted: 2, Started: 16, Finished: 20},
	}
	qs := StreamStats(done, 2, 20)
	// Node 0 busy 0..15 (15s), node 1 busy 16..20 (4s) → 19/40.
	if got, want := qs.Utilization, 19.0/40.0; got != want {
		t.Fatalf("utilization %v, want %v", got, want)
	}
	// Job 2 waits 0..5 and job 3 waits 2..16: depth 2 during 2..5.
	if qs.MaxQueueLen != 2 {
		t.Fatalf("max queue length %d, want 2", qs.MaxQueueLen)
	}
	// Depth timeline: 1 over 0..2, 2 over 2..5, 1 over 5..16, 0 after.
	if got, want := qs.MeanQueueLen, (2*1+3*2+11*1)/20.0; got != want {
		t.Fatalf("mean queue length %v, want %v", got, want)
	}
}
