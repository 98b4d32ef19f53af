package core

import (
	"testing"

	"ecost/internal/audit"
	"ecost/internal/cluster"
	"ecost/internal/mapreduce"
	"ecost/internal/metrics"
	"ecost/internal/sim"
	"ecost/internal/tracing"
)

// tracedBusyScheduler builds a fully instrumented 4-node scheduler with
// every node co-running two WS4 jobs: arrivals are submitted at t=0 and
// the engine is stepped through exactly the arrival event, so the
// placements happen but no completion has fired yet.
func tracedBusyScheduler(tb testing.TB) *OnlineScheduler {
	tb.Helper()
	fixture(tb)
	c, s := newSolo(tb, fix.db, fix.lkt, NewProfiler(fix.model, sim.NewRNG(3)), 4)
	s.SetMetrics(metrics.NewRegistry())
	s.SetTracer(tracing.New(s.Engine.Clock()))
	s.SetAudit(audit.NewLog(audit.DriftConfig{}))
	wl, err := Scenario("WS4")
	if err != nil {
		tb.Fatal(err)
	}
	for _, j := range wl.Jobs[:8] {
		c.Submit(j.App, j.SizeGB, 0)
	}
	c.deal()
	if !s.Engine.Step() {
		tb.Fatal("engine drained before the arrivals fired")
	}
	for _, n := range s.nodes {
		if len(n.residents) == 0 {
			tb.Fatalf("node %d idle; want every node busy", n.id)
		}
	}
	return s
}

// TestAccrueEnergyZeroAlloc is the satellite acceptance check: with
// metrics, tracing, AND the decision audit all attached, the energy
// accrual path must not allocate — the per-node watts cache and the
// scratch spec buffer removed the last per-accrual allocations.
func TestAccrueEnergyZeroAlloc(t *testing.T) {
	s := tracedBusyScheduler(t)
	allocs := testing.AllocsPerRun(100, func() {
		s.lastUpdate = -1 // force dt > 0 so the full accrual body runs
		s.accrueEnergy()
	})
	if allocs != 0 {
		t.Fatalf("accrueEnergy allocates %v times per call with tracing+audit enabled; want 0", allocs)
	}
}

// BenchmarkAccrueEnergyTraced measures the fully instrumented accrual
// path (metrics + tracing + audit attached, all nodes co-running).
// Guarded in CI via BENCH_PERF.json: must stay allocation-free.
// -ecost.naive measures the legacy per-accrual spec-list+Steady recompute.
func BenchmarkAccrueEnergyTraced(b *testing.B) {
	s := tracedBusyScheduler(b)
	s.SetNaive(*naiveFlag)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.lastUpdate = -1
		s.accrueEnergy()
	}
}

// disabledScheduler builds the smallest possible scheduler with every
// observability sink off, for benchmarking the disabled fast paths.
func disabledScheduler(tb testing.TB) *OnlineScheduler {
	tb.Helper()
	model := mapreduce.NewModel(cluster.AtomC2758())
	db := &Database{}
	c, err := NewShardedScheduler(model, db, NewProfiler(model, sim.NewRNG(1)),
		func() STP { return &LkTSTP{DB: db} }, 1, ShardedConfig{Shards: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return c.Shard(0)
}

// BenchmarkDisabledDepthSample measures the observer seam's pick
// transition — whose enabled path samples the queue depth — with
// observability fully off: like the other disabled paths it must stay
// a single inlined nil check (sub-ns, zero alloc; guarded in CI).
func BenchmarkDisabledDepthSample(b *testing.B) {
	s := disabledScheduler(b)
	n, j := s.nodes[0], &Job{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ob.pick(j, n, -1)
	}
}

// BenchmarkDisabledOccupancyRoll measures the observer seam's place
// transition — whose enabled path rolls the node's occupancy span —
// with observability fully off (sub-ns, zero alloc; guarded in CI).
func BenchmarkDisabledOccupancyRoll(b *testing.B) {
	s := disabledScheduler(b)
	n, oj := s.nodes[0], &onlineJob{job: &Job{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ob.place(n, oj, tuneInfo{}, -1)
	}
}

// BenchmarkOnlineLargeCluster is the tentpole scale benchmark: a
// thousand-node cluster fed a long recurring-job stream. Short mode
// (what CI's bench-guard runs) uses 256 nodes × 2000 jobs; full mode
// 1024 × 20000. The mean interarrival scales inversely with cluster
// size so the offered load — and therefore queue behavior — is
// comparable across sizes. -ecost.naive measures the legacy
// reference path (per-accrual Steady recompute over every node,
// linear dispatch scans, whole-queue partner scans, no tune memo);
// the optimized path must beat it ≥10× at the full size.
func BenchmarkOnlineLargeCluster(b *testing.B) {
	fixture(b)
	nodes, jobs := 1024, 20000
	if testing.Short() {
		nodes, jobs = 256, 2000
	}
	wl, err := Scenario("WS4")
	if err != nil {
		b.Fatal(err)
	}
	mean := 1536.0 / float64(nodes)
	completed := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var tuner STP = fix.lkt
		if !*naiveFlag {
			tuner = NewMemoSTP(fix.lkt, nil)
		}
		c, s := newSolo(b, fix.db, tuner, NewProfiler(fix.model, sim.NewRNG(17)), nodes)
		s.SetNaive(*naiveFlag)
		rng := sim.NewRNG(18)
		at := 0.0
		for j := 0; j < jobs; j++ {
			spec := wl.Jobs[j%len(wl.Jobs)]
			c.Submit(spec.App, spec.SizeGB, at)
			at += rng.Exp(mean)
		}
		if _, _, err := c.Run(); err != nil {
			b.Fatal(err)
		}
		completed += len(c.Completed())
	}
	b.StopTimer()
	if completed != b.N*jobs {
		b.Fatalf("completed %d jobs, want %d", completed, b.N*jobs)
	}
	b.ReportMetric(float64(completed)/b.Elapsed().Seconds(), "jobs/s")
}
