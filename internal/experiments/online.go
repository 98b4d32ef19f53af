package experiments

import (
	"fmt"
	"time"

	"ecost/internal/core"
	"ecost/internal/metrics"
	"ecost/internal/scenario"
	"ecost/internal/sim"
	"ecost/internal/trace"
)

// OnlineData summarizes an open-loop run of the event-driven scheduler.
type OnlineData struct {
	Jobs        int
	Makespan    float64
	EnergyJ     float64
	EDP         float64
	MeanWait    float64 // mean queueing delay (start - submit)
	MaxWait     float64
	MeanElapsed float64 // mean sojourn (finish - submit)
}

// OnlineTrace drives the online ECoST scheduler with a synthetic arrival
// trace — the open-loop extension of the paper's closed 16-job
// scenarios. It reports cluster EDP and queueing behaviour (the head
// reservation keeps the maximum wait bounded). The whole cluster runs
// under one scheduler, tuned by REPTree.
func OnlineTrace(env *Env, spec trace.Spec, nodes int) (Table, OnlineData, error) {
	arrivals, err := trace.Generate(spec)
	if err != nil {
		return Table{}, OnlineData{}, err
	}
	r, err := runOnline(env, arrivals, nodes, drive{cfg: core.ShardedConfig{Shards: 1}, tuner: env.REPTree})
	if err != nil {
		return Table{}, OnlineData{}, err
	}
	tbl := Table{
		Title:  fmt.Sprintf("Online ECoST: %d jobs, %d node(s), mean inter-arrival %.0fs", r.data.Jobs, nodes, spec.MeanInterarrival),
		Header: []string{"metric", "value"},
	}
	addOnlineRows(&tbl, r.data)
	return tbl, r.data, nil
}

// drive selects how runOnline builds the control plane.
type drive struct {
	cfg     core.ShardedConfig
	tuner   core.STP // every shard memoizes its own wrapper of it
	observe bool     // attach the full ShardedObservation stack
	fast    bool     // O(1) aggregate energy accrual
}

// onlineRun is one finished drive: the scheduler (for shard and barrier
// counters), the summary, the queueing observables, and the observation
// handles when the drive was observed.
type onlineRun struct {
	sched *core.ShardedScheduler
	data  OnlineData
	qs    QueueStats
	obs   *ShardedObservation
}

// runOnline is the one drive behind every online experiment: it builds
// the sharded control plane over the env (one shard is the whole
// cluster under a single scheduler), submits the stream, runs it, and
// summarizes the completions. The stream must be in nondecreasing
// arrival order, as every generator and trace reader emits it.
func runOnline(env *Env, arrivals []trace.Arrival, nodes int, d drive) (*onlineRun, error) {
	r := &onlineRun{}
	newTuner := func() core.STP { return core.NewMemoSTP(d.tuner, nil) }
	if d.observe {
		r.obs = &ShardedObservation{}
		newTuner = func() core.STP {
			reg := metrics.NewRegistry()
			r.obs.Registries = append(r.obs.Registries, reg)
			return core.NewMeteredSTP(core.NewMemoSTP(d.tuner, reg), env.Model, reg)
		}
	}
	sched, err := core.NewShardedScheduler(env.Model, env.DB, env.Profiler, newTuner, nodes, d.cfg)
	if err != nil {
		return nil, err
	}
	r.sched = sched
	sched.SetFastAccrual(d.fast)
	if d.observe {
		r.obs.attach(sched)
	}
	for _, a := range arrivals {
		if err := sched.Submit(a.App, a.SizeGB, a.At); err != nil {
			return nil, err
		}
	}
	makespan, energy, err := sched.Run()
	if err != nil {
		return nil, err
	}
	r.data = OnlineData{Jobs: len(arrivals), Makespan: makespan, EnergyJ: energy, EDP: energy * makespan}
	done := sched.Completed()
	for _, c := range done {
		wait := c.Started - c.Submitted
		r.data.MeanWait += wait
		r.data.MaxWait = max(r.data.MaxWait, wait)
		r.data.MeanElapsed += c.Finished - c.Submitted
	}
	if len(done) > 0 {
		r.data.MeanWait /= float64(len(done))
		r.data.MeanElapsed /= float64(len(done))
	}
	r.qs = StreamStats(done, nodes, makespan)
	return r, nil
}

// scenarioTable renders a stream run: the shared online rows and the
// queueing observables, plus — only when the run was sharded — the
// shard count in the title and the shard, steal and barrier rows.
func (r *onlineRun) scenarioTable(title, label string, nodes int) Table {
	shards := r.sched.Shards()
	if shards > 1 {
		title += fmt.Sprintf(" (%d shard(s))", shards)
	}
	tbl := Table{
		Title:  fmt.Sprintf("%s: %s, %d node(s)", title, label, nodes),
		Header: []string{"metric", "value"},
	}
	addOnlineRows(&tbl, r.data)
	r.qs.AddRows(&tbl)
	tbl.Notes = append(tbl.Notes,
		"utilization is busy node-time over nodes x makespan; queue lengths are time-weighted")
	if shards == 1 {
		return tbl
	}
	tbl.AddRow("shards", shards)
	tbl.AddRow("steals", r.sched.Steals())
	bs := r.sched.BarrierStats()
	tbl.AddRow("exact barriers", bs.Barriers)
	tbl.AddRow("free windows", bs.Windows)
	tbl.AddRow("events elided", bs.WindowEvents)
	tbl.AddRow("elided %", fmt.Sprintf("%.1f", 100*bs.ElidedRatio()))
	tbl.Notes = append(tbl.Notes,
		"shards own disjoint node slices; submissions route by tenant hash, idle shards steal queue heads at event barriers",
		"barriers are exact lock-step steal passes; free windows let shards run unsynchronized while no thief/victim pairing can exist (events elided counts work that skipped a barrier)")
	return tbl
}

// addOnlineRows appends the shared summary rows of an online run.
func addOnlineRows(tbl *Table, data OnlineData) {
	tbl.AddRow("makespan (s)", data.Makespan)
	tbl.AddRow("energy (kJ)", data.EnergyJ/1000)
	tbl.AddRow("EDP (J·s)", data.EDP)
	tbl.AddRow("mean wait (s)", data.MeanWait)
	tbl.AddRow("max wait (s)", data.MaxWait)
	tbl.AddRow("mean sojourn (s)", data.MeanElapsed)
	tbl.Notes = append(tbl.Notes,
		"head-of-queue reservation bounds the maximum wait (no starvation)")
}

// freshProfiler returns a shallow copy of env with a new profiler
// seeded by env.Seed, so a sweep point observes the same measurement
// noise as every other point.
func freshProfiler(env *Env) *Env {
	e := *env
	e.Profiler = core.NewProfiler(env.Model, sim.NewRNG(env.Seed))
	return &e
}

// ShardSweepPoint is one shard count of a control-plane throughput
// sweep.
type ShardSweepPoint struct {
	Shards     int
	WallMS     float64 // host wall-clock for the whole run
	JobsPerSec float64 // simulated jobs per host second
	Makespan   float64
	EnergyJ    float64
	Steals     int
	Barriers   int64 // exact lock-step barrier iterations (steal passes)
	Windows    int64 // free-running barrier-free spans
	Elided     int64 // events fired inside windows (barriers elided)
}

// ShardSweep reruns one scenario stream at each shard count and reports
// control-plane throughput (simulated jobs per host-second) next to the
// simulated outcome. Each point starts from a fresh profiler seeded by
// env.Seed, so the offered stream is identical across rows and only the
// partitioning changes; jobs/s is host-dependent and meant for relative
// comparison, the simulated columns for checking outcome stability. The
// sweep runs the perf configuration: stealing, recurring-tenant profile
// memoization, and O(1) aggregate energy accrual all on.
func ShardSweep(env *Env, spec scenario.Spec, nodes int, shardCounts []int) (Table, []ShardSweepPoint, error) {
	arrivals, err := scenario.Generate(spec)
	if err != nil {
		return Table{}, nil, err
	}
	tbl := Table{
		Title:  fmt.Sprintf("Shard sweep: %s, %d node(s)", spec.String(), nodes),
		Header: []string{"shards", "wall (ms)", "jobs/s", "makespan (s)", "energy (kJ)", "steals", "barriers", "elided", "elided %"},
	}
	var points []ShardSweepPoint
	for _, s := range shardCounts {
		d := drive{cfg: core.ShardedConfig{Shards: s, Steal: s > 1, ProfileMemo: true}, tuner: env.LkT, fast: true}
		start := time.Now()
		r, err := runOnline(freshProfiler(env), arrivals, nodes, d)
		if err != nil {
			return Table{}, nil, err
		}
		wall := time.Since(start)
		bs := r.sched.BarrierStats()
		p := ShardSweepPoint{
			Shards:     s,
			WallMS:     float64(wall.Microseconds()) / 1000,
			JobsPerSec: float64(len(arrivals)) / wall.Seconds(),
			Makespan:   r.data.Makespan,
			EnergyJ:    r.data.EnergyJ,
			Steals:     r.sched.Steals(),
			Barriers:   bs.Barriers,
			Windows:    bs.Windows,
			Elided:     bs.WindowEvents,
		}
		points = append(points, p)
		tbl.AddRow(p.Shards, p.WallMS, p.JobsPerSec, p.Makespan, p.EnergyJ/1000, p.Steals,
			p.Barriers, p.Elided, fmt.Sprintf("%.1f", 100*bs.ElidedRatio()))
	}
	tbl.Notes = append(tbl.Notes,
		"jobs/s is host wall-clock throughput of the control plane (machine-dependent); simulated columns show outcome stability",
		"barriers counts exact lock-step steal passes, elided the events that ran in free windows instead of under a barrier")
	return tbl, points, nil
}
