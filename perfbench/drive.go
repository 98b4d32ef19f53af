package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"syscall"
	"time"

	"ecost/internal/core"
	"ecost/internal/experiments"
	"ecost/internal/mapreduce"
	"ecost/internal/metrics"
	"ecost/internal/sim"
	"ecost/internal/trace"
)

// pipeline is the shared state every repetition reuses: the execution
// model, the database and the LkT technique NewEnv built.
type pipeline struct {
	model *mapreduce.Model
	db    *core.Database
	lkt   expectingSTP
}

// rep is the outcome of one repetition: one fresh ShardedScheduler fed
// the whole stream.
type rep struct {
	began    time.Time     // first Submit
	wall     time.Duration // first Submit to the end of StreamStats
	failed   int           // jobs not completed exactly once
	problems []string      // failed output checks

	digest   uint64
	makespan float64
	energy   float64
	stats    experiments.QueueStats

	barriers  core.BarrierStats
	steals    int
	shardJobs []int
	hits      int64
	misses    int64

	runWall    time.Duration
	runCPU     time.Duration
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32

	// driver and shards hold a traced repetition's spans, queue a
	// counted repetition's wait-queue counters.
	driver *spanLog
	shards []*spanLog
	queue  queueCounters
}

// queueCounters are the wait-queue readings of the per-shard metrics
// registries a counted repetition attaches.
type queueCounters struct {
	highwater                     float64 // max over shards
	pairings, leaps, reservations int64   // sums over shards
}

// mode selects what a repetition observes.
type mode int

const (
	// modeUntraced drives the pipeline exactly as ecost-sim and the
	// experiments do.
	modeUntraced mode = iota
	// modeCounted attaches a metrics registry to each shard to read the
	// wait-queue counters. Registry emission roughly doubles the cost
	// of Run, so counted repetitions are checked but not timed.
	modeCounted
	// modeTraced wraps each shard's LkT in a timedSTP and records spans
	// around every call into the pipeline.
	modeTraced
)

// drive runs one repetition in mode md.
func drive(p pipeline, w workload, arrivals []trace.Arrival, seed int64, md mode) (rep, error) {
	traced := md == modeTraced
	var r rep
	epoch := time.Now()
	if traced {
		r.driver = &spanLog{epoch: epoch, parent: -1}
	}
	var memos []*core.MemoSTP
	newTuner := func() core.STP {
		var inner core.STP = p.lkt
		if traced {
			l := &spanLog{epoch: epoch}
			r.shards = append(r.shards, l)
			inner = &timedSTP{inner: p.lkt, log: l}
		}
		m := core.NewMemoSTP(inner, nil)
		memos = append(memos, m)
		return m
	}
	prof := core.NewProfiler(p.model, sim.NewRNG(seed))
	sched, err := core.NewShardedScheduler(p.model, p.db, prof, newTuner, w.nodes, w.cfg)
	if err != nil {
		return r, err
	}
	sched.SetFastAccrual(w.fastAccrual)
	var regs []*metrics.Registry
	if md == modeCounted {
		for i := 0; i < sched.Shards(); i++ {
			reg := metrics.NewRegistry()
			sched.Shard(i).SetMetrics(reg)
			regs = append(regs, reg)
		}
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d := r.driver
	start := time.Since(epoch)
	r.began = epoch.Add(start)
	if traced {
		d.spans = append(d.spans, span{name: spanDrive, start: start, parent: -1, job: -1})
		d.parent = 0
	}
	for i, a := range arrivals {
		if traced {
			t := d.now()
			sched.Submit(a.App, a.SizeGB, a.At)
			d.add(spanSubmit, t, i)
			continue
		}
		sched.Submit(a.App, a.SizeGB, a.At)
	}

	cpu0 := cpuTime()
	runStart := time.Since(epoch)
	if traced {
		// Tune spans fire inside Run; the run span is their parent.
		d.spans = append(d.spans, span{name: spanRun, start: runStart, parent: 0, job: -1})
		for _, l := range r.shards {
			l.parent = int32(len(d.spans) - 1)
		}
	}
	makespan, energy, runErr := sched.Run()
	runEnd := time.Since(epoch)
	r.runCPU = cpuTime() - cpu0
	r.runWall = runEnd - runStart
	if traced {
		d.spans[len(d.spans)-1].end = runEnd
	}

	t := time.Since(epoch)
	done := sched.Completed()
	if traced {
		d.add(spanCompleted, t, -1)
	}
	t = time.Since(epoch)
	r.stats = experiments.StreamStats(done, w.nodes, makespan)
	end := time.Since(epoch)
	if traced {
		d.add(spanStats, t, -1)
		d.spans[0].end = end
	}
	r.wall = end - start
	runtime.ReadMemStats(&m1)
	r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	r.mallocs = m1.Mallocs - m0.Mallocs
	r.gcCycles = m1.NumGC - m0.NumGC

	if runErr != nil {
		// An aborted run counts every job as failed.
		r.failed = len(arrivals)
		r.problems = append(r.problems, runErr.Error())
		return r, nil
	}
	r.makespan, r.energy = makespan, energy
	r.digest = digest(done, makespan, energy)
	r.failed = completionFailures(done, len(arrivals))
	if r.failed > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%d of %d jobs not completed exactly once", r.failed, len(arrivals)))
	}
	phases := sched.Phases()
	if e, pt := sched.EnergyJ(), phases.TotalJ(); math.Abs(e-pt) > 1e-9*math.Abs(e) {
		r.problems = append(r.problems, fmt.Sprintf("EnergyJ %.17g != Phases().TotalJ %.17g", e, pt))
	}
	r.barriers = sched.BarrierStats()
	r.steals = sched.Steals()
	r.shardJobs = shardCompletions(done, sched.ShardNodes())
	for _, m := range memos {
		h, mi := m.HitMiss()
		r.hits += h
		r.misses += mi
	}
	for _, reg := range regs {
		r.queue.highwater = max(r.queue.highwater, reg.Gauge("queue.depth_highwater").Value())
		r.queue.pairings += reg.Counter("sched.pairings").Value()
		r.queue.leaps += reg.Counter("sched.leaps").Value()
		r.queue.reservations += reg.Counter("sched.reservations").Value()
	}
	return r, nil
}

// digest fingerprints the completions (id, node, start, finish) plus
// makespan and energy, bit for bit.
func digest(done []core.CompletedJob, makespan, energy float64) uint64 {
	h := fnv.New64a()
	var buf [32]byte
	for _, c := range done {
		binary.LittleEndian.PutUint64(buf[0:], uint64(c.ID))
		binary.LittleEndian.PutUint64(buf[8:], uint64(c.Node))
		binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(c.Started))
		binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(c.Finished))
		h.Write(buf[:])
	}
	binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(makespan))
	binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(energy))
	h.Write(buf[:16])
	return h.Sum64()
}

// completionFailures counts submitted ids that did not complete exactly
// once: missing ids, duplicated ids and ids never submitted.
func completionFailures(done []core.CompletedJob, submitted int) int {
	seen := make([]int, submitted)
	failed := 0
	for _, c := range done {
		if c.ID < 0 || c.ID >= submitted {
			failed++
			continue
		}
		seen[c.ID]++
	}
	for _, n := range seen {
		if n != 1 {
			failed++
		}
	}
	return failed
}

// shardCompletions counts completions per shard; shard i owns the
// contiguous global node range after shards 0..i-1.
func shardCompletions(done []core.CompletedJob, shardNodes []int) []int {
	bounds := make([]int, len(shardNodes))
	sum := 0
	for i, n := range shardNodes {
		sum += n
		bounds[i] = sum
	}
	out := make([]int, len(shardNodes))
	for _, c := range done {
		for i, b := range bounds {
			if c.Node < b {
				out[i]++
				break
			}
		}
	}
	return out
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (getrusage maxrss).
func peakRSSMB() float64 {
	return float64(rusage().Maxrss) / 1024 // KiB on Linux
}

// rusage reads the process's own usage; getrusage(RUSAGE_SELF) fails
// only on a bad pointer, so an error is a bug.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error())
	}
	return ru
}
