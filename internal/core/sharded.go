package core

// The sharded control plane: the cluster is partitioned across S
// per-shard OnlineSchedulers — each owning its own node slice, engine,
// wait-queue index, and tune-cache shard — with submissions routed by a
// deterministic app/tenant hash and a bounded work-stealing pass at
// event-loop barriers. Every export — metrics snapshots, timelines,
// decision logs, completions, energy — is a pure function of the
// submitted stream at any GOMAXPROCS, and steals fire at deterministic
// sim times rather than goroutine-timing-dependent moments.
//
// Barriers are elided wherever cross-shard interaction is provably
// impossible (DESIGN.md §17). The steal pass is the only cross-shard
// interaction, and a queue can only grow at an arrival event — every
// arrival is submitted before Run, so the arrival timeline is fully
// known. Whenever all wait queues are empty, no steal can fire at any
// barrier before the next arrival, and every shard free-runs through
// that window fully in parallel; with stealing off (or one shard) the
// whole run is one window. The exact lock-step cadence is retained as
// the reference path (SetFullBarriers) and engages automatically when a
// flight recorder is attached, because epoch records sample every shard
// at every global event time.

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"

	"ecost/internal/flight"
	"ecost/internal/mapreduce"
	"ecost/internal/power"
	"ecost/internal/sim"
	"ecost/internal/tracing"
	"ecost/internal/workloads"
)

// ShardedConfig parameterizes the sharded control plane.
type ShardedConfig struct {
	// Shards is the number of per-shard schedulers (1..nodes).
	Shards int
	// Steal enables the barrier work-stealing pass: a shard with an
	// empty queue and free capacity claims queued jobs from neighbors.
	Steal bool
	// ProfileMemo replaces the router's serial noisy profiling with
	// noise-free ObserveExact profiles memoized by (app, size). Recurring
	// tenants then profile once ever — the "recurring jobs have
	// recurring profiles" shortcut — at the cost of exact equivalence
	// with the legacy sampler-noise stream. Benchmarks and large
	// scenario sweeps want this; equivalence goldens must not.
	ProfileMemo bool
}

// stealBatch caps how many jobs one shard claims per barrier. The cap
// bounds how far a single barrier can rebalance, keeping steal-induced
// divergence local.
const stealBatch = 8

// ShardedScheduler drives S per-shard OnlineSchedulers in lock-step
// epochs. Build with NewShardedScheduler, attach per-shard
// observability via Shard(i), Submit the stream in nondecreasing
// arrival order, then Run.
type ShardedScheduler struct {
	cfg    ShardedConfig
	shards []*OnlineScheduler
	prof   *Profiler

	// table interns every routed observation; all shards share it and
	// only read it while they run. Under ProfileMemo, memo maps each
	// (app, size) to its one table index.
	table *obsTable
	memo  map[profileKey]uint32

	nextID int
	lastAt float64
	steals int

	// arrs records every submitted arrival in order (Submit enforces
	// nondecreasing times) with its home shard. Run hands each shard its
	// arrivals from dealt on, into a ring presized to the shard's count.
	// arrCursor trails the run, pointing at the first arrival not yet
	// fired: it gives the elision loop the next instant a wait queue
	// could possibly grow — the horizon a barrier-free window may run to.
	arrs      []routedArrival
	dealt     int
	arrCursor int

	// fullBarriers forces the exact lock-step reference cadence (one
	// barrier per global event timestamp); see SetFullBarriers. stats
	// counts barriers executed vs elided.
	fullBarriers bool
	stats        BarrierStats

	// workers are the persistent per-shard drain goroutines (started by
	// Run, stopped on return; nil when S==1): each barrier or window
	// signals the active shards over their channels instead of spawning
	// a goroutine + WaitGroup per epoch. panics holds the first panic
	// each shard's drain raised, re-raised in shard order at the next
	// join. active is the reusable active-shard scratch buffer. serial
	// is latched by Run when only one proc is available — the shards
	// then drain inline in shard order (identical results: they share no
	// mutable state) instead of paying channel handoffs that cannot
	// overlap.
	workers []chan shardCmd
	wwg     sync.WaitGroup
	panics  []any
	active  []int
	serial  bool

	// flight is the barrier-epoch flight recorder (nil = off; see
	// SetFlight). flightT0 is the previous barrier time (each epoch
	// record spans [flightT0, t]); statBuf is the reusable per-barrier
	// sample buffer.
	flight   *flight.Recorder
	flightT0 float64
	statBuf  []flight.ShardStat
}

// shardCmd tells a shard worker how far to drain its engine: through
// horizon inclusive (a barrier epoch) or strictly before it (a
// free-running window, whose horizon is the next arrival time).
type shardCmd struct {
	horizon float64
	excl    bool
}

// BarrierStats counts how the run's event work was driven. Barriers is
// the number of exact lock-step barrier iterations (each with a steal
// pass); Windows is the number of barrier-free free-running spans;
// WindowEvents is how many events fired inside those spans — each would
// have cost roughly one global barrier under the lock-step cadence, so
// it measures the barriers elided.
type BarrierStats struct {
	Barriers     int64
	Windows      int64
	WindowEvents int64
}

// ElidedRatio is the fraction of event work that ran barrier-free:
// WindowEvents / (WindowEvents + Barriers). Zero on an empty run.
func (b BarrierStats) ElidedRatio() float64 {
	tot := b.Barriers + b.WindowEvents
	if tot == 0 {
		return 0
	}
	return float64(b.WindowEvents) / float64(tot)
}

type profileKey struct {
	app    string
	sizeGB float64
}

// routedArrival is one submitted job: its global id, arrival time,
// interned observation index and home shard.
type routedArrival struct {
	id    int
	at    float64
	obs   uint32
	shard int32
}

// routeShard maps an application/tenant name to its home shard: FNV-1a
// over the name, mod S. The hash is stable across processes and
// platforms, so a recurring tenant always lands on the same shard —
// which is what lets the per-shard tune caches and wait-queue indexes
// stay hot for its recurring profile. Inlined rather than hash/fnv so
// the per-submission route costs no hasher or byte-slice allocation
// (TestRouteShardMatchesFNV pins it to the library hash).
func routeShard(name string, shards int) int {
	h := uint32(2166136261) // FNV-1a 32-bit offset basis
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619 // FNV 32-bit prime
	}
	return int(h % uint32(shards))
}

// NewShardedScheduler partitions `nodes` across cfg.Shards schedulers
// (near-even split: the first nodes%S shards own one extra node) over a
// shared model, database, and profiler. newTuner builds one tuner per
// shard so each shard owns its own memo shard (pass a closure returning
// a fresh MemoSTP); it must return non-nil. The model and database are
// shared across shard goroutines: the database's caches are
// synchronized, and the model must not carry a metrics registry (its
// emissions would interleave nondeterministically).
func NewShardedScheduler(model *mapreduce.Model, db *Database, prof *Profiler, newTuner func() STP, nodes int, cfg ShardedConfig) (*ShardedScheduler, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("core: sharded scheduler: need at least one shard")
	}
	if cfg.Shards > nodes {
		return nil, fmt.Errorf("core: sharded scheduler: %d shards exceed %d nodes", cfg.Shards, nodes)
	}
	if model == nil || db == nil || prof == nil || newTuner == nil {
		return nil, fmt.Errorf("core: sharded scheduler: nil dependency")
	}
	c := &ShardedScheduler{cfg: cfg, prof: prof, table: newObsTable()}
	if cfg.ProfileMemo {
		c.memo = make(map[profileKey]uint32)
	}
	base := 0
	for i := 0; i < cfg.Shards; i++ {
		n := nodes / cfg.Shards
		if i < nodes%cfg.Shards {
			n++
		}
		tuner := newTuner()
		if tuner == nil {
			return nil, fmt.Errorf("core: sharded scheduler: tuner factory returned nil for shard %d", i)
		}
		sh := newOnlineScheduler(sim.NewEngine(), model, db, tuner, c.table, n)
		sh.base = base
		base += n
		c.shards = append(c.shards, sh)
	}
	return c, nil
}

// Shards reports the shard count.
func (c *ShardedScheduler) Shards() int { return len(c.shards) }

// Shard returns the i-th per-shard scheduler, for attaching per-shard
// observability (SetMetrics/SetTracer/SetAudit — each shard needs its
// own registry, tracer, and log; they are written concurrently during
// epochs) and reading per-shard exports afterwards.
func (c *ShardedScheduler) Shard(i int) *OnlineScheduler { return c.shards[i] }

// Steals reports how many jobs migrated between shards.
func (c *ShardedScheduler) Steals() int { return c.steals }

// ShardNodes returns each shard's node count in shard order.
func (c *ShardedScheduler) ShardNodes() []int {
	out := make([]int, len(c.shards))
	for i, sh := range c.shards {
		out[i] = sh.Nodes()
	}
	return out
}

// SetFlight attaches a flight recorder: every barrier epoch emits one
// wide record per shard, each shard's forecast joins and drift alerts
// flow into its collector, and the steal pass reports per-edge flow.
// The recorder's triggers read shard queues through the tenant source
// to name the implicated applications. Pass nil to detach (the
// disabled path costs one branch per barrier).
func (c *ShardedScheduler) SetFlight(r *flight.Recorder) {
	c.flight = r
	for i, sh := range c.shards {
		sh.SetFlight(r.Collector(i))
	}
	r.SetTenantSource(func(shard, max int) []string {
		return c.shards[shard].TopTenants(max)
	})
}

// SetTracer attaches a sharded span tracer: one fresh Tracer per shard
// — reading that shard's engine clock, stamped with its shard index —
// appended to ts in shard order. Call before the first Submit on a
// fresh ShardSet; pass nil to detach every shard. Each shard's tracer
// is written only by that shard's goroutine between barriers (plus the
// single-threaded steal pass), and ts merges the span sets
// deterministically for export.
func (c *ShardedScheduler) SetTracer(ts *tracing.ShardSet) {
	for _, sh := range c.shards {
		if ts == nil {
			sh.SetTracer(nil)
			continue
		}
		tr := tracing.New(sh.Engine.Clock())
		ts.Attach(tr)
		sh.SetTracer(tr)
	}
}

// recordBarrier samples every shard after a barrier's events and steal
// pass have settled and closes the epoch [flightT0, t] in the
// recorder. Runs on the barrier goroutine only — the epoch WaitGroup
// ordered all shard writes before it.
func (c *ShardedScheduler) recordBarrier(t float64) {
	stats := c.statBuf[:0]
	for _, sh := range c.shards {
		st := flight.ShardStat{
			Queue:   sh.QueueLen(),
			Free:    sh.FreeSlots(),
			Active:  sh.Pending() - sh.QueueLen(),
			EnergyJ: sh.EnergyJ(),
		}
		if m := memoOf(sh.Tuner); m != nil {
			st.TuneHits, st.TuneMisses = m.HitMiss()
		}
		stats = append(stats, st)
	}
	c.statBuf = stats
	c.flight.RecordEpoch(c.flightT0, t, stats)
	c.flightT0 = t
}

// memoOf unwraps the shard tuner chain down to its MemoSTP, if any
// (the deterministic tune-cache hit/miss source for epoch records).
func memoOf(t STP) *MemoSTP {
	for t != nil {
		switch v := t.(type) {
		case *MemoSTP:
			return v
		case *MeteredSTP:
			t = v.Inner
		default:
			return nil
		}
	}
	return nil
}

// Submit routes a job arrival to its home shard. Arrivals must be
// submitted in nondecreasing time order: the router profiles serially
// at submission so the sampler's draw sequence matches the legacy
// scheduler's in-event profiling order (every stream source — scenario
// generators, trace replay, workload cycling — emits sorted arrivals).
// An arrival at a negative, non-finite or out-of-order time, or of a
// size that is not positive and finite, is rejected before it is
// profiled; one that fails to profile is rejected too. Neither is
// counted or routed, so Run still completes every accepted arrival.
func (c *ShardedScheduler) Submit(app workloads.App, sizeGB, at float64) error {
	if at < 0 || math.IsNaN(at) || math.IsInf(at, 0) {
		return fmt.Errorf("core: sharded scheduler: submission time %g must be finite and non-negative", at)
	}
	if !(sizeGB > 0) || math.IsInf(sizeGB, 0) {
		return fmt.Errorf("core: sharded scheduler: job size %g GB must be positive and finite", sizeGB)
	}
	if at < c.lastAt {
		return fmt.Errorf("core: sharded scheduler: out-of-order submission at %g after %g", at, c.lastAt)
	}
	oid, err := c.profile(app, sizeGB)
	if err != nil {
		return fmt.Errorf("core: sharded profile: %w", err)
	}
	c.lastAt = at
	id := c.nextID
	c.nextID++
	home := routeShard(app.Name, len(c.shards))
	c.shards[home].pending++
	c.arrs = append(c.arrs, routedArrival{id: id, at: at, obs: oid, shard: int32(home)})
	return nil
}

// profile returns the table index of the job's observation. Noisy
// profiling interns every arrival fresh; under ProfileMemo each
// (app, size) is profiled and interned once.
func (c *ShardedScheduler) profile(app workloads.App, sizeGB float64) (uint32, error) {
	if c.memo == nil {
		obs, err := c.prof.Observe(app, sizeGB)
		if err != nil {
			return 0, err
		}
		return c.table.add(obs), nil
	}
	k := profileKey{app.Name, sizeGB}
	if oid, ok := c.memo[k]; ok {
		return oid, nil
	}
	obs, err := c.prof.ObserveExact(app, sizeGB)
	if err != nil {
		return 0, err
	}
	oid := c.table.add(obs)
	c.memo[k] = oid
	return oid, nil
}

// deal hands every arrival submitted since the last deal to its home
// shard's ring, each ring grown once to its shard's share, and presizes
// every shard's completion log.
func (c *ShardedScheduler) deal() {
	counts := make([]int, len(c.shards))
	for _, a := range c.arrs[c.dealt:] {
		counts[a.shard]++
	}
	for i, sh := range c.shards {
		sh.arrQ = slices.Grow(sh.arrQ, counts[i])
		// Room for every pending completion record, so the completion
		// path never regrows the slice mid-run (a thief shard that
		// completes stolen jobs may still grow it).
		sh.completed = slices.Grow(sh.completed, sh.pending)
	}
	for _, a := range c.arrs[c.dealt:] {
		c.shards[a.shard].pushArrival(a.id, a.obs, a.at)
	}
	c.dealt = len(c.arrs)
}

// SetFullBarriers forces the exact lock-step reference cadence: one
// global barrier per distinct event timestamp, a steal pass at each,
// never a free-running window. Elision is proven byte-identical to this
// path (TestShardedElisionMatchesFullBarriers diffs every export), so
// it exists as the reference for those goldens — and it is what a
// flight recorder implicitly selects, since epoch records sample every
// shard at every barrier. Call before Run.
func (c *ShardedScheduler) SetFullBarriers(v bool) { c.fullBarriers = v }

// BarrierStats reports how the last Run drove the shards: exact
// barriers executed vs events fired inside free-running windows.
func (c *ShardedScheduler) BarrierStats() BarrierStats { return c.stats }

// Run drives all shards to completion and returns the global makespan
// and summed energy through one drive loop (§17). At each global min
// next-event time t the loop takes either an exact barrier or a
// barrier-free window:
//
//   - barrier: every shard with an event at t drains through t, then the
//     steal pass runs (when Steal is on) and the flight recorder takes
//     its epoch (when one is attached). Barriers are pinned at every t —
//     the lock-step reference cadence — under SetFullBarriers or a
//     flight recorder, and taken whenever a steal could fire (Steal on
//     and some wait queue non-empty).
//   - window: otherwise no thief/victim pairing can exist before the
//     next arrival, so every shard drains strictly before it in
//     parallel. With Steal off shards share no mutable state at all, so
//     the window's horizon is +Inf and one window runs the whole stream.
//
// Every cadence is byte-identical to the pinned reference. After the
// last event every shard is advanced to the global makespan and closed
// out, so every shard bills idle energy up to the same end.
func (c *ShardedScheduler) Run() (makespan, energyJ float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: sharded scheduler: %v", r)
		}
	}()
	c.deal()
	c.startWorkers()
	defer c.stopWorkers()
	c.drive()
	pending := 0
	for _, sh := range c.shards {
		pending += sh.Pending()
	}
	if pending > 0 {
		return 0, 0, fmt.Errorf("core: sharded scheduler: %d jobs never completed", pending)
	}
	end := 0.0
	for _, sh := range c.shards {
		if now := sh.Engine.Now(); now > end {
			end = now
		}
	}
	for _, sh := range c.shards {
		sh.Engine.AdvanceTo(end)
		sh.finishRun()
	}
	var energy float64
	for _, sh := range c.shards { // shard order: deterministic float sum
		energy += sh.EnergyJ()
	}
	if c.flight != nil {
		// One closing epoch so trailing idle energy and the drained
		// final state land in the ring.
		c.recordBarrier(end)
	}
	return end, energy, nil
}

// drive is Run's event loop. The window rule rests on the
// steal-eligibility invariant: a wait queue grows only at an arrival
// event (WaitQueue.Push is reached from arrive and acceptStolen alone),
// and every arrival time is known before Run. So when all queues are
// empty at the global next-event time t, the reference steal pass is a
// no-op at every barrier in [t, nextArrival) — there is no victim to
// steal from, which is precisely the reference pass's own early-out —
// and all shards can free-run through events strictly before
// nextArrival with no barrier at all.
func (c *ShardedScheduler) drive() {
	pinned := c.fullBarriers || c.flight != nil
	for {
		t := c.nextBarrier()
		if math.IsInf(t, 1) {
			return
		}
		if !pinned && !(c.cfg.Steal && c.anyQueued()) {
			horizon := math.Inf(1)
			if c.cfg.Steal {
				// Every arrival strictly before t has fired: each shard's
				// earliest unfired arrival keeps a pending event at its
				// time, so the global min next-event time t bounds it.
				for c.arrCursor < len(c.arrs) && c.arrs[c.arrCursor].at < t {
					c.arrCursor++
				}
				if c.arrCursor < len(c.arrs) {
					horizon = c.arrs[c.arrCursor].at
				}
			}
			if horizon > t {
				c.gatherActive(horizon, true)
				fired := c.totalFired()
				c.stats.Windows++
				c.runSpan(shardCmd{horizon: horizon, excl: true})
				c.stats.WindowEvents += c.totalFired() - fired
				continue
			}
			// The next event is itself an arrival: barrier at t.
		}
		c.gatherActive(t, false)
		c.stats.Barriers++
		c.runSpan(shardCmd{horizon: t})
		if c.cfg.Steal {
			c.stealPass(t)
		}
		if c.flight != nil {
			c.recordBarrier(t)
		}
	}
}

// nextBarrier returns the minimum next-event time across shards (+Inf
// when every engine is drained).
func (c *ShardedScheduler) nextBarrier() float64 {
	t := math.Inf(1)
	for _, sh := range c.shards {
		if at, ok := sh.Engine.NextAt(); ok && at < t {
			t = at
		}
	}
	return t
}

// gatherActive fills c.active with the shards holding an event at the
// barrier (excl false: NextAt <= horizon) or inside the window (excl
// true: NextAt < horizon).
func (c *ShardedScheduler) gatherActive(horizon float64, excl bool) {
	c.active = c.active[:0]
	for i, sh := range c.shards {
		if at, ok := sh.Engine.NextAt(); ok && (at < horizon || (!excl && at == horizon)) {
			c.active = append(c.active, i)
		}
	}
}

// anyQueued reports whether any shard has queued work — the
// steal-eligibility read, O(1) per shard off the wait-queue counters.
func (c *ShardedScheduler) anyQueued() bool {
	for _, sh := range c.shards {
		if sh.QueueLen() > 0 {
			return true
		}
	}
	return false
}

// totalFired sums shard event counts (window accounting).
func (c *ShardedScheduler) totalFired() int64 {
	var n int64
	for _, sh := range c.shards {
		n += sh.Engine.Fired()
	}
	return n
}

// startWorkers spawns one persistent drain goroutine per shard (none
// for a single shard — it always runs inline). Workers replace the
// per-epoch goroutine + WaitGroup churn: each barrier or window signals
// only the active shards over their channels.
func (c *ShardedScheduler) startWorkers() {
	c.serial = runtime.GOMAXPROCS(0) == 1
	if len(c.shards) == 1 || c.serial || c.workers != nil {
		return
	}
	c.panics = make([]any, len(c.shards))
	c.workers = make([]chan shardCmd, len(c.shards))
	for i := range c.shards {
		ch := make(chan shardCmd, 1)
		c.workers[i] = ch
		go func(i int, ch chan shardCmd) {
			for cmd := range ch {
				c.runShard(i, cmd)
				c.wwg.Done()
			}
		}(i, ch)
	}
}

// stopWorkers retires the drain goroutines (Run's defer).
func (c *ShardedScheduler) stopWorkers() {
	for _, ch := range c.workers {
		close(ch)
	}
	c.workers = nil
}

// runShard drains shard i per cmd, capturing a panic for the joining
// barrier to re-raise in shard order.
func (c *ShardedScheduler) runShard(i int, cmd shardCmd) {
	defer func() {
		if p := recover(); p != nil && c.panics[i] == nil {
			c.panics[i] = p
		}
	}()
	eng := c.shards[i].Engine
	if cmd.excl {
		eng.RunBefore(cmd.horizon)
	} else {
		eng.RunThrough(cmd.horizon)
	}
}

// runSpan drains every shard in c.active per cmd. One active shard (the
// overwhelmingly common barrier case) runs inline with zero goroutines
// and zero channel traffic; otherwise the first active shard runs
// inline while the rest are signaled to their workers, and panics are
// re-raised in shard order so Run's recover surfaces the same error a
// serial pass would.
func (c *ShardedScheduler) runSpan(cmd shardCmd) {
	active := c.active
	if len(active) == 0 {
		return
	}
	if len(active) == 1 || c.serial {
		for _, i := range active {
			sh := c.shards[i]
			if cmd.excl {
				sh.Engine.RunBefore(cmd.horizon)
			} else {
				sh.Engine.RunThrough(cmd.horizon)
			}
		}
		return
	}
	c.wwg.Add(len(active) - 1)
	for _, i := range active[1:] {
		c.workers[i] <- cmd
	}
	c.runShard(active[0], cmd)
	c.wwg.Wait()
	for _, i := range active {
		if p := c.panics[i]; p != nil {
			c.panics[i] = nil
			panic(p)
		}
	}
}

// stealPass runs single-threaded at the barrier: shards are scanned in
// index order; a shard with an empty queue and free capacity claims
// queue heads from its neighbors (nearest first, wrapping upward) up to
// min(stealBatch, FreeSlots) jobs, then dispatches them at the barrier
// time. Everything here is a function of shard state and t alone, so a
// steal that fires at t fires at t in every run of the same stream.
func (c *ShardedScheduler) stealPass(t float64) {
	queued := false
	for _, sh := range c.shards {
		if sh.QueueLen() > 0 {
			queued = true
			break
		}
	}
	if !queued {
		return // nothing to steal anywhere — the common barrier
	}
	s := len(c.shards)
	for i, thief := range c.shards {
		if thief.QueueLen() > 0 {
			continue
		}
		budget := min(thief.FreeSlots(), stealBatch)
		if budget <= 0 {
			continue
		}
		claimed := 0
		for k := 1; k < s && budget > 0; k++ {
			vi := (i + k) % s
			victim := c.shards[vi]
			for budget > 0 && victim.QueueLen() > 0 {
				victim.Engine.AdvanceTo(t)
				// The link id is the global steal sequence number — a
				// function of shard state and t alone, so the victim's
				// steal_out span and the thief's steal_in span carry
				// the same id in every run of the same stream.
				link := c.steals + 1
				j := victim.releaseHead(t, i, link)
				if j == nil {
					break
				}
				thief.Engine.AdvanceTo(t)
				thief.acceptStolen(j, vi, t, link)
				c.flight.Steal(vi, i)
				c.steals++
				claimed++
				budget--
			}
		}
		if claimed > 0 {
			thief.dispatch()
		}
	}
}

// Completed returns all finished jobs merged across shards, ordered by
// (finish time, job id) — the id tie-break makes the merged order
// deterministic where the single-shard sort tolerated ambiguity. With
// one shard it defers to that shard's own ordering for exact legacy
// equivalence.
//
// Each shard appends completions at its own completion events, so the
// per-shard slices are already in nondecreasing finish order and a
// linear S-way merge replaces the global sort (which burned ~15% of the
// sharded bench in comparator closures and 120-byte struct swaps). The
// rare shard whose same-instant completions landed out of id order
// falls back to the sort; both paths produce the identical unique
// (Finished, ID) total order.
func (c *ShardedScheduler) Completed() []CompletedJob {
	if len(c.shards) == 1 {
		return c.shards[0].Completed()
	}
	total := 0
	sorted := true
	for _, sh := range c.shards {
		total += len(sh.completed)
		for i := 1; sorted && i < len(sh.completed); i++ {
			a, b := &sh.completed[i-1], &sh.completed[i]
			if a.Finished > b.Finished || (a.Finished == b.Finished && a.ID > b.ID) {
				sorted = false
			}
		}
	}
	out := make([]CompletedJob, 0, total)
	if !sorted {
		for _, sh := range c.shards {
			out = append(out, sh.completed...)
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].Finished != out[j].Finished {
				return out[i].Finished < out[j].Finished
			}
			return out[i].ID < out[j].ID
		})
		return out
	}
	idx := make([]int, len(c.shards))
	for len(out) < total {
		best := -1
		for si := range c.shards {
			i := idx[si]
			if i >= len(c.shards[si].completed) {
				continue
			}
			if best < 0 {
				best = si
				continue
			}
			a, b := &c.shards[si].completed[i], &c.shards[best].completed[idx[best]]
			if a.Finished < b.Finished || (a.Finished == b.Finished && a.ID < b.ID) {
				best = si
			}
		}
		out = append(out, c.shards[best].completed[idx[best]])
		idx[best]++
	}
	return out
}

// EnergyJ sums shard energy in shard order.
func (c *ShardedScheduler) EnergyJ() float64 {
	var e float64
	for _, sh := range c.shards {
		e += sh.EnergyJ()
	}
	return e
}

// Phases sums the per-shard phase splits in shard order.
func (c *ShardedScheduler) Phases() power.PhaseAccumulator {
	var p power.PhaseAccumulator
	for _, sh := range c.shards {
		sp := sh.Phases()
		p.IdleJ += sp.IdleJ
		p.SoloJ += sp.SoloJ
		p.CoJ += sp.CoJ
	}
	return p
}

// SetFastAccrual toggles the O(1) aggregate accrual path on every
// shard (see OnlineScheduler.SetFastAccrual for when it engages).
func (c *ShardedScheduler) SetFastAccrual(v bool) {
	for _, sh := range c.shards {
		sh.SetFastAccrual(v)
	}
}
