package core

import (
	"math"
	"slices"
	"sort"

	"ecost/internal/mapreduce"
	"ecost/internal/power"
	"ecost/internal/sim"
	"ecost/internal/workloads"
)

// maxPerNode caps co-located jobs per node (the paper fixes 2).
const maxPerNode = 2

// OnlineScheduler is the event-driven form of ECoST (Figure 4): jobs
// arrive over time, are profiled and classified, wait in the FIFO queue
// with head reservation, and are co-located onto nodes by the pairing
// decision tree with STP-tuned configurations. Job progress follows the
// execution model's fluid contention solver, recomputed whenever a
// node's resident set changes. Each is one shard of a ShardedScheduler,
// which routes, profiles and delivers its arrivals.
type OnlineScheduler struct {
	Engine *sim.Engine
	Model  *mapreduce.Model
	DB     *Database
	Tuner  STP

	queue *WaitQueue
	nodes []*onlineNode

	// naive selects the legacy reference paths (O(nodes) power
	// recompute per accrual, linear dispatch and partner scans) kept
	// for equivalence testing and baseline benchmarks; see SetNaive.
	naive bool

	// base offsets node ids in every export (metrics events, span
	// attributes, audit rows, CompletedJob.Node) so a shard owning
	// nodes [base, base+len) reports cluster-global ids while its
	// internal indexes stay dense. Zero for the first shard.
	base int

	// fastAcc selects the O(1) aggregate accrual path: reschedule
	// maintains phaseWatts, the running sum of cached node draws per
	// occupancy phase (0 idle, 1 solo, 2 co-located), and accrueEnergy
	// integrates the three sums instead of walking every node. Summing
	// incrementally reassociates the float adds, so total energy can
	// differ from the per-node walk in the last ulps (golden-tested to
	// 1e-9 relative); scheduling decisions never read energy, so
	// makespan and every placement stay bit-identical. The fast path
	// only engages when no per-node attribution is needed (tracer and
	// audit off, not naive); see SetFastAccrual.
	fastAcc    bool
	phaseWatts [3]float64

	// obs is the router's observation table, shared by every shard;
	// arrivals, jobs and the memos below carry its ids (see obsTable).
	obs *obsTable

	// steadyMemo caches steady-state contention solves by the residents'
	// interned observation keys and configurations, in resident order.
	// An observation fixes the app and data size, and Steady is a pure
	// function of (app, data size, configuration) per resident, so a hit
	// returns bit-identical times and watts — the cache is transparent
	// to every golden — while recurring tenant pairs skip the fluid
	// solver entirely. Bypassed only under SetNaive.
	steadyMemo map[steadyKey]steadyVal

	// freeCnt / halfCnt mirror the dispatch bitmaps' populations so
	// FreeSlots — called per shard at every steal barrier — is O(1)
	// instead of a popcount walk.
	freeCnt, halfCnt int

	// idleWatts caches the empty-node steady-state draw (bit-identical
	// to Model.Steady(nil)); scratch is the reusable RunSpec buffer the
	// reschedule path builds resident specs into; freeSet / halfSet
	// index nodes with zero / exactly one resident for O(1) dispatch.
	idleWatts float64
	scratch   []mapreduce.RunSpec
	freeSet   nodeSet
	halfSet   nodeSet

	pending   int
	completed []CompletedJob

	// energy accounting
	energyJ    float64
	lastUpdate float64
	phases     power.PhaseAccumulator

	// ob is the observer seam every lifecycle transition reports
	// through (nil = nothing attached; see observe.go).
	ob *observer

	// arrQ is the pending-arrival ring the sharded router fills: instead
	// of one closure + one engine event per submission, the scheduler
	// keeps a single in-flight head event (arrFire) that batch-drains
	// every arrival sharing its timestamp and then re-arms itself at the
	// next arrival time. arrHead indexes the first undelivered entry.
	// The ring keeps shard event heaps shallow — a 200k-job stream holds
	// one pending arrival event instead of 12.5k per shard — and its
	// entries are pointer-free ids, so filling it copies 24 bytes per
	// job and the garbage collector never scans it.
	arrQ    []pendingArrival
	arrHead int
	arrFire func()

	// classMemo caches Classify verdicts per interned observation index
	// (class+1; 0 = not yet classified). Classify is a pure function of
	// the observation — KNN against a fixed training set — so a hit is
	// bit-identical to a fresh call while recurring tenants (one id per
	// (app, size) under the sharded router's ProfileMemo) skip the KNN
	// distance scan and its allocations entirely. Bypassed only under
	// SetNaive.
	classMemo []uint8

	// jobPool / ojPool recycle Job and onlineJob records: both become
	// unreachable at completion (CompletedJob copies every exported
	// field; spans, audit rows, and metrics hold ids and strings, never
	// the pointers), so the completion path returns them here and
	// arrive/place reuse them. A stolen job's pointer migrates with it
	// and retires into the thief's pool.
	jobPool []*Job
	ojPool  []*onlineJob
}

// pendingArrival is one undelivered ring entry: the job id, its arrival
// time, and its observation's index in the scheduler's table.
type pendingArrival struct {
	id  int
	at  float64
	obs uint32
}

// classify returns the behaviour class of the interned observation at
// index oid, through the per-id memo unless the scheduler is naive.
func (s *OnlineScheduler) classify(oid uint32, obs *Observation) workloads.Class {
	if s.naive {
		return s.DB.Classifier().Classify(*obs)
	}
	if int(oid) < len(s.classMemo) {
		if c := s.classMemo[oid]; c != 0 {
			return workloads.Class(c - 1)
		}
	} else {
		s.classMemo = append(s.classMemo, make([]uint8, int(oid)+1-len(s.classMemo))...)
	}
	c := s.DB.Classifier().Classify(*obs)
	s.classMemo[oid] = uint8(c) + 1
	return c
}

// Nodes reports this scheduler's node count.
func (s *OnlineScheduler) Nodes() int { return len(s.nodes) }

// TopTenants names the most-queued applications, busiest first (name
// ascending on ties), at most max. The flight recorder's triggers use
// it to name the tenants behind a hot shard.
func (s *OnlineScheduler) TopTenants(max int) []string {
	counts := make(map[string]int)
	for _, j := range s.queue.Jobs() {
		counts[j.Obs.App.Name]++
	}
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if counts[names[i]] != counts[names[j]] {
			return counts[names[i]] > counts[names[j]]
		}
		return names[i] < names[j]
	})
	if len(names) > max {
		names = names[:max]
	}
	return names
}

// Phases returns the energy split by node-occupancy phase accrued so
// far (idle / solo / co-located).
func (s *OnlineScheduler) Phases() power.PhaseAccumulator { return s.phases }

// CompletedJob records one finished job for reporting.
type CompletedJob struct {
	ID        int
	App       string
	Class     workloads.Class
	SizeGB    float64
	Submitted float64
	Started   float64
	Finished  float64
	Node      int
	Cfg       mapreduce.Config
}

type onlineJob struct {
	job     *Job
	cfg     mapreduce.Config
	rem     float64 // fraction of work remaining
	started float64
}

type onlineNode struct {
	id        int
	residents []*onlineJob
	event     *sim.Event // next completion event

	// watts caches the node's steady-state draw for the current
	// resident set. It is refreshed at every reschedule (the one place
	// the resident set or its configurations change hands) and reset to
	// the idle draw when the node empties, so the accrual path reads it
	// instead of re-solving the execution model per node per event.
	watts float64

	// rates is the reusable progress-rate buffer the completion path
	// reads: a cancelled event never fires and a live event is always
	// cancelled before the next reschedule refills the buffer, so the
	// backing array is never read after being overwritten.
	rates []float64

	// fire is the node's persistent completion callback (built once at
	// construction); evDT and evFinisher carry the pending event's
	// elapsed interval and predicted finisher, refreshed by every
	// reschedule under the same cancel-before-refill discipline as
	// rates. Together they replace a fresh closure allocation per
	// completion event.
	fire       func()
	evDT       float64
	evFinisher *onlineJob

	// accWatts/accPhase are the contribution this node currently makes
	// to the scheduler's phaseWatts sums under fast accrual: the watts
	// last folded in and the phase bucket they went into. reschedule
	// subtracts the old contribution and adds the new one; every
	// resident-set or configuration mutation is followed by a
	// reschedule before the next accrual, so the sums are always
	// consistent with the per-node caches at integration time.
	accWatts float64
	accPhase int8
}

// newOnlineScheduler builds one shard's scheduler over `nodes`
// single-node lanes reading the router's table obs;
// NewShardedScheduler validates its dependencies.
func newOnlineScheduler(eng *sim.Engine, model *mapreduce.Model, db *Database, tuner STP, obs *obsTable, nodes int) *OnlineScheduler {
	s := &OnlineScheduler{
		Engine:     eng,
		Model:      model,
		DB:         db,
		Tuner:      tuner,
		queue:      NewWaitQueue(),
		obs:        obs,
		steadyMemo: make(map[steadyKey]steadyVal),
	}
	// The idle draw is the same expression Model.Steady evaluates for an
	// empty spec set, so cached node watts stay bit-identical to a fresh
	// per-accrual recompute.
	s.idleWatts = model.IdlePower()
	s.freeSet = newNodeSet(nodes)
	s.halfSet = newNodeSet(nodes)
	for i := 0; i < nodes; i++ {
		n := &onlineNode{id: i, watts: s.idleWatts}
		n.fire = func() { s.nodeComplete(n) }
		s.nodes = append(s.nodes, n)
		s.freeSet.set(i, true)
	}
	s.freeCnt = nodes
	return s
}

// SetNaive selects the legacy reference implementation: per-accrual
// steady-state recomputes for every node, linear node scans in
// dispatch, and the linear partner scan in the wait queue. The naive
// and indexed paths are bit-identical (golden-tested); the naive one
// exists as the equivalence baseline and for `-ecost.naive` benchmark
// comparisons. Call before Run.
func (s *OnlineScheduler) SetNaive(v bool) { s.naive = v }

// gid maps a node's dense internal index to its cluster-global id.
func (s *OnlineScheduler) gid(n *onlineNode) int { return s.base + n.id }

// SetFastAccrual enables the O(1) aggregate energy-accrual path (see
// the fastAcc field). It only takes effect while no tracer and no
// audit log are attached and the scheduler is not in naive mode —
// per-node and per-job energy attribution need the per-node walk.
// Call before Run.
func (s *OnlineScheduler) SetFastAccrual(v bool) {
	s.fastAcc = v
	if !v {
		return
	}
	// Seed the phase sums from the current (all-idle) node caches.
	s.phaseWatts = [3]float64{}
	for _, n := range s.nodes {
		n.accWatts = n.watts
		n.accPhase = int8(len(n.residents))
		s.phaseWatts[n.accPhase] += n.accWatts
	}
}

// steadySpecKey identifies one resident's contention-solver inputs: its
// interned observation fixes the app and data size, cfg the rest.
type steadySpecKey struct {
	obs obsKey
	cfg mapreduce.Config
}

// steadyKey is a full node's solver input: up to two residents in
// resident order (order matters — the returned states are positional).
// A solo node leaves b zero; no interned key is zero.
type steadyKey struct {
	a, b steadySpecKey
}

// steadyVal is one cached solve.
type steadyVal struct {
	sts   [2]mapreduce.SteadyState
	watts float64
}

// steadyMemoCap bounds the memo; at the cap it clears wholesale (the
// MemoSTP policy: recurring streams re-warm instantly, adversarial key
// churn cannot grow memory).
const steadyMemoCap = 4096

// pushArrival queues an arrival whose observation the sharded router
// already interned in s.obs at index oid, under a router-assigned
// cluster-global job id. The router profiles serially at submission
// time and counts the job in s.pending there; Run then deals each
// shard its arrivals, in nondecreasing time order.
//
// Arrivals land in the ring, not the event heap: one AtHead event per
// scheduler delivers the ring head, batch-draining everything sharing
// its timestamp in submission order and re-arming at the next arrival
// time. The AtHead priority reproduces per-job arrival events exactly —
// those, scheduled before the run, always outranked runtime-scheduled
// completions at equal timestamps via their lower seq, and the ring's
// head event must too.
func (s *OnlineScheduler) pushArrival(id int, oid uint32, at float64) {
	if s.arrFire == nil {
		s.arrFire = s.fireArrivals
	}
	s.arrQ = append(s.arrQ, pendingArrival{id: id, at: at, obs: oid})
	if len(s.arrQ)-s.arrHead == 1 {
		s.Engine.AtHead(at, s.arrFire)
	}
}

// fireArrivals delivers every ring entry at the current clock (arrive's
// per-job work — classify, queue, dispatch — runs in submission order,
// exactly the sequence back-to-back per-job events produced), then
// re-arms the head event at the next pending arrival time.
func (s *OnlineScheduler) fireArrivals() {
	now := s.Engine.Now()
	for s.arrHead < len(s.arrQ) && s.arrQ[s.arrHead].at <= now {
		p := s.arrQ[s.arrHead]
		s.arrHead++
		s.arrive(p.id, p.obs, p.at)
	}
	if s.arrHead < len(s.arrQ) {
		s.Engine.AtHead(s.arrQ[s.arrHead].at, s.arrFire)
	} else {
		s.arrQ = s.arrQ[:0]
		s.arrHead = 0
	}
}

// arrive is the in-event half of submission: classify, queue, record,
// dispatch. The observation is the table entry at oid; its SizeGB
// doubles as the nominal size (Observe preserves the requested size
// exactly).
func (s *OnlineScheduler) arrive(id int, oid uint32, at float64) {
	obs := &s.obs.obs[oid]
	var j *Job
	if k := len(s.jobPool); k > 0 {
		j = s.jobPool[k-1]
		s.jobPool[k-1] = nil
		s.jobPool = s.jobPool[:k-1]
	} else {
		j = new(Job)
	}
	j.ID = id
	j.Obs = *obs
	j.Class = s.classify(oid, obs)
	j.EstTime = obs.SizeGB
	j.Arrived = at
	s.queue.Push(j)
	s.ob.submit(j)
	s.dispatch()
}

// Completed returns the finished jobs sorted by completion time.
func (s *OnlineScheduler) Completed() []CompletedJob {
	out := append([]CompletedJob(nil), s.completed...)
	sort.Slice(out, func(i, j int) bool { return out[i].Finished < out[j].Finished })
	return out
}

// EnergyJ returns the cluster energy integrated so far (all nodes,
// including idle draw).
func (s *OnlineScheduler) EnergyJ() float64 { return s.energyJ }

// QueueLen reports the current wait-queue length.
func (s *OnlineScheduler) QueueLen() int { return s.queue.Len() }

// finishRun closes out a drained run at the engine's current clock:
// the last accrual interval is integrated and open occupancy spans are
// finished. The sharded control plane advances every shard to the
// global makespan first, so every shard bills the same idle tail.
func (s *OnlineScheduler) finishRun() {
	s.accrueEnergy() // close the last interval
	s.ob.finish()
}

// Pending reports jobs submitted but not yet completed.
func (s *OnlineScheduler) Pending() int { return s.pending }

// FreeSlots reports how many more residents dispatch could place right
// now: an empty node absorbs up to two queued jobs (head claim, then a
// partner), a half-busy node one. The work-stealing pass uses it to
// bound a starved shard's claim budget. Indexed path only — the
// sharded control plane never runs naive.
func (s *OnlineScheduler) FreeSlots() int {
	return 2*s.freeCnt + s.halfCnt
}

// releaseHead removes the wait queue's head for migration to shard
// `to` at barrier time `at` (the engine must already be advanced to
// at); the thief re-registers it under the same global id. Returns nil
// when the queue is empty.
func (s *OnlineScheduler) releaseHead(at float64, to, link int) *Job {
	j := s.queue.PopHead()
	if j == nil {
		return nil
	}
	s.pending--
	s.ob.stealOut(j, to, at, link)
	return j
}

// acceptStolen registers a job claimed from neighbor shard `from` at
// barrier time `at` (the engine must already be advanced to at). The
// job keeps its global id, observation, class, and original arrival
// time, so wait latency still measures from first submission. The
// caller dispatches after the claim batch.
func (s *OnlineScheduler) acceptStolen(j *Job, from int, at float64, link int) {
	s.pending++
	s.queue.Push(j)
	s.ob.stealIn(j, from, at, link)
}

// accrueEnergy integrates cluster power since the last update.
//
// The per-node watts are read from the cache reschedule maintains, so
// the loop is a handful of float adds per node — no execution-model
// solves and no allocations (asserted by TestAccrueEnergyZeroAlloc
// with tracing, audit, and metrics all attached). The summation keeps
// the naive path's exact per-node order (node id ascending, one
// phases.Add and one share division per node), so the accumulated
// energy, phase split, and every span/audit attribution are
// bit-identical to recomputing Steady per node — a running cluster-sum
// updated at invalidation points would drift in the last ulp.
func (s *OnlineScheduler) accrueEnergy() {
	now := s.Engine.Now()
	dt := now - s.lastUpdate
	if dt <= 0 {
		return
	}
	if s.fastAcc && !s.naive && !s.ob.attributing() {
		// O(1) aggregate path: integrate the phase sums reschedule
		// maintains instead of walking the node array. At 16k nodes the
		// per-node walk is the dominant cost of every event.
		s.phases.IdleJ += s.phaseWatts[0] * dt
		s.phases.SoloJ += s.phaseWatts[1] * dt
		s.phases.CoJ += s.phaseWatts[2] * dt
		s.energyJ += (s.phaseWatts[0] + s.phaseWatts[1] + s.phaseWatts[2]) * dt
	} else {
		var watts float64
		for _, n := range s.nodes {
			w := n.watts
			if s.naive {
				// Legacy reference: re-solve the steady state of every node
				// (idle ones included) on every accrual.
				var err error
				_, w, err = s.Model.Steady(slices.Clone(s.specsInto(n)))
				if err != nil {
					panic(err)
				}
			}
			watts += w
			s.phases.Add(len(n.residents), w*dt)
			s.ob.share(n, w*dt)
		}
		s.energyJ += watts * dt
	}
	s.lastUpdate = now
	s.ob.accrued()
}

// specsInto builds n's resident specs in the scheduler's reusable
// scratch buffer: the event loop is single-threaded and Model.Steady
// only reads the slice, so the reschedule path builds every
// resident-spec list in place. The naive reference paths clone it,
// allocating one list per call as the legacy scheduler did.
func (s *OnlineScheduler) specsInto(n *onlineNode) []mapreduce.RunSpec {
	out := s.scratch[:0]
	for _, r := range n.residents {
		out = append(out, mapreduce.RunSpec{
			App:    r.job.Obs.App,
			DataMB: r.job.Obs.SizeGB * 1024,
			Cfg:    r.cfg,
		})
	}
	s.scratch = out
	return out
}

// refreshPhaseWatts folds a node's freshly-cached draw into the fast
// accrual's phase sums, retiring its previous contribution. Called
// from reschedule only — the single point where n.watts changes.
func (s *OnlineScheduler) refreshPhaseWatts(n *onlineNode) {
	if !s.fastAcc {
		return
	}
	s.phaseWatts[n.accPhase] -= n.accWatts
	n.accPhase = int8(len(n.residents))
	n.accWatts = n.watts
	s.phaseWatts[n.accPhase] += n.accWatts
}

// occupancyChanged refreshes the dispatch indexes (and their mirror
// counts) after a node's resident count changed (a placement or a
// completion).
func (s *OnlineScheduler) occupancyChanged(n *onlineNode) {
	free := len(n.residents) == 0
	half := len(n.residents) == 1
	if s.freeSet.has(n.id) != free {
		if free {
			s.freeCnt++
		} else {
			s.freeCnt--
		}
		s.freeSet.set(n.id, free)
	}
	if s.halfSet.has(n.id) != half {
		if half {
			s.halfCnt++
		} else {
			s.halfCnt--
		}
		s.halfSet.set(n.id, half)
	}
}

// dispatch places queued jobs: empty slots are filled head-first; a node
// with one resident gets a partner chosen by the decision tree.
func (s *OnlineScheduler) dispatch() {
	for s.queue.Len() > 0 {
		// Prefer pairing onto a half-busy node, then an empty node. The
		// indexes hand back the lowest node id, which is exactly the
		// node the legacy in-order scan would stop at.
		var target *onlineNode
		if s.naive {
			for _, n := range s.nodes {
				if len(n.residents) == 1 {
					target = n
					break
				}
			}
			if target == nil {
				for _, n := range s.nodes {
					if len(n.residents) == 0 {
						target = n
						break
					}
				}
			}
		} else {
			if id, ok := s.halfSet.min(); ok {
				target = s.nodes[id]
			} else if id, ok := s.freeSet.min(); ok {
				target = s.nodes[id]
			}
		}
		if target == nil {
			return // cluster full
		}
		// leapOver is the queue head a partner leapt past, else -1.
		var j *Job
		leapOver := -1
		if len(target.residents) == 1 {
			running := target.residents[0].job.Class
			head := s.queue.Head()
			priority := s.DB.PartnerPriority(running)
			if s.naive {
				j = s.queue.selectPartnerLinear(priority)
			} else {
				j = s.queue.SelectPartner(running, priority)
			}
			if j != nil {
				taken, err := s.queue.Take(j.ID)
				if err != nil {
					panic(err)
				}
				j = taken
				if head != nil && j.ID != head.ID {
					leapOver = head.ID
				}
			}
		} else {
			j = s.queue.PopHead()
		}
		if j == nil {
			return
		}
		s.ob.pick(j, target, leapOver)
		s.place(target, j, leapOver)
	}
}

// place starts a job on a node and retunes the node's residents:
// "after pairing, ECoST fine-tunes the architectural, system, and
// application level parameters of the paired applications concurrently"
// (§5). The resident application's frequency and mapper slots are
// re-tuned live; its HDFS block size stays as loaded (data layout is
// fixed once written).
func (s *OnlineScheduler) place(n *onlineNode, j *Job, leapOver int) {
	s.accrueEnergy()
	cfg, ti := s.tuneFor(n, j)
	var oj *onlineJob
	if k := len(s.ojPool); k > 0 {
		oj = s.ojPool[k-1]
		s.ojPool[k-1] = nil
		s.ojPool = s.ojPool[:k-1]
	} else {
		oj = new(onlineJob)
	}
	*oj = onlineJob{job: j, cfg: cfg, rem: 1, started: s.Engine.Now()}
	n.residents = append(n.residents, oj)
	s.occupancyChanged(n)
	s.ob.place(n, oj, ti, leapOver)
	s.reschedule(n)
}

// tuneInfo carries what the audit log wants to know about a tuning
// decision alongside the chosen configuration: whether the pair tuning
// was applied, and the tuner's own outcome forecast.
type tuneInfo struct {
	pair bool
	exp  PairExpectation
}

// tuneFor picks the new job's configuration, adjusting the resident's
// frequency and mapper count to the pair-tuned values when co-locating.
// The returned tuneInfo records which path fired and the tuner's own
// outcome forecast (zero when the technique exposes none).
func (s *OnlineScheduler) tuneFor(n *onlineNode, j *Job) (mapreduce.Config, tuneInfo) {
	if len(n.residents) == 1 {
		resident := n.residents[0]
		pairCfg, exp, err := predictPair(s.Tuner, &resident.job.Obs, &j.Obs)
		if err == nil && pairCfg[0].Mappers+pairCfg[1].Mappers <= s.Model.Spec.Cores {
			resident.cfg.Freq = pairCfg[0].Freq
			resident.cfg.Mappers = pairCfg[0].Mappers
			s.ob.tune(j, n, pairCfg[1], &pairCfg)
			return pairCfg[1], tuneInfo{pair: true, exp: exp}
		}
	}
	cfg, soloExp, err := PredictSoloBestExpected(j.Obs, s.DB)
	if err != nil {
		cfg = NTConfig(s.Model.Spec.Cores / maxPerNode)
		soloExp = PairExpectation{}
	}
	free := s.Model.Spec.Cores
	for _, r := range n.residents {
		free -= r.cfg.Mappers
	}
	if cfg.Mappers > free {
		cfg.Mappers = free
	}
	if cfg.Mappers < 1 {
		cfg.Mappers = 1
	}
	s.ob.tune(j, n, cfg, nil)
	return cfg, tuneInfo{exp: soloExp}
}

// reschedule recomputes the node's next completion event from the
// current resident set's steady-state rates.
func (s *OnlineScheduler) reschedule(n *onlineNode) {
	if n.event != nil {
		s.Engine.Cancel(n.event)
		n.event = nil
	}
	if len(n.residents) == 0 {
		n.watts = s.idleWatts
		s.refreshPhaseWatts(n)
		return
	}
	var stsBuf [2]mapreduce.SteadyState
	var sts []mapreduce.SteadyState
	var watts float64
	if s.naive {
		out, w, err := s.Model.Steady(slices.Clone(s.specsInto(n)))
		if err != nil {
			panic(err)
		}
		sts, watts = out, w
	} else {
		res := n.residents
		k := steadyKey{a: steadySpecKey{res[0].job.Obs.key, res[0].cfg}}
		if len(res) == maxPerNode {
			k.b = steadySpecKey{res[1].job.Obs.key, res[1].cfg}
		}
		if v, hit := s.steadyMemo[k]; hit {
			stsBuf, watts = v.sts, v.watts
		} else {
			// Only a miss builds the resident specs.
			out, w, err := s.Model.Steady(s.specsInto(n))
			if err != nil {
				panic(err)
			}
			copy(stsBuf[:], out)
			watts = w
			if len(s.steadyMemo) >= steadyMemoCap {
				clear(s.steadyMemo)
			}
			s.steadyMemo[k] = steadyVal{sts: stsBuf, watts: w}
		}
		sts = stsBuf[:len(n.residents)]
	}
	// Capture the node's steady-state draw for the incremental accrual
	// path: this is the single point where a node's resident set or
	// configurations take effect, so the cache is fresh at every later
	// accrual (which always runs before the next mutation).
	n.watts = watts
	s.refreshPhaseWatts(n)
	s.ob.steady(n, sts)
	// Next finisher under current contention.
	next := -1
	nextDT := math.Inf(1)
	for i, r := range n.residents {
		dt := r.rem * sts[i].JobTime
		if dt < nextDT {
			next, nextDT = i, dt
		}
	}
	if next < 0 {
		return
	}
	// Record progress rates to advance remaining fractions at the event.
	// The buffer lives on the node: the pending event is cancelled
	// before any refill, so the closure never reads overwritten rates.
	if cap(n.rates) < len(n.residents) {
		n.rates = make([]float64, len(n.residents))
	}
	rates := n.rates[:len(n.residents)]
	for i := range n.residents {
		rates[i] = 1 / sts[i].JobTime
	}
	n.evDT = nextDT
	n.evFinisher = n.residents[next]
	n.event = s.Engine.After(nextDT, n.fire)
}

// nodeComplete is the node's completion event: advance every resident's
// remaining fraction by the elapsed interval's progress rates, retire
// the finisher, and refill the node. It reads the reschedule-maintained
// n.evDT / n.evFinisher / n.rates instead of closure captures.
func (s *OnlineScheduler) nodeComplete(n *onlineNode) {
	nextDT := n.evDT
	finisher := n.evFinisher
	rates := n.rates[:len(n.residents)]
	s.accrueEnergy()
	for i, r := range n.residents {
		r.rem -= nextDT * rates[i]
		if r.rem < 0 {
			r.rem = 0
		}
	}
	// Remove the finisher.
	for i, r := range n.residents {
		if r == finisher {
			n.residents = append(n.residents[:i], n.residents[i+1:]...)
			break
		}
	}
	s.occupancyChanged(n)
	s.pending--
	s.completed = append(s.completed, CompletedJob{
		ID:        finisher.job.ID,
		App:       finisher.job.Obs.App.Name,
		Class:     finisher.job.Class,
		SizeGB:    finisher.job.Obs.SizeGB,
		Submitted: finisher.job.Arrived,
		Started:   finisher.started,
		Finished:  s.Engine.Now(),
		Node:      s.gid(n),
		Cfg:       finisher.cfg,
	})
	s.ob.complete(n, finisher)
	// The finisher and its job are unreachable now — every export above
	// copied what it needed — so both records go back to the pools.
	n.evFinisher = nil
	s.jobPool = append(s.jobPool, finisher.job)
	*finisher = onlineJob{}
	s.ojPool = append(s.ojPool, finisher)
	n.event = nil
	s.reschedule(n)
	s.dispatch()
}
