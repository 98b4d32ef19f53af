package core

// The observer seam (DESIGN.md §19): each scheduler lifecycle
// transition reports once, through one method here, which fans out to
// metrics, audit (with flight) and tracing in a fixed order. While
// nothing is attached the scheduler's *observer is nil and a transition
// costs one inlined nil check; nothing is built before it.

import (
	"fmt"
	"strings"

	"ecost/internal/audit"
	"ecost/internal/flight"
	"ecost/internal/mapreduce"
	"ecost/internal/metrics"
	"ecost/internal/power"
	"ecost/internal/tracing"
	"ecost/internal/workloads"
)

// observer owns one scheduler's observability state; each sink is nil
// while detached. s is the observed scheduler: the seam reads its
// clock, queue length, node base and energy split itself. traced maps
// in-flight job IDs to their open spans; nodeSpans holds each node's
// current occupancy span.
type observer struct {
	s         *OnlineScheduler
	met       *schedMetrics
	tr        *tracing.Tracer
	traced    map[int]*jobSpans
	nodeSpans []*tracing.Span
	aud       *audit.Log
	fl        *flight.Collector
}

// jobSpans tracks one in-flight job's open spans plus the model's
// latest map/total time split (see steady).
type jobSpans struct {
	job, wait, run *tracing.Span
	mapFrac        float64
}

// schedMetrics pre-resolves the instruments the per-event path
// touches so it never takes the registry lock. Instruments whose
// presence would change a snapshot (steal counters, queue telemetry,
// per-class histograms) are looked up by name on first use instead —
// exactly when they first have something to count.
type schedMetrics struct {
	reg        *metrics.Registry
	submitted  *metrics.Counter
	completed  *metrics.Counter
	pairs      *metrics.Counter
	reserves   *metrics.Counter
	leaps      *metrics.Counter
	tunePair   *metrics.Counter
	tuneSolo   *metrics.Counter
	depth      *metrics.Series
	turnaround *metrics.Histogram
	wait       map[workloads.Class]*metrics.Histogram

	energyIdle   *metrics.Gauge
	energySolo   *metrics.Gauge
	energyPaired *metrics.Gauge
}

func newSchedMetrics(reg *metrics.Registry) *schedMetrics {
	return &schedMetrics{
		reg:          reg,
		submitted:    reg.Counter("sched.submitted"),
		completed:    reg.Counter("sched.completed"),
		pairs:        reg.Counter("sched.pairings"),
		reserves:     reg.Counter("sched.reservations"),
		leaps:        reg.Counter("sched.leaps"),
		tunePair:     reg.Counter("sched.tune.pair"),
		tuneSolo:     reg.Counter("sched.tune.solo"),
		depth:        reg.Series("sched.queue_depth"),
		turnaround:   reg.Histogram("sched.turnaround_s", metrics.ExpBuckets(16, 2, 14)),
		wait:         map[workloads.Class]*metrics.Histogram{},
		energyIdle:   reg.Gauge("power.energy_j.idle"),
		energySolo:   reg.Gauge("power.energy_j.solo"),
		energyPaired: reg.Gauge("power.energy_j.paired"),
	}
}

// emit appends one event to the registry's event log.
func (m *schedMetrics) emit(at float64, kind metrics.EventKind, job, node int, detail string) {
	m.reg.Emit(metrics.Event{At: at, Kind: kind, Job: job, Node: node, Detail: detail})
}

// waitFor returns the per-class wait-latency histogram.
func (m *schedMetrics) waitFor(c workloads.Class) *metrics.Histogram {
	h, ok := m.wait[c]
	if !ok {
		h = m.reg.Histogram("sched.wait_s."+c.String(), metrics.ExpBuckets(16, 2, 14))
		m.wait[c] = h
	}
	return h
}

// attach applies one sink change and re-derives the seam: the observer
// exists only while at least one sink is attached. Once both a registry
// and an audit log are present — in either attach order — the audit
// mirror instruments are registered, so a healthy run shows the drift
// gauge at 0.
func (s *OnlineScheduler) attach(set func(o *observer)) {
	o := s.ob
	if o == nil {
		o = &observer{s: s}
	}
	set(o)
	if o.met != nil && o.aud != nil {
		o.met.reg.Gauge("stp.drift_alert")      // 0 healthy, latched 1 on alarm
		o.met.reg.Counter("audit.drift_alerts") // alarms fired
	}
	if o.met == nil && o.tr == nil && o.aud == nil && o.fl == nil {
		o = nil
	}
	s.ob = o
}

// SetMetrics attaches an observability registry to the scheduler (its
// wait-queue telemetry included). Call before the first Submit; pass
// nil to disable. The execution model is deliberately left alone —
// attach a registry to Model.Metrics separately if steady-state
// telemetry is wanted (the model may be shared with uninstrumented
// components).
func (s *OnlineScheduler) SetMetrics(reg *metrics.Registry) {
	s.attach(func(o *observer) {
		o.met = nil
		if reg != nil {
			o.met = newSchedMetrics(reg)
		}
	})
}

// SetAudit attaches a decision-audit log to the scheduler. Call before
// the first Submit; pass nil to disable. When a metrics registry is
// also attached, joins and drift alarms are mirrored into it
// (per-class audit.rel_err_pct histograms, the stp.drift_alert gauge,
// the audit.drift_alerts counter, and EvDrift events).
func (s *OnlineScheduler) SetAudit(l *audit.Log) {
	s.attach(func(o *observer) { o.aud = l })
}

// SetTracer attaches a span tracer to the scheduler. Call before the
// first Submit; pass nil to disable. The tracer's clock must be the
// scheduler's engine (tracing.New(engine.Clock())) or span timestamps
// will not line up with the event log.
func (s *OnlineScheduler) SetTracer(tr *tracing.Tracer) {
	s.attach(func(o *observer) {
		o.tr, o.traced, o.nodeSpans = tr, nil, nil
		if tr == nil {
			return
		}
		o.traced = make(map[int]*jobSpans)
		o.nodeSpans = make([]*tracing.Span, len(s.nodes))
		for _, n := range s.nodes {
			o.openNode(n)
		}
	})
}

// SetFlight attaches this shard's flight-recorder collector (nil =
// off). The completion path feeds it audit joins and drift alerts;
// the sharded control plane drains it at every barrier. Only the
// owning shard's goroutine writes it between barriers.
func (s *OnlineScheduler) SetFlight(c *flight.Collector) {
	s.attach(func(o *observer) { o.fl = c })
}

// branchOf names the decision-tree branch that put a job on a node
// holding `residents` jobs before the placement: a reserve claim of an
// empty node, or a pairing with its resident — at the queue head, or
// leaping over queued job leapOver (-1 when nothing was leapt).
func branchOf(residents, leapOver int) audit.Branch {
	switch {
	case residents == 0:
		return audit.BranchReserve
	case leapOver >= 0:
		return audit.BranchPairLeap
	}
	return audit.BranchPairHead
}

// jobAttrs labels one of j's spans on global node id node (-1 while
// the job is queued).
func jobAttrs(j *Job, node int) tracing.Attrs {
	return tracing.Attrs{
		Job: j.ID, Node: node,
		App: j.Obs.App.Name, Class: j.Class.String(), SizeGB: j.Obs.SizeGB,
	}
}

// sampleDepth records the queue depth at the current sim-time.
func (o *observer) sampleDepth() {
	o.met.depth.Sample(o.s.Engine.Now(), float64(o.s.queue.Len()))
}

// openNode starts n's occupancy span for its current resident set.
func (o *observer) openNode(n *onlineNode) {
	names := make([]string, 0, len(n.residents))
	for _, r := range n.residents {
		names = append(names, r.job.Obs.App.Name)
	}
	o.nodeSpans[n.id] = o.tr.Start(tracing.KindNode, power.PhaseName(len(n.residents)), nil,
		tracing.Attrs{Job: -1, Node: o.s.gid(n), Detail: strings.Join(names, "+")})
}

// rollOccupancy closes n's occupancy span and opens the next one.
func (o *observer) rollOccupancy(n *onlineNode) {
	o.nodeSpans[n.id].FinishAt(o.s.Engine.Now())
	o.openNode(n)
}

// enqueued records j entering the wait queue: the queue telemetry and
// the audit record. The app's class is ground truth the prediction
// path never sees; recording it next to the Classify verdict is what
// makes the confusion matrix possible.
func (o *observer) enqueued(j *Job) {
	if m := o.met; m != nil {
		m.reg.Counter("queue.push." + j.Class.String()).Inc()
		if hw, d := m.reg.Gauge("queue.depth_highwater"), float64(o.s.queue.Len()); d > hw.Value() {
			hw.Set(d)
		}
	}
	o.aud.Submit(j.ID, j.Obs.App.Name, j.Obs.SizeGB, j.Obs.App.Class.String(), j.Class.String(), j.Arrived)
}

// openJob opens j's job and wait spans (nil when tracing is off).
func (o *observer) openJob(j *Job) *jobSpans {
	if o.tr == nil {
		return nil
	}
	a := jobAttrs(j, -1)
	js := &jobSpans{}
	js.job = o.tr.Start(tracing.KindJob, "job "+j.Obs.App.Name, nil, a)
	js.wait = o.tr.Start(tracing.KindWait, "wait", js.job, a)
	o.traced[j.ID] = js
	return js
}

// submit: a fresh arrival was classified and queued.
func (o *observer) submit(j *Job) {
	if o != nil {
		o.submitSlow(j)
	}
}

func (o *observer) submitSlow(j *Job) {
	o.enqueued(j)
	if m := o.met; m != nil {
		m.submitted.Inc()
		m.emit(j.Arrived, metrics.EvSubmit, j.ID, -1, fmt.Sprintf("%s@%gG class=%s", j.Obs.App.Name, j.Obs.SizeGB, j.Class))
		o.sampleDepth()
	}
	o.openJob(j)
}

// stealOut: queued job j left for shard `to` at barrier time at. The
// victim records a steal_out span carrying the steal's link id, closes
// the job's open spans and forgets it; the audit record stays
// submit-only, documenting where the job first landed.
func (o *observer) stealOut(j *Job, to int, at float64, link int) {
	if o != nil {
		o.stealOutSlow(j, to, at, link)
	}
}

func (o *observer) stealOutSlow(j *Job, to int, at float64, link int) {
	if m := o.met; m != nil {
		m.reg.Counter("sched.steals_out").Inc()
		o.sampleDepth()
	}
	js := o.traced[j.ID] // nil when tracing is off
	if js == nil {
		return
	}
	if link > 0 {
		a := jobAttrs(j, -1)
		a.Detail, a.Link = fmt.Sprintf("to=shard%d", to), link
		o.tr.Record(tracing.KindStealOut, "steal_out", js.job, at, at, a)
	}
	js.wait.FinishAt(at)
	js.job.FinishAt(at)
	delete(o.traced, j.ID)
}

// stealIn: job j, claimed from shard `from` at barrier time at, joined
// this queue. It opens fresh spans (plus a steal_in span linked to the
// victim's steal_out) and a fresh audit record in this shard's exports.
func (o *observer) stealIn(j *Job, from int, at float64, link int) {
	if o != nil {
		o.stealInSlow(j, from, at, link)
	}
}

func (o *observer) stealInSlow(j *Job, from int, at float64, link int) {
	o.enqueued(j)
	if m := o.met; m != nil {
		m.reg.Counter("sched.steals_in").Inc()
		m.emit(at, metrics.EvSteal, j.ID, -1, fmt.Sprintf("from=shard%d arrived=%g", from, j.Arrived))
		o.sampleDepth()
	}
	if js := o.openJob(j); js != nil && link > 0 {
		a := jobAttrs(j, -1)
		a.Detail, a.Link = fmt.Sprintf("from=shard%d", from), link
		o.tr.Record(tracing.KindStealIn, "steal_in", js.job, at, at, a)
	}
}

// pick: dispatch took j off the queue for node n, leaping over queued
// job leapOver (-1 when nothing was leapt; see branchOf). With metrics
// off this is one inlined nil check (BenchmarkDisabledDepthSample).
func (o *observer) pick(j *Job, n *onlineNode, leapOver int) {
	if o != nil {
		o.pickSlow(j, n, leapOver)
	}
}

func (o *observer) pickSlow(j *Job, n *onlineNode, leapOver int) {
	m := o.met
	if m == nil {
		return
	}
	now, node := o.s.Engine.Now(), o.s.gid(n)
	if len(n.residents) == 0 {
		m.reserves.Inc()
		m.emit(now, metrics.EvReserve, j.ID, node, "head claims fresh slot")
	} else {
		running := n.residents[0].job.Class
		m.pairs.Inc()
		m.reg.Counter("sched.pair." + running.String() + "+" + j.Class.String()).Inc()
		m.emit(now, metrics.EvPair, j.ID, node, fmt.Sprintf("partner=%s running=%s", j.Class, running))
		if leapOver >= 0 {
			m.leaps.Inc()
			m.emit(now, metrics.EvLeap, j.ID, node, fmt.Sprintf("over=%d", leapOver))
		}
	}
	o.sampleDepth()
}

// tune: STP chose cfg for j on node n. pair holds the (resident,
// incoming) pair tuning when the pair path fired; nil on the solo path.
// The tune span is instantaneous in sim-time.
func (o *observer) tune(j *Job, n *onlineNode, cfg mapreduce.Config, pair *[2]mapreduce.Config) {
	if o != nil {
		o.tuneSlow(j, n, cfg, pair)
	}
}

func (o *observer) tuneSlow(j *Job, n *onlineNode, cfg mapreduce.Config, pair *[2]mapreduce.Config) {
	now, node := o.s.Engine.Now(), o.s.gid(n)
	if m := o.met; m != nil {
		ctr, detail := m.tuneSolo, fmt.Sprintf("solo cfg=%v", cfg)
		if pair != nil {
			ctr, detail = m.tunePair, fmt.Sprintf("pair cfg=%v resident=%d cfg=%v", cfg, n.residents[0].job.ID, pair[0])
		}
		ctr.Inc()
		m.emit(now, metrics.EvTune, j.ID, node, detail)
	}
	if o.tr == nil {
		return
	}
	var parent *tracing.Span
	if js := o.traced[j.ID]; js != nil {
		parent = js.job
	}
	a := jobAttrs(j, node)
	a.SizeGB, a.Config, a.Detail = 0, cfg.String(), "solo"
	if pair != nil {
		a.Detail = fmt.Sprintf("pair resident=%d cfg=%v", n.residents[0].job.ID, pair[0])
	}
	o.tr.Record(tracing.KindTune, "tune", parent, now, now, a)
}

// place: oj was started on node n (already appended to its residents)
// with the tuning ti. The run span opens and the node's occupancy rolls
// over. With tracing off this is one inlined nil check
// (BenchmarkDisabledOccupancyRoll).
func (o *observer) place(n *onlineNode, oj *onlineJob, ti tuneInfo, leapOver int) {
	if o != nil {
		o.placeSlow(n, oj, ti, leapOver)
	}
}

func (o *observer) placeSlow(n *onlineNode, oj *onlineJob, ti tuneInfo, leapOver int) {
	j, now, node := oj.job, oj.started, o.s.gid(n)
	branch := branchOf(len(n.residents)-1, leapOver)
	var partner *onlineJob
	if len(n.residents) == 2 {
		partner = n.residents[0]
	}
	if m := o.met; m != nil {
		m.waitFor(j.Class).Observe(now - j.Arrived)
	}
	if o.aud != nil {
		path := audit.TuneSolo
		if ti.pair {
			path = audit.TunePair
		}
		o.aud.Place(j.ID, node, now, branch, leapOver)
		o.aud.Tune(j.ID, o.s.Tuner.Name(), oj.cfg.String(), path, audit.Expectation(ti.exp))
		if partner != nil {
			var pred audit.Expectation
			if ti.pair {
				// The pair forecast only holds when the pair tuning was
				// actually applied; a solo fallback leaves it zero (no
				// join, no drift sample).
				pred = audit.Expectation(ti.exp)
				o.aud.Retune(partner.job.ID, partner.cfg.String())
			}
			o.aud.Paired(partner.job.ID, j.ID, node, now, branch, pred)
		}
	}
	if o.tr == nil {
		return
	}
	js := o.traced[j.ID]
	js.wait.FinishAt(now)
	a := jobAttrs(j, node)
	a.Config = oj.cfg.String()
	if partner != nil {
		a.Partner = partner.job.Obs.App.Name
		// The resident learns its partner too (and its possibly
		// re-tuned configuration).
		if pjs := o.traced[partner.job.ID]; pjs != nil {
			pjs.run.SetPartner(j.Obs.App.Name)
			pjs.run.SetConfig(partner.cfg.String())
		}
	}
	js.run = o.tr.Start(tracing.KindRun, "run "+j.Obs.App.Name, js.job, a)
	o.rollOccupancy(n)
}

// steady: n's residents run at the steady states sts (resident order).
// Each traced resident's map/total split is refreshed, so the value in
// force at completion places the map → shuffle/reduce boundary.
func (o *observer) steady(n *onlineNode, sts []mapreduce.SteadyState) {
	if o == nil || o.tr == nil {
		return
	}
	for i, r := range n.residents {
		if js := o.traced[r.job.ID]; js != nil {
			if tot := sts[i].MapTime + sts[i].ReduceTime; tot > 0 {
				js.mapFrac = sts[i].MapTime / tot
			}
		}
	}
}

// attributing reports whether an attached sink bills energy per node
// and per job, which needs accrueEnergy's per-node walk.
func (o *observer) attributing() bool {
	return o != nil && (o.tr != nil || o.aud != nil)
}

// share bills node n's joules for the closing accrual interval: in
// full to its occupancy span, so node spans re-integrate to the cluster
// bill, and in equal shares to its residents' run spans and audit
// records — the same division, so the audit's realized join is
// bit-identical to tracing's JobReport.EnergyJ.
func (o *observer) share(n *onlineNode, joules float64) {
	if o != nil {
		o.shareSlow(n, joules)
	}
}

func (o *observer) shareSlow(n *onlineNode, joules float64) {
	if o.tr != nil {
		o.nodeSpans[n.id].AddEnergy(joules)
	}
	if len(n.residents) == 0 || (o.tr == nil && o.aud == nil) {
		return
	}
	share := joules / float64(len(n.residents))
	for _, r := range n.residents {
		if o.tr != nil {
			if js := o.traced[r.job.ID]; js != nil {
				js.run.AddEnergy(share)
			}
		}
		o.aud.AddEnergy(r.job.ID, share)
	}
}

// accrued: an accrual interval closed; the energy gauges follow the
// scheduler's phase split.
func (o *observer) accrued() {
	if o != nil && o.met != nil {
		o.accruedSlow()
	}
}

func (o *observer) accruedSlow() {
	p := &o.s.phases
	o.met.energyIdle.Set(p.IdleJ)
	o.met.energySolo.Set(p.SoloJ)
	o.met.energyPaired.Set(p.CoJ)
}

// complete: f finished on node n (already removed from its residents).
// The audit's forecast joins and drift alerts are forwarded to the
// flight collector and the metrics mirrors here; the run span closes
// with retroactive map and shuffle/reduce sub-spans splitting it at the
// model's phase boundary (sharing the run's attributed energy in the
// same proportion), and the node's occupancy rolls over.
func (o *observer) complete(n *onlineNode, f *onlineJob) {
	if o != nil {
		o.completeSlow(n, f)
	}
}

func (o *observer) completeSlow(n *onlineNode, f *onlineJob) {
	j, now, node := f.job, o.s.Engine.Now(), o.s.gid(n)
	m := o.met
	if m != nil {
		m.completed.Inc()
		m.turnaround.Observe(now - j.Arrived)
		m.emit(now, metrics.EvComplete, j.ID, node, fmt.Sprintf("%s class=%s", j.Obs.App.Name, j.Class))
	}
	if o.aud != nil {
		joins, alerts := o.aud.Complete(j.ID, now)
		if o.fl != nil {
			for _, jn := range joins {
				o.fl.Join(jn.RelErrPct)
			}
			for _, a := range alerts {
				o.fl.Drift(j.ID, j.Obs.App.Name+":"+j.Class.String(), a.Stat)
			}
		}
		if m != nil {
			for _, jn := range joins {
				// Buckets track audit.ErrBuckets: 5% doubling to 1280%.
				m.reg.Histogram("audit.rel_err_pct."+jn.Class, metrics.ExpBuckets(5, 2, 9)).Observe(jn.RelErrPct)
			}
			for _, a := range alerts {
				m.reg.Counter("audit.drift_alerts").Inc()
				m.reg.Gauge("stp.drift_alert").Set(1)
				m.emit(now, metrics.EvDrift, j.ID, node, fmt.Sprintf("cusum stat=%.1f mean=%.1f%% sample=%d", a.Stat, a.Mean, a.Sample))
			}
		}
	}
	js := o.traced[j.ID] // nil when tracing is off
	if js == nil {
		return
	}
	js.run.FinishAt(now)
	run := js.run.Snapshot()
	a := jobAttrs(j, node)
	a.SizeGB = 0 // phase sub-spans leave the size to their job span
	mapEnd := run.Start + js.mapFrac*(now-run.Start)
	o.tr.Record(tracing.KindMap, "map", js.run, run.Start, mapEnd, a).
		SetEnergy(js.mapFrac * run.EnergyJ)
	o.tr.Record(tracing.KindReduce, "shuffle/reduce", js.run, mapEnd, now, a).
		SetEnergy((1 - js.mapFrac) * run.EnergyJ)
	js.job.FinishAt(now)
	delete(o.traced, j.ID)
	o.rollOccupancy(n)
}

// finish: the run drained; open occupancy spans close at the clock.
func (o *observer) finish() {
	if o != nil && o.tr != nil {
		o.finishSlow()
	}
}

func (o *observer) finishSlow() {
	now := o.s.Engine.Now()
	for _, sp := range o.nodeSpans {
		sp.FinishAt(now)
	}
}
