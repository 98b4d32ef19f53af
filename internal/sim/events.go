package sim

// Event is a callback scheduled at a point in simulated time.
type Event struct {
	// At is the absolute simulated time (seconds) the event fires.
	At float64
	// Fire runs when the clock reaches At. It may schedule further events.
	Fire func()

	seq   int64 // tiebreaker: FIFO among equal timestamps
	index int   // heap slot; -1 once fired or cancelled
}

// before reports whether a fires ahead of b: (At, seq) lexicographic.
// seq is unique per engine (At/After count up from 0, AtHead counts
// down from -1), so this is a strict total order on the pending set and
// the fire sequence is independent of how the heap arranges ties.
func before(a, b *Event) bool {
	return a.At < b.At || (a.At == b.At && a.seq < b.seq)
}

// eventHeap is a 4-ary min-heap under before. It is typed — push, pop
// and remove compare *Event directly instead of dispatching through
// container/heap's interface — and 4-ary, which halves the tree depth
// and keeps a node's children adjacent in the slice. Every Event's
// index field tracks its slot so Cancel removes in O(log n).
type eventHeap []*Event

// push inserts ev.
func (h *eventHeap) push(ev *Event) {
	*h = append(*h, ev)
	h.up(len(*h)-1, ev)
}

// pop removes and returns the minimum; the heap must be non-empty.
func (h *eventHeap) pop() *Event {
	return h.remove(0)
}

// remove deletes the event in slot i and returns it, refilling the slot
// with the last event and sifting that one into place.
func (h *eventHeap) remove(i int) *Event {
	old := *h
	n := len(old) - 1
	ev, last := old[i], old[n]
	old[n] = nil
	*h = old[:n]
	if i < n {
		if i > 0 && before(last, old[(i-1)/4]) {
			h.up(i, last)
		} else {
			h.down(i, last)
		}
	}
	ev.index = -1
	return ev
}

// up places ev, destined for slot i, by moving later-firing ancestors
// down until its parent fires first.
func (h eventHeap) up(i int, ev *Event) {
	for i > 0 {
		p := (i - 1) / 4
		pe := h[p]
		if !before(ev, pe) {
			break
		}
		h[i] = pe
		pe.index = i
		i = p
	}
	h[i] = ev
	ev.index = i
}

// down places ev, destined for slot i, by moving its earliest child up
// until ev fires no later than every child.
func (h eventHeap) down(i int, ev *Event) {
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for k, end := c+1, min(c+4, n); k < end; k++ {
			if before(h[k], h[m]) {
				m = k
			}
		}
		if !before(h[m], ev) {
			break
		}
		h[i] = h[m]
		h[i].index = i
		i = m
	}
	h[i] = ev
	ev.index = i
}

// Engine is a minimal deterministic discrete-event simulation kernel.
// Events with equal timestamps fire in scheduling order.
type Engine struct {
	now     float64
	seq     int64
	headSeq int64 // negative tiebreakers handed out by AtHead
	events  eventHeap
	fired   int64

	// free holds retired Events for reuse by later At/After/AtHead
	// calls (see Cancel for the aliasing contract).
	free []*Event
}

// NewEngine returns a kernel with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Clock returns a closure reading the engine's simulated time — the
// clock signature observability consumers (the span tracer, series
// samplers) take without holding the engine itself.
func (e *Engine) Clock() func() float64 {
	return func() float64 { return e.now }
}

// Fired reports how many events have run so far.
func (e *Engine) Fired() int64 { return e.fired }

// Pending reports how many events are scheduled but not yet fired.
func (e *Engine) Pending() int { return len(e.events) }

// alloc returns an Event for (t, fn, seq), reusing a retired one when
// the free-list holds any.
func (e *Engine) alloc(t float64, fn func(), seq int64) *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.At, ev.Fire, ev.seq = t, fn, seq
		return ev
	}
	return &Event{At: t, Fire: fn, seq: seq}
}

// At schedules fn to run at absolute time t. Scheduling in the past (t <
// Now) is clamped to Now: the event fires next, preserving causality.
func (e *Engine) At(t float64, fn func()) *Event {
	if t < e.now {
		t = e.now
	}
	ev := e.alloc(t, fn, e.seq)
	e.seq++
	e.events.push(ev)
	return ev
}

// AtHead schedules fn at absolute time t ahead of every event scheduled
// with At/After at the same timestamp, regardless of scheduling order.
// The scheduler's arrival ring uses it to keep batched arrivals firing
// before same-instant completions, exactly as per-job arrival events
// scheduled before the run would have (their submission-time seq always
// undercuts runtime-scheduled events). Among AtHead events at one
// timestamp the later-scheduled fires first, so callers keep at most
// one in flight per engine (the ring schedules its next head event only
// after the previous one fired).
func (e *Engine) AtHead(t float64, fn func()) *Event {
	if t < e.now {
		t = e.now
	}
	e.headSeq--
	ev := e.alloc(t, fn, e.headSeq)
	e.events.push(ev)
	return ev
}

// After schedules fn to run d seconds from now.
func (e *Engine) After(d float64, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Cancel removes a scheduled event and reports whether it was pending.
//
// Aliasing contract: an Event retired by Step (once its callback
// returns) or by Cancel is reused by a later At/After/AtHead, so a
// handle is only meaningful while its event is pending. Callers must
// drop every *Event they hold once it has fired or been cancelled — the
// scheduler's per-node completion handle, the only one retained in this
// codebase, does exactly that. Cancelling a retired handle before the
// engine reuses it is a no-op reporting false; after reuse it would
// cancel the event now occupying it.
func (e *Engine) Cancel(ev *Event) bool {
	if ev == nil || ev.index < 0 || ev.index >= len(e.events) || e.events[ev.index] != ev {
		return false
	}
	e.events.remove(ev.index)
	ev.Fire = nil
	e.free = append(e.free, ev)
	return true
}

// NextAt peeks at the timestamp of the next scheduled event without
// firing it. It reports false when no events are pending. The sharded
// control plane uses it to compute the global epoch barrier (the
// minimum next-event time across all shard engines).
func (e *Engine) NextAt() (float64, bool) {
	if len(e.events) == 0 {
		return 0, false
	}
	return e.events[0].At, true
}

// RunThrough fires every event with a timestamp at or before t, in
// (At, seq) order, and stops without advancing the clock past the last
// fired event. It never moves the clock to t when no event lands
// exactly there (AdvanceTo does that) — shards that sit out an epoch
// keep their own clock, so per-shard accrual intervals stay exactly the
// intervals their own events delimit.
func (e *Engine) RunThrough(t float64) {
	for len(e.events) > 0 && e.events[0].At <= t {
		e.Step()
	}
}

// RunBefore fires every event with a timestamp strictly before t, in
// (At, seq) order, with RunThrough's clock semantics (the clock stops at
// the last fired event, never at t). The sharded control plane's
// free-running windows use it: shards drain everything up to — but
// excluding — the next global arrival time, which is the first instant
// cross-shard interaction (a steal) could possibly occur. RunBefore(+Inf)
// drains the engine completely.
func (e *Engine) RunBefore(t float64) {
	for len(e.events) > 0 && e.events[0].At < t {
		e.Step()
	}
}

// AdvanceTo moves the clock forward to t without firing anything.
// Jumping over a pending event would violate causality, so it panics if
// one is scheduled before t; callers use it only at epoch barriers
// (after RunThrough drained everything at or before t) and when closing
// a drained shard out to the global makespan.
func (e *Engine) AdvanceTo(t float64) {
	if t <= e.now {
		return
	}
	if len(e.events) > 0 && e.events[0].At < t {
		panic("sim: AdvanceTo would skip a pending event")
	}
	e.now = t
}

// Step fires the next event, advancing the clock to its timestamp.
// It reports false when no events remain.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.events.pop()
	e.now = ev.At
	e.fired++
	ev.Fire()
	// Retire after Fire so a callback cancelling or inspecting the
	// firing event never races its own reuse.
	ev.Fire = nil
	e.free = append(e.free, ev)
	return true
}
