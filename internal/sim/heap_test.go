package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// refEvent is one pending event of the reference model: its clamped
// time, the sequence number the engine's rules assign it, and a label.
type refEvent struct {
	at    float64
	seq   int64
	label int
}

// refQueue is the reference model of the event queue: a plain slice
// kept sorted by (at, seq). Pop takes the front; cancel deletes by
// label. It shares no code with the engine's heap.
type refQueue struct {
	evs     []refEvent
	seq     int64
	headSeq int64
}

func (q *refQueue) add(at float64, head bool, label int) {
	var seq int64
	if head {
		q.headSeq--
		seq = q.headSeq
	} else {
		seq = q.seq
		q.seq++
	}
	q.evs = append(q.evs, refEvent{at, seq, label})
	slices.SortFunc(q.evs, func(a, b refEvent) int {
		switch {
		case a.at < b.at:
			return -1
		case a.at > b.at:
			return 1
		case a.seq < b.seq:
			return -1
		case a.seq > b.seq:
			return 1
		}
		return 0
	})
}

func (q *refQueue) cancel(label int) {
	i := slices.IndexFunc(q.evs, func(e refEvent) bool { return e.label == label })
	q.evs = slices.Delete(q.evs, i, i+1)
}

// TestEngineHeapMatchesReference drives random At/AtHead/Cancel/Step
// sequences — with callbacks that schedule and cancel further events,
// on coarse timestamps so ties are common — through the engine (which
// recycles retired events) and the sorted-slice reference, and requires
// the identical fire order, clock, and pending count at every step.
func TestEngineHeapMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		engineMatchesReference(t, seed)
	}
}

func engineMatchesReference(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	eng := NewEngine()
	var ref refQueue
	live := map[int]*Event{} // label -> handle, pending events only
	var fired, want []int
	next := 0

	var schedule, cancelOne func()
	schedule = func() {
		label := next
		next++
		at := eng.Now() + float64(rng.Intn(6))*0.5 - 0.5 // occasionally in the past
		if at < eng.Now() {
			at = eng.Now()
		}
		head := rng.Intn(5) == 0
		fire := func() {
			fired = append(fired, label)
			delete(live, label)
			// Callbacks reschedule and cancel too, as the scheduler's do.
			if rng.Intn(3) == 0 {
				schedule()
			}
			if rng.Intn(4) == 0 {
				cancelOne()
			}
		}
		var ev *Event
		if head {
			ev = eng.AtHead(at, fire)
		} else {
			ev = eng.At(at, fire)
		}
		ref.add(at, head, label)
		live[label] = ev
	}
	cancelOne = func() {
		if len(live) == 0 {
			return
		}
		labels := make([]int, 0, len(live))
		for l := range live {
			labels = append(labels, l)
		}
		slices.Sort(labels)
		l := labels[rng.Intn(len(labels))]
		if !eng.Cancel(live[l]) {
			t.Fatalf("seed %d: Cancel of pending event %d reported false", seed, l)
		}
		ref.cancel(l)
		delete(live, l)
	}

	for op := 0; op < 600; op++ {
		switch r := rng.Intn(10); {
		case r < 5:
			schedule()
		case r < 6:
			cancelOne()
		default:
			if len(ref.evs) == 0 {
				if eng.Step() {
					t.Fatalf("seed %d: Step fired on an empty queue", seed)
				}
				continue
			}
			head := ref.evs[0]
			ref.evs = ref.evs[1:]
			want = append(want, head.label)
			if !eng.Step() {
				t.Fatalf("seed %d: Step found no event, reference holds %d", seed, len(ref.evs)+1)
			}
			if eng.Now() != head.at {
				t.Fatalf("seed %d: clock %v after firing, reference %v", seed, eng.Now(), head.at)
			}
		}
		// Callback-scheduled events land in ref via schedule itself;
		// the fire order so far must agree exactly.
		if !slices.Equal(fired, want) {
			t.Fatalf("seed %d: fire order diverged\nengine    %v\nreference %v", seed, fired, want)
		}
		if eng.Pending() != len(ref.evs) {
			t.Fatalf("seed %d: %d pending, reference %d", seed, eng.Pending(), len(ref.evs))
		}
		if at, ok := eng.NextAt(); ok != (len(ref.evs) > 0) || (ok && at != ref.evs[0].at) {
			t.Fatalf("seed %d: NextAt %v,%v, reference %v", seed, at, ok, ref.evs)
		}
	}
	// Drain: the tail must come out in reference order too.
	for len(ref.evs) > 0 {
		want = append(want, ref.evs[0].label)
		ref.evs = ref.evs[1:]
		eng.Step()
	}
	if !slices.Equal(fired, want) || eng.Pending() != 0 {
		t.Fatalf("seed %d: drain diverged\nengine    %v\nreference %v", seed, fired, want)
	}
}
