package core

import (
	"testing"

	"ecost/internal/metrics"
	"ecost/internal/sim"
	"ecost/internal/workloads"
)

// qjob builds a minimal queued job for queue-only tests (no profiling).
func qjob(id int, class workloads.Class, est float64) *Job {
	return &Job{ID: id, Class: class, EstTime: est}
}

func TestQueueCandidatesEdgeCases(t *testing.T) {
	C, H, I, M := workloads.Compute, workloads.Hybrid, workloads.IOBound, workloads.MemBound
	cases := []struct {
		name string
		jobs []*Job
		want []int // expected candidate IDs in order
	}{
		{
			name: "empty queue",
			jobs: nil,
			want: nil,
		},
		{
			name: "single element is only the head",
			jobs: []*Job{qjob(0, C, 100)},
			want: []int{0},
		},
		{
			name: "small job leaps past reserved head",
			jobs: []*Job{qjob(0, C, 100), qjob(1, H, 80), qjob(2, I, 50)},
			want: []int{0, 2}, // 80 > 0.5*100 stays; 50 <= 0.5*100 leaps
		},
		{
			name: "leap bound is inclusive",
			jobs: []*Job{qjob(0, C, 100), qjob(1, I, 50.0000001)},
			want: []int{0},
		},
		{
			name: "zero-estimate head blocks all leaps",
			jobs: []*Job{qjob(0, M, 0), qjob(1, I, 0), qjob(2, C, 0)},
			want: []int{0}, // EstTime 0: the smallness test can't certify anyone
		},
		{
			name: "all tiny jobs leap",
			jobs: []*Job{qjob(0, C, 100), qjob(1, I, 1), qjob(2, H, 2), qjob(3, M, 3)},
			want: []int{0, 1, 2, 3},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := NewWaitQueue()
			for _, j := range tc.jobs {
				q.Push(j)
			}
			got := q.Candidates()
			if len(got) != len(tc.want) {
				t.Fatalf("candidates = %d jobs, want %d", len(got), len(tc.want))
			}
			for i, j := range got {
				if j.ID != tc.want[i] {
					t.Errorf("candidate[%d] = job %d, want %d", i, j.ID, tc.want[i])
				}
			}
		})
	}
}

func TestQueueReservationHandoffAfterTake(t *testing.T) {
	// When the reserved head itself is taken (as a partner), the
	// reservation passes to the next job in FIFO order.
	q := NewWaitQueue()
	q.Push(qjob(0, workloads.Compute, 100))
	q.Push(qjob(1, workloads.Hybrid, 100))
	q.Push(qjob(2, workloads.IOBound, 100))
	if _, err := q.Take(0); err != nil {
		t.Fatal(err)
	}
	if h := q.Head(); h == nil || h.ID != 1 {
		t.Fatalf("head after taking old head = %v, want job 1", h)
	}
	// Taking from the middle must not disturb the head's reservation.
	if _, err := q.Take(2); err != nil {
		t.Fatal(err)
	}
	if h := q.Head(); h == nil || h.ID != 1 {
		t.Fatalf("head after taking tail = %v, want job 1", h)
	}
	if _, err := q.Take(42); err == nil {
		t.Error("taking an absent job must error")
	}
	if q.Len() != 1 {
		t.Fatalf("queue length = %d, want 1", q.Len())
	}
}

func TestQueueAllSameClassKeepsFIFO(t *testing.T) {
	// With every queued job in one class, the decision tree has no class
	// signal and must fall back to strict queue order.
	q := NewWaitQueue()
	for i := 0; i < 5; i++ {
		q.Push(qjob(i, workloads.Compute, 10))
	}
	for want := 0; want < 5; want++ {
		j := q.SelectPartner(workloads.Hybrid, DefaultPriority())
		if j == nil || j.ID != want {
			t.Fatalf("same-class partner pick = %v, want job %d", j, want)
		}
		if _, err := q.Take(j.ID); err != nil {
			t.Fatal(err)
		}
	}
	if q.SelectPartner(workloads.Hybrid, DefaultPriority()) != nil {
		t.Error("empty queue must yield no partner")
	}
}

func TestQueuePopHeadAndNilPush(t *testing.T) {
	q := NewWaitQueue()
	if q.PopHead() != nil {
		t.Error("PopHead on empty queue must return nil")
	}
	q.Push(nil) // ignored
	if q.Len() != 0 {
		t.Error("nil push must not enqueue")
	}
	q.Push(qjob(7, workloads.MemBound, 1))
	if j := q.PopHead(); j == nil || j.ID != 7 {
		t.Fatalf("PopHead = %v, want job 7", j)
	}
	if q.Len() != 0 {
		t.Error("queue not empty after PopHead")
	}
}

// TestQueueMetricsCounts checks the wait-queue telemetry the scheduler's
// observer records: one queue.push.<class> count per job entering the
// queue and the depth high-water mark. Five jobs arrive at t=0 on one
// node: the first two are placed (reserve, then pair), the other three
// queue behind them.
func TestQueueMetricsCounts(t *testing.T) {
	fixture(t)
	appOf := map[workloads.Class]workloads.App{}
	for _, a := range workloads.Apps() {
		if _, ok := appOf[a.Class]; !ok {
			appOf[a.Class] = a
		}
	}
	C, I := workloads.Compute, workloads.IOBound
	c, s := newSolo(t, fix.db, fix.lkt, NewProfiler(fix.model, sim.NewRNG(99)), 1)
	reg := metrics.NewRegistry()
	s.SetMetrics(reg)
	for _, cl := range []workloads.Class{C, C, I, C, I} {
		c.Submit(appOf[cl], 5, 0)
	}
	// Deal the arrivals into the shard's ring, then step its engine: the
	// first event delivers all five t=0 arrivals.
	c.deal()
	if !s.Engine.Step() {
		t.Fatal("engine drained before the arrivals fired")
	}
	if got := reg.Counter("queue.push.C").Value(); got != 3 {
		t.Errorf("queue.push.C = %d, want 3", got)
	}
	if got := reg.Counter("queue.push.I").Value(); got != 2 {
		t.Errorf("queue.push.I = %d, want 2", got)
	}
	if hw := reg.Gauge("queue.depth_highwater").Value(); hw != 3 {
		t.Errorf("depth high-water = %v, want 3", hw)
	}
	byClass := map[workloads.Class]int{}
	for _, j := range s.queue.Jobs() {
		byClass[j.Class]++
	}
	if byClass[C] != 1 || byClass[I] != 2 {
		t.Errorf("queued per class = %v, want C:1 I:2", byClass)
	}
	// Leaving the queue never counts as a push.
	if _, _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("queue.push.C").Value() + reg.Counter("queue.push.I").Value(); got != 5 {
		t.Errorf("pushes after the run = %d, want 5", got)
	}
}
