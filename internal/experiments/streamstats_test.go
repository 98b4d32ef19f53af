package experiments

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"ecost/internal/core"
)

// streamStatsReference is StreamStats as first written — per-node
// intervals in a map, sort.Slice everywhere — kept as the oracle for
// the flat-slice version. It sums busy time and queue levels in map
// iteration order, so its result is order-exact only when every sum is
// exact.
func streamStatsReference(done []core.CompletedJob, nodes int, makespan float64) QueueStats {
	var qs QueueStats
	if len(done) == 0 || nodes <= 0 || makespan <= 0 {
		return qs
	}
	type iv struct{ s, e float64 }
	byNode := map[int][]iv{}
	for _, c := range done {
		byNode[c.Node] = append(byNode[c.Node], iv{c.Started, c.Finished})
	}
	busy := 0.0
	for _, ivs := range byNode {
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].s < ivs[j].s })
		curS, curE := ivs[0].s, ivs[0].e
		for _, v := range ivs[1:] {
			if v.s > curE {
				busy += curE - curS
				curS, curE = v.s, v.e
				continue
			}
			if v.e > curE {
				curE = v.e
			}
		}
		busy += curE - curS
	}
	qs.Utilization = busy / (float64(nodes) * makespan)
	type ev struct {
		at float64
		d  int
	}
	evs := make([]ev, 0, 2*len(done))
	for _, c := range done {
		evs = append(evs, ev{c.Submitted, +1}, ev{c.Started, -1})
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		return evs[i].d < evs[j].d
	})
	levelDur := map[int]float64{}
	depth, prevAt := 0, 0.0
	for _, e := range evs {
		if e.at > prevAt {
			levelDur[depth] += e.at - prevAt
			prevAt = e.at
		}
		depth += e.d
		if depth > qs.MaxQueueLen {
			qs.MaxQueueLen = depth
		}
	}
	if makespan > prevAt {
		levelDur[depth] += makespan - prevAt
	}
	levels := make([]int, 0, len(levelDur))
	total := 0.0
	for l, d := range levelDur {
		levels = append(levels, l)
		total += d
		qs.MeanQueueLen += float64(l) * d
	}
	if total > 0 {
		qs.MeanQueueLen /= total
		sort.Ints(levels)
		cum := 0.0
		qs.P95QueueLen = float64(levels[len(levels)-1])
		for _, l := range levels {
			cum += levelDur[l]
			if cum >= 0.95*total {
				qs.P95QueueLen = float64(l)
				break
			}
		}
	}
	waits := make([]float64, 0, len(done))
	sojourns := make([]float64, 0, len(done))
	for _, c := range done {
		waits = append(waits, c.Started-c.Submitted)
		sojourns = append(sojourns, c.Finished-c.Submitted)
	}
	sort.Float64s(waits)
	sort.Float64s(sojourns)
	qs.WaitP50, qs.WaitP95, qs.WaitP99 = pct(waits, 0.50), pct(waits, 0.95), pct(waits, 0.99)
	qs.SojournP50, qs.SojournP95, qs.SojournP99 = pct(sojourns, 0.50), pct(sojourns, 0.95), pct(sojourns, 0.99)
	return qs
}

// randomCompletions draws n completions on up to `nodes` nodes. With
// grid > 0 every time is a small multiple of grid — ties everywhere:
// same-instant submits, starts and finishes, zero waits, zero-length
// runs — and, grid being a power of two, every sum is exact in any
// order. With grid 0 the times are arbitrary floats.
func randomCompletions(rng *rand.Rand, n, nodes int, grid float64) ([]core.CompletedJob, float64) {
	draw := func(k int) float64 {
		if grid > 0 {
			return float64(rng.Intn(k)) * grid
		}
		return rng.Float64() * float64(k) * 0.25
	}
	done := make([]core.CompletedJob, n)
	makespan := 0.0
	for i := range done {
		sub := draw(40)
		start := sub + draw(12)
		fin := start + draw(20)
		done[i] = core.CompletedJob{ID: i, Node: rng.Intn(nodes), Submitted: sub, Started: start, Finished: fin}
		makespan = math.Max(makespan, fin)
	}
	if rng.Intn(3) == 0 {
		makespan += draw(10) // idle tail after the last finish
	}
	return done, makespan
}

// TestStreamStatsMatchesReference pins StreamStats to the reference on
// seeded streams with tied timestamps: identical QueueStats, field for
// field, when every sum is exact. On arbitrary float times the two sum
// in different orders, so the float fields must agree to rounding and
// the integer-valued ones exactly; StreamStats itself must be
// bit-identical call to call.
func TestStreamStatsMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, nodes := 1+rng.Intn(120), 1+rng.Intn(9)
		done, makespan := randomCompletions(rng, n, nodes, 0.25)
		got, want := StreamStats(done, nodes, makespan), streamStatsReference(done, nodes, makespan)
		if got != want {
			t.Fatalf("seed %d (grid): StreamStats %+v\nreference %+v", seed, got, want)
		}

		done, makespan = randomCompletions(rng, n, nodes, 0)
		got, want = StreamStats(done, nodes, makespan), streamStatsReference(done, nodes, makespan)
		if again := StreamStats(done, nodes, makespan); again != got {
			t.Fatalf("seed %d: StreamStats not deterministic: %+v then %+v", seed, got, again)
		}
		near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }
		if !near(got.Utilization, want.Utilization) || !near(got.MeanQueueLen, want.MeanQueueLen) {
			t.Fatalf("seed %d (float): utilization/mean %v/%v, reference %v/%v",
				seed, got.Utilization, got.MeanQueueLen, want.Utilization, want.MeanQueueLen)
		}
		got.Utilization, got.MeanQueueLen = want.Utilization, want.MeanQueueLen
		if got != want {
			t.Fatalf("seed %d (float): StreamStats %+v\nreference %+v", seed, got, want)
		}
	}
}
