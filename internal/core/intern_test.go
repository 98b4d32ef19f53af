package core

import (
	"slices"
	"testing"

	"ecost/internal/sim"
)

// internStream is a recurring stream over the WS4 job list: rounds
// passes, jobs in list order (reversed when reverse is set), four
// arrivals per instant so nodes pair and the tuner is asked.
func internStream(t *testing.T, rounds int, reverse bool) []JobSpec {
	t.Helper()
	wl, err := Scenario("WS4")
	if err != nil {
		t.Fatal(err)
	}
	jobs := slices.Clone(wl.Jobs)
	if reverse {
		slices.Reverse(jobs)
	}
	var out []JobSpec
	for r := 0; r < rounds; r++ {
		out = append(out, jobs...)
	}
	return out
}

// TestObservationInterning pins the id rules: under ProfileMemo the
// router interns one observation per distinct (app, size) and every
// recurrence reuses its id; noisy profiling interns one per arrival,
// with no lookup. No shard's classify memo outgrows the table.
func TestObservationInterning(t *testing.T) {
	fixture(t)
	stream := internStream(t, 3, false)
	type appSize struct {
		app  string
		size float64
	}
	distinct := map[appSize]bool{}
	for _, j := range stream {
		distinct[appSize{j.App.Name, j.SizeGB}] = true
	}
	if len(distinct) >= len(stream) {
		t.Fatalf("stream has no recurrences: %d distinct of %d", len(distinct), len(stream))
	}

	for _, memo := range []bool{true, false} {
		c, err := NewShardedScheduler(fix.model, fix.db, NewProfiler(fix.model, sim.NewRNG(5)),
			func() STP { return NewMemoSTP(fix.lkt, nil) }, 4,
			ShardedConfig{Shards: 2, ProfileMemo: memo})
		if err != nil {
			t.Fatal(err)
		}
		for i, j := range stream {
			c.Submit(j.App, j.SizeGB, float64(i/4)*50)
		}
		ids := map[appSize]uint32{}
		for i, a := range c.arrs {
			o := c.table.obs[a.obs]
			k := appSize{o.App.Name, o.SizeGB}
			if k != (appSize{stream[i].App.Name, stream[i].SizeGB}) {
				t.Fatalf("memo %v: arrival %d interned %v, submitted %v", memo, i, k, stream[i])
			}
			if uint32(o.key) != a.obs || o.key>>32 != obsKey(c.table.gen) {
				t.Fatalf("memo %v: entry %d carries key %#x, want gen %d index %d", memo, a.obs, uint64(o.key), c.table.gen, a.obs)
			}
			if prev, ok := ids[k]; ok && memo && prev != a.obs {
				t.Fatalf("ProfileMemo gave %v two ids: %d and %d", k, prev, a.obs)
			}
			ids[k] = a.obs
		}
		want := len(stream)
		if memo {
			want = len(distinct)
		}
		if got := len(c.table.obs); got != want {
			t.Fatalf("memo %v: table holds %d observations, want %d", memo, got, want)
		}
		if _, _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		for i, sh := range c.shards {
			if len(sh.classMemo) > len(c.table.obs) {
				t.Fatalf("memo %v: shard %d classify memo spans %d ids, table %d", memo, i, len(sh.classMemo), len(c.table.obs))
			}
		}
	}
}

// TestMemoSTPSharedAcrossSchedulers shares one MemoSTP between two
// schedulers whose tables assign the same indices to different
// observations (the second stream is the first reversed). The table
// generation in every key keeps their ids apart: each run's completions
// match a run with a private memo, and the shared cache's hits are
// exactly the two private runs' hits — no cross-scheduler hit exists.
func TestMemoSTPSharedAcrossSchedulers(t *testing.T) {
	fixture(t)
	run := func(memo *MemoSTP, reverse bool) []CompletedJob {
		c, err := NewShardedScheduler(fix.model, fix.db, NewProfiler(fix.model, sim.NewRNG(5)),
			func() STP { return memo }, 4, ShardedConfig{Shards: 1, ProfileMemo: true})
		if err != nil {
			t.Fatal(err)
		}
		for i, j := range internStream(t, 3, reverse) {
			c.Submit(j.App, j.SizeGB, float64(i/4)*50)
		}
		if _, _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		return c.Completed()
	}
	privA, privB := NewMemoSTP(fix.lkt, nil), NewMemoSTP(fix.lkt, nil)
	wantA, wantB := run(privA, false), run(privB, true)
	shared := NewMemoSTP(fix.lkt, nil)
	gotA, gotB := run(shared, false), run(shared, true)
	for i, pair := range [][2][]CompletedJob{{gotA, wantA}, {gotB, wantB}} {
		got, want := pair[0], pair[1]
		if len(got) != len(want) {
			t.Fatalf("scheduler %d completed %d jobs under a shared memo, %d alone", i, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("scheduler %d diverged under a shared memo at completion %d:\n got %+v\nwant %+v", i, k, got[k], want[k])
			}
		}
	}
	hA, mA := privA.HitMiss()
	hB, mB := privB.HitMiss()
	h, m := shared.HitMiss()
	if hA == 0 || hB == 0 {
		t.Fatalf("streams never re-asked a pair (hits %d, %d); the test proves nothing", hA, hB)
	}
	if h != hA+hB || m != mA+mB {
		t.Fatalf("shared memo hits/misses %d/%d, private runs %d/%d + %d/%d", h, m, hA, mA, hB, mB)
	}

	// One memo shared by every shard of a stealing scheduler: shards
	// read the router's table and the memo concurrently (run under
	// -race), and the completions match per-shard private memos.
	multi := func(newTuner func() STP) []CompletedJob {
		c, err := NewShardedScheduler(fix.model, fix.db, NewProfiler(fix.model, sim.NewRNG(5)),
			newTuner, 8, ShardedConfig{Shards: 4, Steal: true, ProfileMemo: true})
		if err != nil {
			t.Fatal(err)
		}
		for i, j := range internStream(t, 6, false) {
			c.Submit(j.App, j.SizeGB, float64(i/6)*40)
		}
		if _, _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		return c.Completed()
	}
	shared = NewMemoSTP(fix.lkt, nil)
	got := multi(func() STP { return shared })
	want := multi(func() STP { return NewMemoSTP(fix.lkt, nil) })
	if !slices.Equal(got, want) {
		t.Fatalf("shards sharing one memo diverged from private memos")
	}
}
