package core

import "sync/atomic"

// obsKey identifies one interned Observation process-wide: the owning
// table's generation in the high 32 bits, the dense index in the low 32.
// Zero means "not interned" — generations start at 1, so no table ever
// hands it out.
type obsKey uint64

// obsGen hands out table generations. Two tables never share one, so a
// memo that outlives or spans schedulers (a MemoSTP shared by two of
// them) can never see two different observations under one key.
var obsGen atomic.Uint32

// obsTable interns a scheduler's observations: each entry gets a dense
// index at submission, and the online pipeline carries that index — in
// the arrival ring, the classify memo, the steady-solve memo and the
// MemoSTP key — instead of copying and hashing the 272-byte value.
// Entries are never removed: an id lives as long as its table, which
// lives as long as the scheduler that owns it. The table is written
// only by the router's Submit and is read-only while shards run.
type obsTable struct {
	gen uint32
	obs []Observation
}

func newObsTable() *obsTable { return &obsTable{gen: obsGen.Add(1)} }

// add appends o as a fresh entry — no lookup, no hashing — stamps it
// with its key, and returns its index.
func (t *obsTable) add(o Observation) uint32 {
	i := uint32(len(t.obs))
	o.key = obsKey(uint64(t.gen)<<32 | uint64(i))
	t.obs = append(t.obs, o)
	return i
}
