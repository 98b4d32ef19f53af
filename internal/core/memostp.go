package core

import (
	"sync"
	"sync/atomic"

	"ecost/internal/mapreduce"
	"ecost/internal/metrics"
)

// MemoSTP memoizes an STP technique's predictions keyed by the pair of
// interned observation ids. Recurring jobs have recurring resource
// profiles (arXiv:1303.3632, arXiv:1301.4753); whenever the same two
// observations are paired again — recurring tenants under the sharded
// router's ProfileMemo, replayed traces, or any caller re-asking for a
// pair it already tuned — the cache answers in one lookup of a 16-byte
// key instead of a database scan or an argmin sweep.
//
// An online scheduler interns every observation at submission (see
// obsTable), so equal ids mean the same observation. The key carries
// the owning table's process-unique generation, so a MemoSTP shared by
// two schedulers can never confuse their ids. With the noise-model
// profiler each arrival is interned fresh and the cache stays cold — at
// the cost of one lookup per miss, negligible next to the prediction.
// An observation that was never interned (a caller-built value) has no
// key and passes straight to the inner technique, uncached.
//
// The wrapper is transparent: it returns whatever the inner technique
// returned for the first occurrence of a key (inner techniques are
// deterministic, so the cached answer is the answer), forwards Name,
// and exposes the full ExpectingSTP surface via the same
// predictExpected dispatch the scheduler uses — stack it under
// MeteredSTP (NewMeteredSTP(NewMemoSTP(inner, reg), model, reg)) and
// every deterministic metric, audit forecast, and tuning decision is
// bit-identical to the unmemoized run. Hit/miss counters are volatile
// (implementation-effort telemetry), so deterministic snapshots do not
// see the cache either.
//
// The cache is sharded: one mutex per shard picked by a mix of the two
// keys, so concurrent callers do not serialize on a single lock. There
// is no singleflight — the online event loop is single-threaded, and
// for concurrent callers recomputing a prediction is cheap enough that
// waiting infrastructure would cost more than it saves.
type MemoSTP struct {
	Inner STP

	shards [memoShards]memoShard

	hits   *metrics.Counter
	misses *metrics.Counter

	// nhits/nmisses are the deterministic shadow counts the flight
	// recorder samples at epoch barriers. Unlike the volatile registry
	// counters above, their totals are a pure function of the query
	// stream (atomics only order concurrent sweeps; the sum is
	// order-independent), so epoch records stay byte-identical.
	nhits   atomic.Int64
	nmisses atomic.Int64
}

// memoShards is a power of two so shard selection is a shift.
const memoShards = 16

// memoShardCap bounds each shard's entry count; a full shard is
// cleared wholesale (the workload stream's working set is tiny — the
// cap only guards unbounded growth under adversarial churn).
const memoShardCap = 4096

type memoShard struct {
	mu sync.Mutex
	m  map[memoPairKey]memoResult
}

// memoPairKey is the ordered pair of interned observation keys.
type memoPairKey struct{ a, b obsKey }

type memoResult struct {
	cfg [2]mapreduce.Config
	exp PairExpectation
	err error
}

// NewMemoSTP wraps inner with a sharded memoization cache, registering
// volatile hit/miss counters in reg (nil disables the counters only —
// the cache itself always works).
func NewMemoSTP(inner STP, reg *metrics.Registry) *MemoSTP {
	m := &MemoSTP{
		Inner:  inner,
		hits:   reg.VolatileCounter("stp.memo.hits"),
		misses: reg.VolatileCounter("stp.memo.misses"),
	}
	for i := range m.shards {
		m.shards[i].m = make(map[memoPairKey]memoResult)
	}
	return m
}

// Name implements STP.
func (m *MemoSTP) Name() string { return m.Inner.Name() }

// HitMiss reports the deterministic cumulative cache hit/miss counts.
func (m *MemoSTP) HitMiss() (hits, misses int64) {
	return m.nhits.Load(), m.nmisses.Load()
}

// shard picks the key's lock shard from the top bits of a
// multiplicative mix of both ids.
func (m *MemoSTP) shard(k memoPairKey) *memoShard {
	h := (uint64(k.a)*0x9E3779B97F4A7C15 ^ uint64(k.b)) * 0xBF58476D1CE4E5B9
	return &m.shards[h>>(64-4)]
}

// PredictBest implements STP.
func (m *MemoSTP) PredictBest(a, b Observation) ([2]mapreduce.Config, error) {
	cfg, _, err := m.predict(&a, &b)
	return cfg, err
}

// PredictBestExpected implements ExpectingSTP. Both prediction entry
// points share this one cache: the stored value carries the richest
// answer the inner technique exposes (predictExpected's graceful
// degradation), so a PredictBest after a PredictBestExpected of the
// same pair — or vice versa — hits.
func (m *MemoSTP) PredictBestExpected(a, b Observation) ([2]mapreduce.Config, PairExpectation, error) {
	return m.predict(&a, &b)
}

// predict is the shared lookup. It takes pointers so the scheduler's
// hit path never copies the observations; only a miss materializes the
// values the inner technique's signature takes.
func (m *MemoSTP) predict(a, b *Observation) ([2]mapreduce.Config, PairExpectation, error) {
	if a.key == 0 || b.key == 0 {
		return predictExpected(m.Inner, *a, *b)
	}
	k := memoPairKey{a.key, b.key}
	sh := m.shard(k)
	sh.mu.Lock()
	if r, ok := sh.m[k]; ok {
		sh.mu.Unlock()
		m.hits.Inc()
		m.nhits.Add(1)
		return r.cfg, r.exp, r.err
	}
	sh.mu.Unlock()
	m.misses.Inc()
	m.nmisses.Add(1)
	cfg, exp, err := predictExpected(m.Inner, *a, *b)
	sh.mu.Lock()
	if len(sh.m) >= memoShardCap {
		clear(sh.m)
	}
	sh.m[k] = memoResult{cfg: cfg, exp: exp, err: err}
	sh.mu.Unlock()
	return cfg, exp, err
}
