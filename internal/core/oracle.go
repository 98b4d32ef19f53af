package core

import (
	"fmt"
	"hash/maphash"
	"math"
	"sync"

	"ecost/internal/mapreduce"
	"ecost/internal/workloads"
)

// SoloBest is the result of tuning one application in isolation: the
// configuration minimizing its standalone EDP (the per-application step
// of ILAO).
type SoloBest struct {
	Cfg mapreduce.Config
	Out mapreduce.CoOutcome
}

// PairBest is the result of the COLAO brute-force search for one
// co-located pair: the joint configuration minimizing node EDP.
type PairBest struct {
	Cfg [2]mapreduce.Config
	Out mapreduce.CoOutcome
}

// Oracle runs the brute-force searches of the paper (§4.2) against the
// execution model, memoizing results: the full COLAO search for a pair
// covers every joint knob setting with m1+m2 ≤ cores (the study's
// 84,480-run budget collapses to milliseconds on the analytic model).
//
// The oracle is safe for concurrent use: memoization is sharded (one
// mutex per shard, keyed by a hash of the search key) and each key is
// computed at most once — concurrent callers of the same uncached
// search wait for the single in-flight computation instead of
// duplicating an 11,200-point scan.
type Oracle struct {
	Model *mapreduce.Model

	seed   maphash.Seed
	shards [oracleShards]oracleShard
}

// oracleShards is a power of two so shard selection is a mask. 16
// shards keeps contention negligible for the worker-pool sizes the
// database build uses.
const oracleShards = 16

type oracleShard struct {
	mu       sync.Mutex
	solo     map[soloKey]SoloBest
	pair     map[pairKey]PairBest
	soloWait map[soloKey]*inflight[SoloBest]
	pairWait map[pairKey]*inflight[PairBest]
}

// inflight is one in-progress search other goroutines can wait on
// (a minimal per-key singleflight).
type inflight[V any] struct {
	done chan struct{}
	v    V
	err  error
}

type soloKey struct {
	app  string
	data float64
}

type pairKey struct {
	appA  string
	dataA float64
	appB  string
	dataB float64
}

func canonPair(a workloads.App, dataA float64, b workloads.App, dataB float64) (pairKey, bool) {
	if a.Name < b.Name || (a.Name == b.Name && dataA <= dataB) {
		return pairKey{a.Name, dataA, b.Name, dataB}, false
	}
	return pairKey{b.Name, dataB, a.Name, dataA}, true
}

// NewOracle returns a memoizing oracle over the given model.
func NewOracle(m *mapreduce.Model) *Oracle {
	o := &Oracle{Model: m, seed: maphash.MakeSeed()}
	for i := range o.shards {
		o.shards[i] = oracleShard{
			solo:     make(map[soloKey]SoloBest),
			pair:     make(map[pairKey]PairBest),
			soloWait: make(map[soloKey]*inflight[SoloBest]),
			pairWait: make(map[pairKey]*inflight[PairBest]),
		}
	}
	return o
}

func (o *Oracle) soloShard(k soloKey) *oracleShard {
	var h maphash.Hash
	h.SetSeed(o.seed)
	h.WriteString(k.app)
	return &o.shards[h.Sum64()&(oracleShards-1)]
}

func (o *Oracle) pairShard(k pairKey) *oracleShard {
	var h maphash.Hash
	h.SetSeed(o.seed)
	h.WriteString(k.appA)
	h.WriteString(k.appB)
	return &o.shards[h.Sum64()&(oracleShards-1)]
}

// BestSolo exhaustively tunes one application running alone.
func (o *Oracle) BestSolo(app workloads.App, dataMB float64) (SoloBest, error) {
	k := soloKey{app.Name, dataMB}
	sh := o.soloShard(k)
	sh.mu.Lock()
	if b, ok := sh.solo[k]; ok {
		sh.mu.Unlock()
		return b, nil
	}
	if c, ok := sh.soloWait[k]; ok {
		sh.mu.Unlock()
		<-c.done
		return c.v, c.err
	}
	c := &inflight[SoloBest]{done: make(chan struct{})}
	sh.soloWait[k] = c
	sh.mu.Unlock()

	c.v, c.err = o.searchSolo(app, dataMB)
	sh.mu.Lock()
	if c.err == nil {
		sh.solo[k] = c.v
	}
	delete(sh.soloWait, k)
	sh.mu.Unlock()
	close(c.done)
	return c.v, c.err
}

// searchSolo scans the standalone tuning space (160 points) with a
// reused evaluator, then realizes the winner's full outcome.
func (o *Oracle) searchSolo(app workloads.App, dataMB float64) (SoloBest, error) {
	ev := o.Model.NewEvaluator()
	cfgs := mapreduce.AllConfigs(o.Model.Spec.Cores)
	bestIdx := -1
	bestEDP := math.Inf(1)
	for i, cfg := range cfgs {
		cm, err := ev.SoloMetrics(mapreduce.RunSpec{App: app, DataMB: dataMB, Cfg: cfg})
		if err != nil {
			return SoloBest{}, fmt.Errorf("core: solo oracle %s: %w", app.Name, err)
		}
		if cm.EDP < bestEDP {
			bestEDP = cm.EDP
			bestIdx = i
		}
	}
	if bestIdx < 0 {
		return SoloBest{}, fmt.Errorf("core: solo oracle %s: empty configuration space", app.Name)
	}
	co, err := ev.Solo(mapreduce.RunSpec{App: app, DataMB: dataMB, Cfg: cfgs[bestIdx]})
	if err != nil {
		return SoloBest{}, fmt.Errorf("core: solo oracle %s: %w", app.Name, err)
	}
	return SoloBest{Cfg: cfgs[bestIdx], Out: co}, nil
}

// ILAO evaluates the individually-located application optimization
// baseline for a pair: each application is tuned alone and the pair runs
// serially, so the workload's energy is the sum and its delay the sum.
func (o *Oracle) ILAO(a workloads.App, dataA float64, b workloads.App, dataB float64) (edp float64, cfgs [2]mapreduce.Config, err error) {
	ba, err := o.BestSolo(a, dataA)
	if err != nil {
		return 0, cfgs, err
	}
	bb, err := o.BestSolo(b, dataB)
	if err != nil {
		return 0, cfgs, err
	}
	energy := ba.Out.EnergyJ + bb.Out.EnergyJ
	delay := ba.Out.Makespan + bb.Out.Makespan
	return energy * delay, [2]mapreduce.Config{ba.Cfg, bb.Cfg}, nil
}

// COLAO evaluates the co-located application optimization oracle: a
// brute-force search over the joint configuration space for the pair.
func (o *Oracle) COLAO(a workloads.App, dataA float64, b workloads.App, dataB float64) (PairBest, error) {
	k, swapped := canonPair(a, dataA, b, dataB)
	sh := o.pairShard(k)
	sh.mu.Lock()
	if best, ok := sh.pair[k]; ok {
		sh.mu.Unlock()
		return unswap(best, swapped), nil
	}
	if c, ok := sh.pairWait[k]; ok {
		sh.mu.Unlock()
		<-c.done
		if c.err != nil {
			return PairBest{}, c.err
		}
		return unswap(c.v, swapped), nil
	}
	c := &inflight[PairBest]{done: make(chan struct{})}
	sh.pairWait[k] = c
	sh.mu.Unlock()

	ca, cb := a, b
	da, db := dataA, dataB
	if swapped {
		ca, cb, da, db = b, a, dataB, dataA
	}
	c.v, c.err = o.searchPair(ca, da, cb, db)
	sh.mu.Lock()
	if c.err == nil {
		sh.pair[k] = c.v
	}
	delete(sh.pairWait, k)
	sh.mu.Unlock()
	close(c.done)
	if c.err != nil {
		return PairBest{}, c.err
	}
	return unswap(c.v, swapped), nil
}

// searchPairChunk is the batch granularity of the COLAO scan: small
// enough that a worker's metric buffer stays cache-resident, large
// enough to amortize the loop bookkeeping.
const searchPairChunk = 512

// searchPair scans the 11,200-point joint configuration space in
// searchPairChunk-sized chunks over forEach (the execution model is
// pure, so the scan is embarrassingly parallel). Each worker sweeps its
// chunks through a reused Evaluator via PairBatch — zero allocations per
// configuration — and keeps each chunk's argmin; the merge walks the
// chunks in index order and breaks EDP ties by configuration index, so
// the result is bit-identical to the serial scan at any GOMAXPROCS.
func (o *Oracle) searchPair(a workloads.App, dataA float64, b workloads.App, dataB float64) (PairBest, error) {
	pcs := mapreduce.PairConfigsCached(o.Model.Spec.Cores)
	type localBest struct {
		idx  int
		err  error
		edp  float64
		seen bool
	}
	results := make([]localBest, (len(pcs)+searchPairChunk-1)/searchPairChunk)
	specA := mapreduce.RunSpec{App: a, DataMB: dataA}
	specB := mapreduce.RunSpec{App: b, DataMB: dataB}
	forEach(len(results), func() func(int) {
		ev := o.Model.NewEvaluator()
		return func(c int) {
			var buf [searchPairChunk]mapreduce.CoMetrics
			start := c * searchPairChunk
			out := buf[:min(len(pcs)-start, searchPairChunk)]
			if err := ev.PairBatch(specA, specB, pcs[start:start+len(out)], out); err != nil {
				results[c] = localBest{err: err}
				return
			}
			lb := localBest{edp: math.Inf(1)}
			for j, cm := range out {
				if cm.EDP < lb.edp {
					lb = localBest{idx: start + j, edp: cm.EDP, seen: true}
				}
			}
			results[c] = lb
		}
	})
	merged := localBest{edp: math.Inf(1)}
	for _, lb := range results {
		if lb.err != nil {
			return PairBest{}, fmt.Errorf("core: COLAO %s+%s: %w", a.Name, b.Name, lb.err)
		}
		if !lb.seen {
			continue
		}
		if lb.edp < merged.edp || (lb.edp == merged.edp && merged.seen && lb.idx < merged.idx) {
			merged = lb
		}
	}
	if !merged.seen {
		return PairBest{}, fmt.Errorf("core: COLAO %s+%s: empty configuration space", a.Name, b.Name)
	}
	specA.Cfg, specB.Cfg = pcs[merged.idx][0], pcs[merged.idx][1]
	co, err := o.Model.Pair(specA, specB)
	if err != nil {
		return PairBest{}, fmt.Errorf("core: COLAO %s+%s: %w", a.Name, b.Name, err)
	}
	return PairBest{Cfg: pcs[merged.idx], Out: co}, nil
}

func unswap(b PairBest, swapped bool) PairBest {
	if !swapped {
		return b
	}
	b.Cfg[0], b.Cfg[1] = b.Cfg[1], b.Cfg[0]
	if len(b.Out.Apps) == 2 {
		apps := make([]mapreduce.Outcome, 2)
		apps[0], apps[1] = b.Out.Apps[1], b.Out.Apps[0]
		b.Out.Apps = apps
	}
	return b
}

// EvalPair runs the pair at a given joint configuration (used to score
// STP-predicted configurations against the oracle).
func (o *Oracle) EvalPair(a workloads.App, dataA float64, b workloads.App, dataB float64, cfg [2]mapreduce.Config) (mapreduce.CoOutcome, error) {
	return o.Model.Pair(
		mapreduce.RunSpec{App: a, DataMB: dataA, Cfg: cfg[0]},
		mapreduce.RunSpec{App: b, DataMB: dataB, Cfg: cfg[1]},
	)
}

// CachedPairs reports how many COLAO searches have been memoized.
func (o *Oracle) CachedPairs() int {
	n := 0
	for i := range o.shards {
		sh := &o.shards[i]
		sh.mu.Lock()
		n += len(sh.pair)
		sh.mu.Unlock()
	}
	return n
}
