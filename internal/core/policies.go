package core

import (
	"fmt"
	"math"
	"sort"

	"ecost/internal/mapreduce"
)

// Policy is one of the application mapping policies of the scalability
// study (§8).
type Policy int

// The studied mapping policies.
const (
	SM    Policy = iota // serial: each app alone on the whole cluster, untuned
	MNM1                // two apps in parallel, each on half the nodes, untuned
	MNM2                // four apps in parallel, each on a quarter of the nodes, untuned
	SNM                 // each app alone on a single node (8 cores), untuned
	CBM                 // pairs co-located, 4+4 cores, untuned
	PTM                 // no pairing; STP-tuned solo configs
	ECoST               // decision-tree pairing + STP tuning (the paper's system)
	UB                  // brute-force best pairing and tuning (upper bound)
)

// String returns the paper's policy label.
func (p Policy) String() string {
	switch p {
	case SM:
		return "SM"
	case MNM1:
		return "MNM1"
	case MNM2:
		return "MNM2"
	case SNM:
		return "SNM"
	case CBM:
		return "CBM"
	case PTM:
		return "PTM"
	case ECoST:
		return "ECoST"
	case UB:
		return "UB"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Policies lists all mapping policies in the paper's presentation order.
func Policies() []Policy { return []Policy{SM, MNM1, MNM2, SNM, CBM, PTM, ECoST, UB} }

// NTConfig is the untuned default configuration the [NT] policies run
// with: the stock performance governor at maximum frequency, Hadoop's
// default 128 MB block size, and the given mapper count.
func NTConfig(mappers int) mapreduce.Config {
	return mapreduce.Config{Freq: 2.4, Block: 128, Mappers: mappers}
}

// Result is the cluster-level outcome of running a workload under one
// policy: total energy across all nodes over the cluster makespan
// (idle nodes burn idle power until the last node finishes), and the
// resulting EDP.
type Result struct {
	Policy   Policy
	Nodes    int
	EnergyJ  float64
	Makespan float64
	EDP      float64
}

// PolicyRunner evaluates workload scenarios under the mapping policies.
type PolicyRunner struct {
	Oracle   *Oracle
	DB       *Database // required for PTM and ECoST
	Tuner    STP       // required for ECoST (PTM uses the database's solo entries)
	Profiler *Profiler // observes incoming jobs for classification/tuning

	// SizeAware enables the size-aware pairing extension: among
	// same-class candidates ECoST prefers duration-matched partners
	// (see WaitQueue.SelectPartnerSized). Off by default — the paper's
	// decision tree considers class only.
	SizeAware bool
}

// unit is one scheduled execution: some applications sharing one node
// (or one app spread over several nodes) for a stretch of time.
type unit struct {
	time    float64
	energyJ float64 // total energy across the unit's nodes while it runs
	nodes   int
}

// lane is a group of nodes processing units serially.
type lane struct {
	nodes int
	units []unit
}

func (l lane) busy() float64 {
	var t float64
	for _, u := range l.units {
		t += u.time
	}
	return t
}

// aggregate folds lanes into a cluster Result: the makespan is the
// longest lane; every lane's nodes burn idle power after it drains.
func (r *PolicyRunner) aggregate(p Policy, nodes int, lanes []lane) Result {
	res := Result{Policy: p, Nodes: nodes}
	idleW := r.Oracle.Model.Spec.IdleWatts
	for _, l := range lanes {
		if b := l.busy(); b > res.Makespan {
			res.Makespan = b
		}
	}
	for _, l := range lanes {
		for _, u := range l.units {
			res.EnergyJ += u.energyJ
		}
		res.EnergyJ += float64(l.nodes) * idleW * (res.Makespan - l.busy())
	}
	res.EDP = res.EnergyJ * res.Makespan
	return res
}

// soloUnit runs one app alone across `nodes` nodes (data split evenly).
func (r *PolicyRunner) soloUnit(j JobSpec, nodes int, cfg mapreduce.Config) (unit, error) {
	_, co, err := r.Oracle.Model.Solo(mapreduce.RunSpec{
		App: j.App, DataMB: j.SizeGB * 1024 / float64(nodes), Cfg: cfg,
	})
	if err != nil {
		return unit{}, err
	}
	return unit{time: co.Makespan, energyJ: co.EnergyJ * float64(nodes), nodes: nodes}, nil
}

// pairUnit co-locates two apps on one node at the given configs.
func (r *PolicyRunner) pairUnit(a, b JobSpec, cfg [2]mapreduce.Config) (unit, error) {
	co, err := r.Oracle.EvalPair(a.App, a.SizeGB*1024, b.App, b.SizeGB*1024, cfg)
	if err != nil {
		return unit{}, err
	}
	return unit{time: co.Makespan, energyJ: co.EnergyJ, nodes: 1}, nil
}

// Run evaluates the workload under the policy on an n-node cluster.
func (r *PolicyRunner) Run(p Policy, wl Workload, nodes int) (Result, error) {
	if nodes < 1 {
		return Result{}, fmt.Errorf("core: policy %v: need at least one node", p)
	}
	if len(wl.Jobs) == 0 {
		return Result{}, fmt.Errorf("core: policy %v: empty workload", p)
	}
	switch p {
	case SM:
		return r.runSpread(p, wl, nodes, 1)
	case MNM1:
		return r.runSpread(p, wl, nodes, min2(2, nodes))
	case MNM2:
		return r.runSpread(p, wl, nodes, min2(4, nodes))
	case SNM:
		return r.runPerNodeSolo(p, wl, nodes, nil)
	case PTM:
		return r.runPerNodeSolo(p, wl, nodes, r.predictSoloCfg)
	case CBM:
		return r.runCBM(wl, nodes)
	case ECoST:
		return r.runECoST(wl, nodes)
	case UB:
		return r.runUB(wl, nodes)
	default:
		return Result{}, fmt.Errorf("core: unknown policy %v", p)
	}
}

func min2(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// runSpread implements SM/MNM1/MNM2: `streams` groups of nodes process
// applications in parallel; each application uses its whole group.
func (r *PolicyRunner) runSpread(p Policy, wl Workload, nodes, streams int) (Result, error) {
	if streams > nodes {
		streams = nodes
	}
	per := nodes / streams
	lanes := make([]lane, streams)
	for i := range lanes {
		lanes[i].nodes = per
	}
	// Account for nodes left over by uneven division as an idle lane.
	if rem := nodes - streams*per; rem > 0 {
		lanes = append(lanes, lane{nodes: rem})
	}
	for i, j := range wl.Jobs {
		u, err := r.soloUnit(j, per, NTConfig(r.Oracle.Model.Spec.Cores))
		if err != nil {
			return Result{}, err
		}
		lanes[i%streams].units = append(lanes[i%streams].units, u)
	}
	return r.aggregate(p, nodes, lanes), nil
}

// runPerNodeSolo implements SNM (cfg == nil → untuned) and PTM
// (cfg picks a tuned configuration per job).
func (r *PolicyRunner) runPerNodeSolo(p Policy, wl Workload, nodes int, cfgFn func(JobSpec) (mapreduce.Config, error)) (Result, error) {
	lanes := make([]lane, nodes)
	for i := range lanes {
		lanes[i].nodes = 1
	}
	for i, j := range wl.Jobs {
		cfg := NTConfig(r.Oracle.Model.Spec.Cores)
		if cfgFn != nil {
			c, err := cfgFn(j)
			if err != nil {
				return Result{}, err
			}
			cfg = c
		}
		u, err := r.soloUnit(j, 1, cfg)
		if err != nil {
			return Result{}, err
		}
		lanes[i%nodes].units = append(lanes[i%nodes].units, u)
	}
	return r.aggregate(p, nodes, lanes), nil
}

// predictSoloCfg asks the database for the solo-optimal configuration of
// the known application most resembling the observed job.
func (r *PolicyRunner) predictSoloCfg(j JobSpec) (mapreduce.Config, error) {
	if r.DB == nil || r.Profiler == nil {
		return mapreduce.Config{}, fmt.Errorf("core: PTM needs a database and profiler")
	}
	obs, err := r.Profiler.Observe(j.App, j.SizeGB)
	if err != nil {
		return mapreduce.Config{}, err
	}
	return PredictSoloBest(obs, r.DB)
}

// runCBM co-locates arrival-order pairs with an even 4/4 core split,
// untuned otherwise.
func (r *PolicyRunner) runCBM(wl Workload, nodes int) (Result, error) {
	half := r.Oracle.Model.Spec.Cores / 2
	lanes := make([]lane, nodes)
	for i := range lanes {
		lanes[i].nodes = 1
	}
	li := 0
	for i := 0; i+1 < len(wl.Jobs); i += 2 {
		cfg := [2]mapreduce.Config{NTConfig(half), NTConfig(half)}
		u, err := r.pairUnit(wl.Jobs[i], wl.Jobs[i+1], cfg)
		if err != nil {
			return Result{}, err
		}
		lanes[li%nodes].units = append(lanes[li%nodes].units, u)
		li++
	}
	if len(wl.Jobs)%2 == 1 {
		u, err := r.soloUnit(wl.Jobs[len(wl.Jobs)-1], 1, NTConfig(half))
		if err != nil {
			return Result{}, err
		}
		lanes[li%nodes].units = append(lanes[li%nodes].units, u)
	}
	return r.aggregate(CBM, nodes, lanes), nil
}

// runECoST is the paper's system: profile and classify the incoming
// jobs, pair them with the Figure-4 decision tree over the wait queue
// (head reservation + small-job leap-forward), tune each pair with the
// STP technique, and dispatch pairs to the least-loaded node.
func (r *PolicyRunner) runECoST(wl Workload, nodes int) (Result, error) {
	if r.DB == nil || r.Tuner == nil || r.Profiler == nil {
		return Result{}, fmt.Errorf("core: ECoST needs a database, tuner and profiler")
	}
	q := NewWaitQueue()
	for i, j := range wl.Jobs {
		obs, err := r.Profiler.Observe(j.App, j.SizeGB)
		if err != nil {
			return Result{}, err
		}
		cls := r.DB.Classifier().Classify(obs)
		// Rough runtime estimate for the leap-forward smallness test:
		// scale the profiling-config run time by data size.
		est := obs.SizeGB
		q.Push(&Job{ID: i, Obs: obs, Class: cls, EstTime: est})
	}

	lanes := make([]lane, nodes)
	for i := range lanes {
		lanes[i].nodes = 1
	}
	dispatch := func(u unit) {
		// Least-loaded node first.
		best := 0
		for i := 1; i < nodes; i++ {
			if lanes[i].busy() < lanes[best].busy() {
				best = i
			}
		}
		lanes[best].units = append(lanes[best].units, u)
	}

	for q.Len() > 0 {
		a := q.PopHead()
		var partner *Job
		if r.SizeAware {
			partner = q.SelectPartnerSized(a.Class, a.EstTime, r.DB.PartnerPriority(a.Class))
		} else {
			partner = q.SelectPartner(a.Class, r.DB.PartnerPriority(a.Class))
		}
		if partner == nil {
			cfg, err := PredictSoloBest(a.Obs, r.DB)
			if err != nil {
				return Result{}, err
			}
			u, err := r.soloUnit(JobSpec{App: a.Obs.App, SizeGB: a.Obs.SizeGB}, 1, cfg)
			if err != nil {
				return Result{}, err
			}
			dispatch(u)
			continue
		}
		b, err := q.Take(partner.ID)
		if err != nil {
			return Result{}, err
		}
		cfg, err := r.Tuner.PredictBest(a.Obs, b.Obs)
		if err != nil {
			return Result{}, err
		}
		u, err := r.pairUnit(
			JobSpec{App: a.Obs.App, SizeGB: a.Obs.SizeGB},
			JobSpec{App: b.Obs.App, SizeGB: b.Obs.SizeGB},
			cfg,
		)
		if err != nil {
			return Result{}, err
		}
		dispatch(u)
	}
	return r.aggregate(ECoST, nodes, lanes), nil
}

// runUB is the brute-force upper bound: a minimum-weight perfect
// matching over the jobs (weights = COLAO-optimal pair EDP, bitmask DP)
// with every pair at its COLAO configuration, dispatched longest-first.
func (r *PolicyRunner) runUB(wl Workload, nodes int) (Result, error) {
	n := len(wl.Jobs)
	if n > 20 {
		return Result{}, fmt.Errorf("core: UB matching supports ≤20 jobs, got %d", n)
	}
	// Pair weights from the COLAO oracle (memoized).
	type pairInfo struct {
		out  mapreduce.CoOutcome
		edp  float64
		solo bool
	}
	pairs := make([][]pairInfo, n)
	for i := range pairs {
		pairs[i] = make([]pairInfo, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			best, err := r.Oracle.COLAO(
				wl.Jobs[i].App, wl.Jobs[i].SizeGB*1024,
				wl.Jobs[j].App, wl.Jobs[j].SizeGB*1024,
			)
			if err != nil {
				return Result{}, err
			}
			pairs[i][j] = pairInfo{out: best.Out, edp: best.Out.EDP}
		}
	}
	soloEDP := make([]float64, n)
	soloOut := make([]mapreduce.CoOutcome, n)
	for i := 0; i < n; i++ {
		b, err := r.Oracle.BestSolo(wl.Jobs[i].App, wl.Jobs[i].SizeGB*1024)
		if err != nil {
			return Result{}, err
		}
		soloEDP[i] = b.Out.EDP
		soloOut[i] = b.Out
	}

	// Bitmask DP for the minimum-total-EDP matching (solo allowed, so odd
	// workloads are handled too, but pairing is strictly better when the
	// model says so).
	full := 1 << n
	const inf = math.MaxFloat64
	dp := make([]float64, full)
	choice := make([]int, full) // encodes (i<<8|j), j==0xFF for solo
	for m := 1; m < full; m++ {
		dp[m] = inf
	}
	for m := 1; m < full; m++ {
		i := 0
		for ; i < n; i++ {
			if m&(1<<i) != 0 {
				break
			}
		}
		// i solo:
		rest := m &^ (1 << i)
		if c := dp[rest] + soloEDP[i]; c < dp[m] {
			dp[m] = c
			choice[m] = i<<8 | 0xFF
		}
		for j := i + 1; j < n; j++ {
			if m&(1<<j) == 0 {
				continue
			}
			rest := m &^ (1 << i) &^ (1 << j)
			if c := dp[rest] + pairs[i][j].edp; c < dp[m] {
				dp[m] = c
				choice[m] = i<<8 | j
			}
		}
	}

	// Reconstruct units.
	var units []unit
	for m := full - 1; m != 0; {
		c := choice[m]
		i, j := c>>8, c&0xFF
		if j == 0xFF {
			units = append(units, unit{time: soloOut[i].Makespan, energyJ: soloOut[i].EnergyJ, nodes: 1})
			m &^= 1 << i
		} else {
			out := pairs[i][j].out
			units = append(units, unit{time: out.Makespan, energyJ: out.EnergyJ, nodes: 1})
			m &^= 1 << i
			m &^= 1 << j
		}
	}

	// Longest-processing-time-first dispatch over the nodes.
	sort.Slice(units, func(a, b int) bool { return units[a].time > units[b].time })
	lanes := make([]lane, nodes)
	for i := range lanes {
		lanes[i].nodes = 1
	}
	for _, u := range units {
		best := 0
		for i := 1; i < nodes; i++ {
			if lanes[i].busy() < lanes[best].busy() {
				best = i
			}
		}
		lanes[best].units = append(lanes[best].units, u)
	}
	return r.aggregate(UB, nodes, lanes), nil
}
