// Command perfbench is the repository benchmark: it drives one workload's
// generated arrival stream through the online ECoST pipeline
// (NewShardedScheduler, Submit per arrival, Run, Completed,
// experiments.StreamStats) and prints its metrics, one table line per
// metric and a final one-line JSON result.
//
//	perfbench --workload recurring-sharded --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics of untraced repetitions.
// --trace 1 spends half the time untraced and half traced, and reports
// the per-layer metrics: spans around each call into a layer, a timing
// wrapper under each shard's tune memo, and a metrics registry on each
// shard. Both modes check every repetition's output and exit 1 on any
// mismatch. BENCHMARK.json in the repository root lists the workloads
// and metrics; run.sh builds and runs this command.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"ecost/internal/experiments"
	"ecost/internal/metrics"
	"ecost/internal/trace"
)

// processStart stands in for process start: package variables are
// initialised before main runs.
var processStart = time.Now()

const (
	minUntracedReps = 3
	minTracedReps   = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same arrival stream")
	seconds := fs.Int("seconds", 10, "measured seconds (split evenly between untraced and traced repetitions with --trace 1)")
	traceMode := fs.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics from a traced run")
	traceOut := fs.String("trace-out", "", "Chrome trace file for --trace 1 (default .bench_build/trace-<workload>-seed<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*traceMode != 0 && *traceMode != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0 or 1\n", workloadNames())
		return 2
	}
	perLayer := *traceMode == 1
	if *traceOut == "" {
		*traceOut = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-seed%d.json", w.name, *seed))
	}

	record := runRecord(w, *seed, *seconds, *traceMode)
	fmt.Fprintln(stdout, formatRecord(record))

	m := map[string]float64{}
	envReg := metrics.NewRegistry()
	opt := experiments.FastOptions()
	opt.Metrics = envReg
	env, err := experiments.NewEnv(opt)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: building environment: %v\n", err)
		return 1
	}
	for name, gauge := range map[string]string{
		"experiments.env_db_build_s":      "env.db_build.wall_seconds",
		"experiments.env_train_lr_s":      "env.train.LR.wall_seconds",
		"experiments.env_train_reptree_s": "env.train.REPTree.wall_seconds",
		"experiments.env_train_mlp_s":     "env.train.MLP.wall_seconds",
	} {
		m[name] = envReg.VolatileGauge(gauge).Value()
	}
	genStart := time.Now()
	arrivals, err := w.stream(*seed)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: generating stream: %v\n", err)
		return 1
	}
	m["scenario.generate_s"] = time.Since(genStart).Seconds()
	m["scenario.distinct_obs_share"] = distinctObsShare(arrivals)
	lkt, ok := env.LkT.(expectingSTP)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: LkT technique %T has no forecast entry point\n", env.LkT)
		return 1
	}
	p := pipeline{model: env.Model, db: env.DB, lkt: lkt}

	budget := time.Duration(*seconds) * time.Second
	if perLayer {
		budget /= 2
	}
	c := collector{jobs: len(arrivals)}
	if err := repeat(p, w, arrivals, *seed, modeUntraced, budget, minUntracedReps, c.addUntraced); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	m["setup_s"] = c.first.began.Sub(processStart).Seconds()
	m["peak_rss_mb"] = peakRSSMB()
	if perLayer {
		r, err := drive(p, w, arrivals, *seed, modeCounted)
		if err == nil {
			c.check(r)
			c.queue = r.queue
			err = repeat(p, w, arrivals, *seed, modeTraced, budget, minTracedReps, c.addTraced)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	c.metrics(m, perLayer)

	problems := c.problems
	if err := w.guard(m); err != nil {
		problems = append(problems, err.Error())
	}
	fmt.Fprintf(stdout, "digest %016x over %d repetition(s)\n", c.first.digest, c.reps)
	fmt.Fprintf(stdout, "jobs_per_s over %d untraced repetition(s): p25 %.6g, p50 %.6g, p75 %.6g\n",
		len(c.jobsPerS), quantile(c.jobsPerS, 0.25), quantile(c.jobsPerS, 0.5), quantile(c.jobsPerS, 0.75))
	writeTable(stdout, m)
	if perLayer {
		writeSelfTable(stdout, selfTimes(c.last.driver, c.last.shards))
		runID := fmt.Sprintf("%s/seed%d", w.name, *seed)
		if err := os.MkdirAll(filepath.Dir(*traceOut), 0o755); err != nil {
			problems = append(problems, fmt.Sprintf("trace export: %v", err))
		} else if err := writeChromeTrace(*traceOut, runID, record, c.last.driver, c.last.shards); err != nil {
			problems = append(problems, fmt.Sprintf("trace export: %v", err))
		} else {
			fmt.Fprintf(stdout, "trace written to %s\n", *traceOut)
		}
	}
	for _, pr := range problems {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", pr)
	}
	res := result{Correct: len(problems) == 0, Attempted: c.attempted, Failed: c.failed}
	if err := writeResult(stdout, res, m, perLayer); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// repeat drives repetitions until budget has passed and at least minReps
// have run, handing each to add.
func repeat(p pipeline, w workload, arrivals []trace.Arrival, seed int64, md mode, budget time.Duration, minReps int, add func(rep)) error {
	start := time.Now()
	for n := 0; n < minReps || time.Since(start) < budget; n++ {
		r, err := drive(p, w, arrivals, seed, md)
		if err != nil {
			return err
		}
		add(r)
	}
	return nil
}

// collector folds repetitions into metrics and checks every repetition
// against the first: same digest, same tune-memo counts.
type collector struct {
	jobs        int // per repetition
	first, last rep
	reps        int
	attempted   int
	failed      int
	problems    []string
	queue       queueCounters

	jobsPerS, cpuPerWall, allocPerJob, mallocsPerJob, gcCycles []float64

	tracedJobsPerS, submitS, runS, completedS, statsS, tuneMissS, unattributed []float64
	submitNS, tuneMissNS                                                       []float64
}

func (c *collector) check(r rep) {
	c.reps++
	c.attempted += c.jobs
	c.problems = append(c.problems, r.problems...)
	c.failed += r.failed
	if c.reps == 1 {
		c.first = r
		return
	}
	if r.digest != c.first.digest {
		c.problems = append(c.problems, fmt.Sprintf("repetition %d digest %016x != first %016x", c.reps, r.digest, c.first.digest))
	}
	if r.hits != c.first.hits || r.misses != c.first.misses {
		c.problems = append(c.problems, fmt.Sprintf("repetition %d tune hits/misses %d/%d != first %d/%d",
			c.reps, r.hits, r.misses, c.first.hits, c.first.misses))
	}
}

func (c *collector) addUntraced(r rep) {
	c.check(r)
	jobs := float64(c.jobs)
	c.jobsPerS = append(c.jobsPerS, jobs/r.wall.Seconds())
	c.cpuPerWall = append(c.cpuPerWall, r.runCPU.Seconds()/r.runWall.Seconds())
	c.allocPerJob = append(c.allocPerJob, float64(r.allocBytes)/jobs)
	c.mallocsPerJob = append(c.mallocsPerJob, float64(r.mallocs)/jobs)
	c.gcCycles = append(c.gcCycles, float64(r.gcCycles))
}

func (c *collector) addTraced(r rep) {
	c.check(r)
	c.last = r // the last traced repetition is exported
	jobs := float64(c.jobs)
	c.tracedJobsPerS = append(c.tracedJobsPerS, jobs/r.wall.Seconds())
	tot := spanTotals(r.driver)
	c.submitS = append(c.submitS, tot[spanSubmit].Seconds())
	c.runS = append(c.runS, tot[spanRun].Seconds())
	c.completedS = append(c.completedS, tot[spanCompleted].Seconds())
	c.statsS = append(c.statsS, tot[spanStats].Seconds())
	c.tuneMissS = append(c.tuneMissS, spanTotals(r.shards...)[spanTuneMiss].Seconds())
	attributed := tot[spanSubmit] + tot[spanRun] + tot[spanCompleted] + tot[spanStats]
	c.unattributed = append(c.unattributed, 1-attributed.Seconds()/tot[spanDrive].Seconds())
	c.submitNS = spanDurations(c.submitNS, spanSubmit, r.driver)
	c.tuneMissNS = spanDurations(c.tuneMissNS, spanTuneMiss, r.shards...)
}

// metrics fills m with every metric the collected repetitions give.
func (c *collector) metrics(m map[string]float64, perLayer bool) {
	r := c.first
	m["jobs_per_s"] = quantile(c.jobsPerS, 0.5)
	m["sim_makespan_s"] = r.makespan
	m["sim_energy_j"] = r.energy
	m["sim_edp_js"] = r.energy * r.makespan
	m["sim_wait_p50_s"] = r.stats.WaitP50
	m["sim_wait_p99_s"] = r.stats.WaitP99
	m["failed_ratio"] = float64(c.failed) / float64(c.attempted)

	m["core.barriers"] = float64(r.barriers.Barriers)
	m["core.windows"] = float64(r.barriers.Windows)
	m["core.window_events"] = float64(r.barriers.WindowEvents)
	m["core.elided_ratio"] = r.barriers.ElidedRatio()
	m["core.steals"] = float64(r.steals)
	m["core.shard_jobs_max_over_mean"] = maxOverMean(r.shardJobs)
	m["core.tune_hits"] = float64(r.hits)
	m["core.tune_misses"] = float64(r.misses)
	m["core.tune_hit_ratio"] = float64(r.hits) / float64(r.hits+r.misses)
	m["core.run_cpu_per_wall"] = quantile(c.cpuPerWall, 0.5)
	m["core.alloc_bytes_per_job"] = quantile(c.allocPerJob, 0.5)
	m["core.mallocs_per_job"] = quantile(c.mallocsPerJob, 0.5)
	m["core.gc_cycles"] = quantile(c.gcCycles, 0.5)
	if !perLayer {
		return
	}
	m["core.submit_s"] = quantile(c.submitS, 0.5)
	m["core.submit_ns_p50"] = quantile(c.submitNS, 0.5)
	m["core.submit_ns_p99"] = quantile(c.submitNS, 0.99)
	m["core.run_s"] = quantile(c.runS, 0.5)
	m["core.completed_s"] = quantile(c.completedS, 0.5)
	m["experiments.stream_stats_s"] = quantile(c.statsS, 0.5)
	m["core.tune_miss_s"] = quantile(c.tuneMissS, 0.5)
	m["core.tune_miss_ns_p50"] = quantile(c.tuneMissNS, 0.5)
	m["core.tune_miss_ns_p99"] = quantile(c.tuneMissNS, 0.99)
	q := c.queue
	m["core.queue_depth_highwater"] = q.highwater
	m["core.pairings"] = float64(q.pairings)
	m["core.leaps"] = float64(q.leaps)
	m["core.reservations"] = float64(q.reservations)
	m["bench.trace_overhead_ratio"] = m["jobs_per_s"] / quantile(c.tracedJobsPerS, 0.5)
	m["bench.unattributed_share"] = quantile(c.unattributed, 0.5)
}

func sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

func maxOverMean(xs []int) float64 {
	hi := 0
	for _, x := range xs {
		hi = max(hi, x)
	}
	return float64(hi) * float64(len(xs)) / float64(sum(xs))
}

// quantile is the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func workloadNames() string {
	names := make([]string, len(workloadTable))
	for i, w := range workloadTable {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// runRecord describes the host and build a result was measured on.
func runRecord(w workload, seed int64, seconds, traceMode int) map[string]string {
	return map[string]string{
		"workload":   w.name,
		"seed":       fmt.Sprint(seed),
		"seconds":    fmt.Sprint(seconds),
		"trace":      fmt.Sprint(traceMode),
		"jobs":       fmt.Sprint(w.jobs),
		"nodes":      fmt.Sprint(w.nodes),
		"shards":     fmt.Sprint(w.cfg.Shards),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"cpu":        firstField("/proc/cpuinfo", "model name", ":"),
		"go":         runtime.Version(),
		"go.mod":     firstField("go.mod", "go ", "go "), // run from the repository root
	}
}

func formatRecord(rec map[string]string) string {
	keys := make([]string, 0, len(rec))
	for k := range rec {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("run")
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%q", k, rec[k])
	}
	return b.String()
}

// firstField is the text after sep on the first line of path that
// starts with prefix, or "unknown".
func firstField(path, prefix, sep string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, prefix) {
			if _, v, ok := strings.Cut(line, sep); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}
