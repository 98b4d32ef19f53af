package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"ecost/internal/cluster"
	"ecost/internal/core"
	"ecost/internal/mapreduce"
	"ecost/internal/sim"
	"ecost/internal/workloads"
)

var (
	smallOnce sync.Once
	small     pipeline
)

// smallPipeline is a coarse database (two sizes, every 13th
// configuration) with its LkT technique: enough to drive every
// workload's code path in seconds.
func smallPipeline(t *testing.T) pipeline {
	t.Helper()
	smallOnce.Do(func() {
		model := mapreduce.NewModel(cluster.AtomC2758())
		db, err := core.BuildDatabase(core.NewProfiler(model, sim.NewRNG(42)), core.NewOracle(model),
			workloads.Training(), core.BuildOptions{Sizes: []float64{1, 5}, ConfigStride: 13})
		if err != nil {
			panic(err)
		}
		small = pipeline{model: model, db: db, lkt: &core.LkTSTP{DB: db}}
	})
	return small
}

// TestTimedSTPTransparent pins the tune wrapper as transparent: on a
// small stream of every workload, the counted and traced repetitions
// (wrapper in place) give the untraced digest and memo counts, and the
// wrapper sees exactly the memo's misses.
func TestTimedSTPTransparent(t *testing.T) {
	p := smallPipeline(t)
	for _, w := range workloadTable {
		t.Run(w.name, func(t *testing.T) {
			w.jobs, w.nodes = 600, min(w.nodes, 512)
			arrivals, err := w.stream(7)
			if err != nil {
				t.Fatal(err)
			}
			base, err := drive(p, w, arrivals, 7, modeUntraced)
			if err != nil {
				t.Fatal(err)
			}
			if len(base.problems) > 0 || base.misses == 0 {
				t.Fatalf("untraced repetition: problems %v, %d misses", base.problems, base.misses)
			}
			for _, md := range []mode{modeCounted, modeTraced} {
				r, err := drive(p, w, arrivals, 7, md)
				if err != nil {
					t.Fatal(err)
				}
				if r.digest != base.digest || r.hits != base.hits || r.misses != base.misses {
					t.Errorf("mode %d: digest %016x hits %d misses %d, untraced %016x %d %d",
						md, r.digest, r.hits, r.misses, base.digest, base.hits, base.misses)
				}
				if md != modeTraced {
					continue
				}
				if len(r.shards) != w.cfg.Shards {
					t.Errorf("%d tune wrappers for %d shards", len(r.shards), w.cfg.Shards)
				}
				if n := len(spanDurations(nil, spanTuneMiss, r.shards...)); int64(n) != r.misses {
					t.Errorf("wrapper timed %d calls, memo missed %d", n, r.misses)
				}
				if n := len(spanDurations(nil, spanSubmit, r.driver)); n != len(arrivals) {
					t.Errorf("%d submit spans for %d arrivals", n, len(arrivals))
				}
			}
		})
	}
}

func TestStreamDependsOnSeed(t *testing.T) {
	w, _ := workloadByName("recurring-sharded")
	w.jobs = 1000
	a, _ := w.stream(1)
	b, _ := w.stream(1)
	c, _ := w.stream(2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different streams")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 1 and 2 gave the same stream")
	}
	if a[0].At != 0 || len(a) != w.jobs {
		t.Fatalf("window starts at %g with %d jobs", a[0].At, len(a))
	}
}

func TestCompletionFailures(t *testing.T) {
	job := func(id int) core.CompletedJob { return core.CompletedJob{ID: id} }
	for _, tc := range []struct {
		name      string
		done      []core.CompletedJob
		submitted int
		want      int
	}{
		{"exact", []core.CompletedJob{job(1), job(0), job(2)}, 3, 0},
		{"missing", []core.CompletedJob{job(0), job(2)}, 3, 1},
		{"duplicate", []core.CompletedJob{job(0), job(1), job(1), job(2)}, 3, 1},
		{"unknown id", []core.CompletedJob{job(0), job(1), job(2), job(9)}, 3, 1},
	} {
		if got := completionFailures(tc.done, tc.submitted); got != tc.want {
			t.Errorf("%s: %d failures, want %d", tc.name, got, tc.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	driver := &spanLog{spans: []span{
		{name: spanDrive, start: 0, end: 100 * ms, parent: -1, job: -1},
		{name: spanRun, start: 10 * ms, end: 60 * ms, parent: 0, job: -1},
	}}
	// Two shards tune in parallel: their union covers 30ms of the run.
	shards := []*spanLog{
		{spans: []span{{name: spanTuneMiss, start: 20 * ms, end: 40 * ms, parent: 1, job: -1}}},
		{spans: []span{{name: spanTuneMiss, start: 30 * ms, end: 50 * ms, parent: 1, job: -1}}},
	}
	want := map[string]selfRow{
		spanDrive:    {name: spanDrive, count: 1, total: 100 * ms, self: 50 * ms},
		spanRun:      {name: spanRun, count: 1, total: 50 * ms, self: 20 * ms},
		spanTuneMiss: {name: spanTuneMiss, count: 2, total: 40 * ms, self: 40 * ms},
	}
	rows := selfTimes(driver, shards)
	if len(rows) != len(want) {
		t.Fatalf("rows %+v", rows)
	}
	for _, r := range rows {
		if r != want[r.name] {
			t.Errorf("row %+v, want %+v", r, want[r.name])
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "unique-single", "--trace", "2"},
		{"--workload", "unique-single", "--seconds", "0"},
		{"--bogus"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the tables
// the command reports from in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadTable) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(spec.Workloads), len(workloadTable))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadTable[i].name || w.Why == "" {
			t.Errorf("workload %d: %q, table has %q", i, w.Name, workloadTable[i].name)
		}
	}
	var e2e, layer []metricDef
	for _, d := range metricTable {
		if d.perLayer {
			layer = append(layer, d)
		} else {
			e2e = append(e2e, d)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the table", kind, len(got), len(want))
		}
		for i, g := range got {
			d := want[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || (g.Bound != nil) != bounded {
				t.Errorf("%s %d: %+v, table has %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2e, true)
	check("per_layer", spec.PerLayer, layer, false)
}
