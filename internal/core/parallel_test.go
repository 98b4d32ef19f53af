package core

import (
	"bytes"
	"reflect"
	"regexp"
	"runtime"
	"sync/atomic"
	"testing"

	"ecost/internal/cluster"
	"ecost/internal/mapreduce"
	"ecost/internal/ml"
	"ecost/internal/sim"
	"ecost/internal/workloads"
)

// buildAt constructs a fresh database at the given GOMAXPROCS, holding
// everything else (profiler seed, sizes, stride) fixed.
func buildAt(t *testing.T, procs int) *Database {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	model := mapreduce.NewModel(cluster.AtomC2758())
	oracle := NewOracle(model)
	profiler := NewProfiler(model, sim.NewRNG(42))
	db, err := BuildDatabase(profiler, oracle, workloads.Training(), BuildOptions{
		Sizes:        []float64{1, 5},
		ConfigStride: 13,
	})
	if err != nil {
		t.Fatalf("build (GOMAXPROCS=%d): %v", procs, err)
	}
	return db
}

// trainTimeRE masks the one legitimately volatile field in the model
// envelope — wall-clock training time — so the byte-compare pins only
// the fitted coefficients and key order.
var trainTimeRE = regexp.MustCompile(`"train_time_ns":\d+`)

// modelBytes trains a linear-regression MLM-STP on the database and
// serializes all of its per-pair models: any divergence in training-row
// content or order shows up in the fitted coefficients.
func modelBytes(t *testing.T, db *Database) []byte {
	t.Helper()
	stp, err := NewMLMSTP("LR", db, func() ml.Regressor { return ml.NewLinearRegression() })
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := stp.SaveModels(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("no models serialized")
	}
	return trainTimeRE.ReplaceAll(buf.Bytes(), []byte(`"train_time_ns":0`))
}

// TestParallelBuildMatchesSerial is the determinism contract for the
// fanned-out database build: any GOMAXPROCS must produce byte-identical
// entries, training rows, and trained models. The merge happens in
// canonical job order and every evaluation is a pure function of its
// inputs, so the schedule cannot leak into the output.
func TestParallelBuildMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: serial-vs-parallel build is a full double build")
	}
	serial := buildAt(t, 1)
	serialBytes := modelBytes(t, serial)
	for _, procs := range []int{2, 4} {
		parallel := buildAt(t, procs)
		if !reflect.DeepEqual(serial.Entries, parallel.Entries) {
			t.Fatalf("GOMAXPROCS=%d: parallel entries diverge from serial build", procs)
		}
		if len(serial.Rows) != len(parallel.Rows) {
			t.Fatalf("GOMAXPROCS=%d: row map sizes differ: %d vs %d", procs, len(serial.Rows), len(parallel.Rows))
		}
		for cp, rows := range serial.Rows {
			if !reflect.DeepEqual(rows, parallel.Rows[cp]) {
				t.Fatalf("GOMAXPROCS=%d: training rows for %v diverge", procs, cp)
			}
		}
		if got := modelBytes(t, parallel); !bytes.Equal(serialBytes, got) {
			t.Fatalf("GOMAXPROCS=%d: trained LR model bytes diverge from serial build", procs)
		}
	}
}

// TestForEach pins the fan-out contract every offline scan relies on:
// each index runs exactly once, and newWorker runs at most
// min(GOMAXPROCS, n) times — never for an empty range.
func TestForEach(t *testing.T) {
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 2, 7, 1000} {
			runs := make([]atomic.Int32, n)
			var workers atomic.Int32
			forEach(n, func() func(int) {
				workers.Add(1)
				return func(i int) { runs[i].Add(1) }
			})
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Errorf("GOMAXPROCS=%d n=%d: index %d ran %d times", procs, n, i, got)
				}
			}
			if got, limit := int(workers.Load()), min(procs, n); got > limit || (n > 0 && got == 0) {
				t.Errorf("GOMAXPROCS=%d n=%d: newWorker ran %d times, want 1..%d", procs, n, got, limit)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestPredictBestGOMAXPROCSInvariant pins the chunked argmin merge: the
// predicted configuration must not depend on how many workers scanned
// the space.
func TestPredictBestGOMAXPROCSInvariant(t *testing.T) {
	fixture(t)
	oa := obsOf(t, "wc", 1)
	ob := obsOf(t, "st", 5)
	stps := []STP{fix.lkt, fix.rep}
	type pred struct {
		cfg [2]mapreduce.Config
		err bool
	}
	var base []pred
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		var got []pred
		for _, s := range stps {
			cfg, err := s.PredictBest(oa, ob)
			got = append(got, pred{cfg, err != nil})
		}
		runtime.GOMAXPROCS(prev)
		if base == nil {
			base = got
			continue
		}
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("GOMAXPROCS=%d: predictions diverge: %v vs %v", procs, base, got)
		}
	}
}

// TestCOLAOGOMAXPROCSInvariant pins the parallel oracle scan the same
// way: fresh oracles at different GOMAXPROCS must agree exactly.
func TestCOLAOGOMAXPROCSInvariant(t *testing.T) {
	fixture(t)
	a := workloads.MustByName("wc")
	b := workloads.MustByName("gp")
	var base *PairBest
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		o := NewOracle(fix.model)
		pb, err := o.COLAO(a, 1024, b, 5120)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if base == nil {
			base = &pb
			continue
		}
		if pb.Cfg != base.Cfg || pb.Out.EDP != base.Out.EDP || pb.Out.Makespan != base.Out.Makespan {
			t.Fatalf("GOMAXPROCS=%d: COLAO diverged: %+v vs %+v", procs, pb, *base)
		}
	}
}
