package ml

import (
	"math"
	"slices"
	"sort"
	"testing"

	"ecost/internal/sim"
)

// TestSplitSortMatchesSortSlice is the property REPTree's split search
// rests on: sorting (value, target) points with slices.SortFunc and
// compareSplitPoints yields exactly the permutation the index-based
// sort.Slice it replaced yields, ties included. Inputs are tie-heavy
// (a handful of distinct values, signed zeros and NaN among them) at
// every length from 1 to 2,000 over 200 seeds.
func TestSplitSortMatchesSortSlice(t *testing.T) {
	pool := []float64{-1, math.Copysign(0, -1), 0, 0.5, 1, 2, 64, math.NaN()}
	for seed := int64(1); seed <= 200; seed++ {
		rng := sim.NewRNG(seed)
		n := 1 + rng.Intn(2000)
		distinct := 1 + rng.Intn(len(pool))
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = pool[rng.Intn(distinct)]
		}
		// The grow set arrives shuffled, as REPTree's seeded permutation
		// leaves it.
		order := rng.Perm(n)
		pts := make([]splitPoint, n)
		for k, i := range order {
			pts[k] = splitPoint{xs[i], float64(i)}
		}
		sort.Slice(order, func(a, b int) bool { return xs[order[a]] < xs[order[b]] })
		slices.SortFunc(pts, compareSplitPoints)
		for k := range order {
			if int(pts[k].y) != order[k] {
				t.Fatalf("seed %d (n=%d, %d distinct): position %d holds row %d, sort.Slice put row %d",
					seed, n, distinct, k, int(pts[k].y), order[k])
			}
		}
	}
}

// synthKnobs builds a training set shaped like one MLM-STP model group:
// cols knob-like inputs, each drawn from a few discrete levels (so
// split searches meet long runs of ties), and a smooth log-EDP-like
// response with noise.
func synthKnobs(n, cols int, seed int64) ([][]float64, []float64) {
	rng := sim.NewRNG(seed)
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, cols)
		var s float64
		for j := range row {
			levels := 2 + j%7
			row[j] = float64(1 + rng.Intn(levels))
			s += math.Sin(row[j]*float64(j+1)) / float64(j+1)
		}
		X[i] = row
		y[i] = s + rng.Normal(0, 0.05)
	}
	return X, y
}

// BenchmarkREPTreeTrain trains one feature-aware-sized REPTree (1,600
// rows × 20 tie-heavy inputs, MinLeaf 2) per op — the per-model cost
// the MLM-STP training pool multiplies by its model count.
func BenchmarkREPTreeTrain(b *testing.B) {
	X, y := synthKnobs(1600, 20, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := NewREPTree()
		tr.MinLeaf = 2
		if err := tr.Train(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMLPTrain trains one MLP the way the fast Env does (400 rows
// × 20 inputs, 16 hidden units, 80 epochs) per op.
func BenchmarkMLPTrain(b *testing.B) {
	X, y := synthKnobs(400, 20, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := NewMLP()
		m.Epochs = 80
		m.LearningRate = 0.005
		if err := m.Train(X, y); err != nil {
			b.Fatal(err)
		}
	}
}
