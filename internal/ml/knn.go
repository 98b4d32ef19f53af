package ml

import "fmt"

// KNNClassifier is a k-nearest-neighbour classifier over standardized
// features — the cluster-assignment step of the paper's incoming
// application analyzer (it "chooses the application in the database that
// best resembles the testing application").
type KNNClassifier struct {
	K int

	scaler *Scaler
	rows   [][]float64
	labels []int
}

// NewKNN returns a classifier with the given neighbourhood size.
func NewKNN(k int) *KNNClassifier {
	if k < 1 {
		k = 1
	}
	return &KNNClassifier{K: k}
}

// Train stores the labelled exemplars.
func (c *KNNClassifier) Train(X [][]float64, labels []int) error {
	y := make([]float64, len(labels))
	if _, _, err := checkXY(X, y); err != nil {
		return fmt.Errorf("knn: %w", err)
	}
	s, err := FitScaler(X)
	if err != nil {
		return fmt.Errorf("knn: %w", err)
	}
	c.scaler = s
	c.rows = s.TransformAll(X)
	c.labels = append([]int(nil), labels...)
	return nil
}

// Classify returns the majority label among the k nearest exemplars
// (ties broken toward the nearest).
func (c *KNNClassifier) Classify(x []float64) int {
	if len(c.rows) == 0 {
		return 0
	}
	xs := c.scaler.Transform(x)
	type nd struct {
		d     float64
		label int
	}
	k := c.K
	if k > len(c.rows) {
		k = len(c.rows)
	}
	// Partial selection of the k nearest.
	nearest := make([]nd, 0, k)
	for i, r := range c.rows {
		d := Euclid(xs, r)
		if len(nearest) < k {
			nearest = append(nearest, nd{d, c.labels[i]})
			continue
		}
		// Replace the farthest if closer.
		far := 0
		for j := 1; j < k; j++ {
			if nearest[j].d > nearest[far].d {
				far = j
			}
		}
		if d < nearest[far].d {
			nearest[far] = nd{d, c.labels[i]}
		}
	}
	votes := map[int]int{}
	bestD := map[int]float64{}
	for _, n := range nearest {
		votes[n.label]++
		if d, ok := bestD[n.label]; !ok || n.d < d {
			bestD[n.label] = n.d
		}
	}
	best, bestVotes := nearest[0].label, -1
	for label, v := range votes {
		if v > bestVotes || (v == bestVotes && bestD[label] < bestD[best]) {
			best, bestVotes = label, v
		}
	}
	return best
}
