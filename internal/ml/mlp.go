package ml

import (
	"fmt"
	"math"

	"ecost/internal/sim"
)

// MLP is a multilayer perceptron regressor with one sigmoid hidden layer
// and a linear output, trained by stochastic gradient descent with
// momentum — the most accurate (and most expensive) of the paper's EDP
// predictors. Inputs and the target are standardized internally, so the
// network trains on well-conditioned data regardless of feature scales.
type MLP struct {
	// Hidden is the hidden-layer width.
	Hidden int
	// Epochs is the number of full passes over the training data.
	Epochs int
	// LearningRate and Momentum follow Weka's MLP defaults in spirit.
	LearningRate float64
	Momentum     float64
	// Seed drives weight initialization and sample shuffling.
	Seed int64

	w1, dw1 [][]float64 // input→hidden (+bias)
	w2, dw2 []float64   // hidden→output (+bias)
	scaler  *Scaler
	yMean   float64
	yStd    float64
	in      int
}

// NewMLP returns an MLP with defaults suited to the small tabular
// datasets of this study.
func NewMLP() *MLP {
	return &MLP{Hidden: 16, Epochs: 400, LearningRate: 0.02, Momentum: 0.9, Seed: 1}
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Train fits the network with SGD, retrying with a smaller learning
// rate if the optimization diverges (standardized targets make a
// non-finite output an unambiguous divergence signal).
func (m *MLP) Train(X [][]float64, y []float64) error {
	lr0 := m.LearningRate
	if lr0 <= 0 {
		lr0 = 0.02
	}
	var err error
	for attempt := 0; attempt < 4; attempt++ {
		m.LearningRate = lr0 / math.Pow(4, float64(attempt))
		if err = m.train(X, y); err == nil {
			if len(X) > 0 && isFinite(m.Predict(X[0])) {
				m.LearningRate = lr0
				return nil
			}
			err = fmt.Errorf("mlp: diverged at learning rate %g", m.LearningRate)
		}
	}
	m.LearningRate = lr0
	return err
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

func (m *MLP) train(X [][]float64, y []float64) error {
	rows, cols, err := checkXY(X, y)
	if err != nil {
		return fmt.Errorf("mlp: %w", err)
	}
	if m.Hidden < 1 {
		m.Hidden = 1
	}
	if m.Epochs < 1 {
		m.Epochs = 1
	}
	m.in = cols

	m.scaler, err = FitScaler(X)
	if err != nil {
		return fmt.Errorf("mlp: %w", err)
	}
	Xs := m.scaler.TransformAll(X)

	// Standardize the target too.
	var sum, sq float64
	for _, v := range y {
		sum += v
	}
	m.yMean = sum / float64(rows)
	for _, v := range y {
		d := v - m.yMean
		sq += d * d
	}
	m.yStd = math.Sqrt(sq / float64(rows))
	if m.yStd < 1e-12 {
		m.yStd = 1
	}
	ys := make([]float64, rows)
	for i, v := range y {
		ys[i] = (v - m.yMean) / m.yStd
	}

	rng := sim.NewRNG(m.Seed)
	initW := func(n int) []float64 {
		w := make([]float64, n)
		scale := 1 / math.Sqrt(float64(n))
		for i := range w {
			w[i] = rng.Normal(0, scale)
		}
		return w
	}
	m.w1 = make([][]float64, m.Hidden)
	m.dw1 = make([][]float64, m.Hidden)
	for h := range m.w1 {
		m.w1[h] = initW(cols + 1)
		m.dw1[h] = make([]float64, cols+1)
	}
	m.w2 = initW(m.Hidden + 1)
	m.dw2 = make([]float64, m.Hidden+1)

	// The loop reads the weights through locals sliced to the input
	// width, so the compiler drops the bounds checks. Keep every
	// floating-point operation in its order: persisted models are
	// pinned bit for bit (TestTrainedModelsPinned in internal/core).
	nh, mom := m.Hidden, m.Momentum
	w2, dw2 := m.w2[:nh+1], m.dw2[:nh+1]
	hidden := make([]float64, nh)
	for epoch := 0; epoch < m.Epochs; epoch++ {
		lr := m.LearningRate / (1 + 0.01*float64(epoch))
		for _, i := range rng.Perm(rows) {
			x := Xs[i][:cols]
			// Forward.
			for h := range hidden {
				w1h := m.w1[h][:cols+1]
				s := w1h[cols] // bias
				for j, wj := range w1h[:cols] {
					s += wj * x[j]
				}
				hidden[h] = sigmoid(s)
			}
			out := w2[nh]
			for h, hv := range hidden {
				out += w2[h] * hv
			}
			// Backward (squared error), with the gradient clipped: the
			// targets are standardized, so an error beyond a few σ only
			// destabilizes SGD without informing the fit.
			errOut := out - ys[i]
			if errOut > 3 {
				errOut = 3
			} else if errOut < -3 {
				errOut = -3
			}
			for h, hv := range hidden {
				w1h, dw1h := m.w1[h][:cols+1], m.dw1[h][:cols+1]
				g := errOut * hv
				dw2[h] = mom*dw2[h] - lr*g
				deltaH := errOut * w2[h] * hv * (1 - hv)
				for j, xj := range x {
					gh := deltaH * xj
					dw1h[j] = mom*dw1h[j] - lr*gh
					w1h[j] += dw1h[j]
				}
				dw1h[cols] = mom*dw1h[cols] - lr*deltaH
				w1h[cols] += dw1h[cols]
				w2[h] += dw2[h]
			}
			dw2[nh] = mom*dw2[nh] - lr*errOut
			w2[nh] += dw2[nh]
		}
	}
	return nil
}

// Predict runs a forward pass.
func (m *MLP) Predict(x []float64) float64 {
	if m.scaler == nil {
		return 0
	}
	xs := m.scaler.Transform(x)
	out := m.w2[m.Hidden]
	for h := 0; h < m.Hidden; h++ {
		s := m.w1[h][m.in]
		for j := 0; j < m.in && j < len(xs); j++ {
			s += m.w1[h][j] * xs[j]
		}
		out += m.w2[h] * sigmoid(s)
	}
	return out*m.yStd + m.yMean
}

var _ Regressor = (*MLP)(nil)
