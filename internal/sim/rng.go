// Package sim provides the deterministic simulation substrate used across
// the ECoST reproduction: a seeded pseudo-random source with the
// distribution helpers the models need, and a discrete-event kernel for
// scenario-level (queueing) simulation.
//
// Everything in this package is deterministic for a fixed seed; all
// experiments in the repository derive their randomness from here so that
// tables and figures regenerate identically run-to-run.
package sim

import (
	"math"
	"math/rand"
)

// RNG wraps a seeded PRNG with the distribution helpers used by the
// performance, power and counter models. It is NOT safe for concurrent
// use; give each goroutine its own RNG via Split.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Split derives an independent generator from this one, keyed by id.
// Two Splits with different ids produce uncorrelated streams; the parent
// stream is not advanced.
func (g *RNG) Split(id int64) *RNG {
	// SplitMix-style avalanche of (seed-ish state, id). We cannot read the
	// underlying rand state, so we derive from a dedicated draw.
	z := uint64(id)*0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return NewRNG(int64(z))
}

// Float64 returns a uniform sample in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform sample in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Normal returns a sample from N(mean, std).
func (g *RNG) Normal(mean, std float64) float64 {
	return mean + std*g.r.NormFloat64()
}

// LogNormal returns a sample whose logarithm is N(mu, sigma).
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(g.Normal(mu, sigma))
}

// Jitter returns x multiplied by a factor drawn from N(1, rel), clamped to
// stay positive. It models measurement and run-to-run noise.
func (g *RNG) Jitter(x, rel float64) float64 {
	f := g.Normal(1, rel)
	if f < 0.05 {
		f = 0.05
	}
	return x * f
}

// Exp returns a sample from an exponential distribution with the given
// mean (used for job inter-arrival times).
func (g *RNG) Exp(mean float64) float64 {
	return g.r.ExpFloat64() * mean
}

// Perm returns a deterministic pseudo-random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }
