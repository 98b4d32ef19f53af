// Package scenario is the heavy-traffic load source for the online
// ECoST scheduler: a seeded, composable job-stream generator producing
// open-loop arrival traces at production shapes — Poisson, MMPP
// (burst/calm regimes) and diurnal-modulated arrival processes,
// heavy-tailed (Pareto, lognormal) and empirical Table-3 input-size
// distributions, and recurring-job mixes with per-tenant Zipf skew —
// plus a JSONL trace format whose reader/writer pair replays real or
// generated traces byte-identically through the scheduler.
//
// Determinism contract (the anyes.Noise idiom, see DESIGN.md §13):
// every stochastic component draws from its own sim.RNG.Split
// substream keyed by a fixed stream id, never from a shared cursor.
// Substreams therefore regenerate independently of consumption order:
// swapping the size distribution cannot perturb arrival times, and
// swapping the arrival process cannot perturb the application
// sequence. A Spec plus a seed pins the entire stream at any
// GOMAXPROCS.
package scenario

import (
	"fmt"
	"math"

	"ecost/internal/core"
	"ecost/internal/sim"
	"ecost/internal/trace"
)

// Stream ids for sim.RNG.Split. These are part of the determinism
// contract: renumbering them changes every generated stream, so they
// are frozen (goldens pin the streams they produce).
const (
	streamArrivals int64 = 1 // arrival-process draws (gaps, regime switches, thinning)
	streamSizes    int64 = 2 // per-arrival size draws (non-recurring mixes)
	streamMix      int64 = 3 // application / tenant selection draws
	streamTenants  int64 = 4 // one-shot tenant template construction (zipf mix)
)

// MaxJobs bounds a single generated stream. It is a sanity rail for
// the spec grammar and fuzzers, far above any CI scenario.
const MaxJobs = 10_000_000

// Spec is a fully-parsed scenario specification: how many jobs arrive,
// when (Arrivals), how large their inputs are (Sizes), and which
// applications they run (Mix). The zero value of each component is its
// documented default (all-at-t=0 arrivals, Table-3 sizes, uniform
// mix). Parse one from the `-scenario gen:…` grammar with ParseSpec.
type Spec struct {
	Jobs     int
	Seed     int64
	Arrivals ArrivalSpec
	Sizes    SizeSpec
	Mix      MixSpec

	// legacyRootArrivals draws Poisson gaps from the root seed stream
	// instead of the arrivals substream, reproducing the pre-scenario
	// `-jobs` cycling draw-for-draw (regression-pinned). Only
	// FromWorkload sets it.
	legacyRootArrivals bool
}

// Validate rejects an incoherent spec with a typed *SpecError. A valid
// spec always generates: Generate cannot fail after Validate passes.
func (s Spec) Validate() error {
	if s.Jobs <= 0 || s.Jobs > MaxJobs {
		return specErrf("jobs", "jobs = %d outside 1..%d", s.Jobs, MaxJobs)
	}
	if err := s.Arrivals.validate(); err != nil {
		return err
	}
	if err := s.Sizes.validate(); err != nil {
		return err
	}
	return s.Mix.validate()
}

// Generate produces the spec's deterministic arrival stream. Arrival
// times are finite, non-negative and non-decreasing; every arrival
// carries a real application and a positive finite size.
func Generate(spec Spec) ([]trace.Arrival, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	root := sim.NewRNG(spec.Seed)
	arrRNG := root.Split(streamArrivals)
	if spec.legacyRootArrivals {
		arrRNG = sim.NewRNG(spec.Seed)
	}
	arr := newArrivalGen(spec.Arrivals, arrRNG)
	sizes := newSizeGen(spec.Sizes, root.Split(streamSizes))
	mix, err := newMixGen(spec.Mix, spec.Sizes, root.Split(streamMix), root.Split(streamTenants))
	if err != nil {
		return nil, err
	}

	out := make([]trace.Arrival, spec.Jobs)
	for i := range out {
		at := arr.next()
		app, sizeGB, recurring := mix.next(i)
		if !recurring {
			sizeGB = sizes.next()
		}
		out[i] = trace.Arrival{At: at, App: app, SizeGB: sizeGB}
	}
	return out, nil
}

// FromWorkload is the degenerate recurring mix: cycle the workload's
// job list to n jobs with Poisson arrivals at the given mean gap
// (0 = everything at t=0). It reproduces the retired `-jobs N`
// cycling in cmd/ecost-sim draw-for-draw — the regression test pins
// stream equality against the old loop — while routing through the
// same generator every other scenario uses.
func FromWorkload(wl core.Workload, n int, meanInterarrival float64, seed int64) ([]trace.Arrival, error) {
	if len(wl.Jobs) == 0 {
		return nil, specErrf("mix", "workload %q has no jobs to cycle", wl.Name)
	}
	if meanInterarrival < 0 || math.IsNaN(meanInterarrival) || math.IsInf(meanInterarrival, 0) {
		return nil, specErrf("arrivals", "mean inter-arrival %g must be finite and non-negative", meanInterarrival)
	}
	if n <= 0 {
		n = len(wl.Jobs)
	}
	spec := Spec{
		Jobs:               n,
		Seed:               seed,
		Arrivals:           ArrivalSpec{Kind: ArrivalAll},
		Mix:                MixSpec{Kind: MixCycle, Workload: wl.Name, jobs: wl.Jobs},
		legacyRootArrivals: true,
	}
	if meanInterarrival > 0 {
		spec.Arrivals = ArrivalSpec{Kind: ArrivalPoisson, Mean: meanInterarrival}
	}
	return Generate(spec)
}

// SpecError is the typed validation/parse error for scenario specs:
// which field of the grammar was wrong and why.
type SpecError struct {
	Field  string // grammar key: "jobs", "arrivals", "sizes", "mix"
	Reason string
}

func (e *SpecError) Error() string {
	return fmt.Sprintf("scenario: bad %s: %s", e.Field, e.Reason)
}

func specErrf(field, format string, args ...any) *SpecError {
	return &SpecError{Field: field, Reason: fmt.Sprintf(format, args...)}
}
