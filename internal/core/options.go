// Package core implements PRSim, the index-based single-source SimRank
// algorithm of Wei et al. (SIGMOD 2019). It contains the four algorithms of
// Section 3 of the paper:
//
//   - Algorithm 1: preprocessing — hub selection by reverse PageRank and the
//     per-hub levelwise backward-search index L_ℓ(w);
//   - Algorithm 2: the simple Backward Walk (kept for ablation);
//   - Algorithm 3: the Variance Bounded Backward Walk;
//   - Algorithm 4: the single-source query combining Monte Carlo estimation
//     of η(w)·π_ℓ(u,w), index lookups for hub targets, and backward walks for
//     non-hub targets with a median-of-means estimator.
package core

import (
	"errors"
	"fmt"
	"math"
)

// DefaultDecay is the SimRank decay factor used in the paper's experiments.
const DefaultDecay = 0.6

// Options configures index construction and querying.
type Options struct {
	// C is the SimRank decay factor in (0, 1). Defaults to DefaultDecay.
	C float64
	// Epsilon is the target additive error of single-source queries.
	// Defaults to 0.1.
	Epsilon float64
	// Delta is the failure probability. Defaults to 1e-4 (the paper's
	// default).
	Delta float64
	// NumHubs is j0, the number of hub nodes indexed by backward search.
	// Negative means "choose automatically" (√n, the paper's experimental
	// setting); zero makes PRSim index-free.
	NumHubs int
	// MaxLevels caps the number of walk levels considered anywhere (the decay
	// makes deep levels negligible). Defaults to 64.
	MaxLevels int
	// Seed makes every randomized component deterministic: for a fixed Seed
	// (and index), repeated queries from the same source return bit-identical
	// scores, regardless of concurrency, batching, intra-query parallelism,
	// or snapshot backing. The contract is fixed-seed reproducibility on a
	// given build: every kernel consumes its random stream and accumulates
	// floating point in a documented canonical order (per-(seed, source,
	// chunk) splitmix64 streams with batch lane order inside a chunk; within
	// a chunk, length-0 walks skipped, the backward walks of non-hub ends run
	// in walk order before any η pair, and η pairs sampled in one batch only
	// for the ends that can contribute — hub ends and non-empty backward
	// walks; ascending (round, chunk) left-fold merges, first-touch frontier
	// order for backward walks, levels-ascending / ranks-ascending order for
	// the index-read pass). Those canonical orders — and hence the exact
	// score bits — may change between versions of this package when the
	// kernels change; cross-version bit compatibility is intentionally not
	// promised.
	Seed uint64
	// SampleScale multiplies the number of Monte Carlo samples used by the
	// query. 1.0 reproduces the paper's worst-case constants
	// (d_r = 12/((1-√c)²ε²), f_r = 3·ln(n/δ)); smaller values trade accuracy
	// for speed and are used by the experiment harness exactly like the
	// paper's parameter sweeps vary ε. Defaults to 1.0.
	SampleScale float64
	// Parallelism is the number of goroutines used for the per-hub backward
	// searches of Algorithm 1. Zero or negative means GOMAXPROCS. Queries are
	// single-threaded regardless (they are already sublinear).
	Parallelism int
}

// fill validates the options and applies defaults, returning the result.
func (o Options) fill() (Options, error) {
	if o.C == 0 {
		o.C = DefaultDecay
	}
	if o.C <= 0 || o.C >= 1 {
		return o, fmt.Errorf("core: decay factor c=%v outside (0,1)", o.C)
	}
	if o.Epsilon == 0 {
		o.Epsilon = 0.1
	}
	if o.Epsilon <= 0 || o.Epsilon >= 1 {
		return o, fmt.Errorf("core: epsilon=%v outside (0,1)", o.Epsilon)
	}
	if o.Delta == 0 {
		o.Delta = 1e-4
	}
	if o.Delta <= 0 || o.Delta >= 1 {
		return o, fmt.Errorf("core: delta=%v outside (0,1)", o.Delta)
	}
	if o.MaxLevels <= 0 {
		o.MaxLevels = 64
	}
	if o.SampleScale == 0 {
		o.SampleScale = 1
	}
	if o.SampleScale < 0 {
		return o, fmt.Errorf("core: SampleScale=%v must be positive", o.SampleScale)
	}
	return o, nil
}

// QueryOptions carries the per-request knobs of one single-source query — the
// request half of the unified request plane. The zero value means "use the
// index's build-time options unchanged", so every existing call site keeps its
// exact behavior.
type QueryOptions struct {
	// Epsilon is the additive error target for THIS query. Zero means the
	// index's build epsilon. Values above the build epsilon trade accuracy for
	// speed: the Monte Carlo sample count d_r scales with 1/ε², and the
	// backward-walk and index-read budgets shrink with the larger threshold
	// ε/c₁, so a 4× epsilon cuts the walk budget ~16×. Values below the build
	// epsilon are clamped up to it — the index's reserve lists were pruned at
	// rmax = (1-√c)²·ε_build/12, so a tighter request bound cannot be honored
	// by sampling harder against the same index.
	Epsilon float64
	// Parallelism bounds the number of workers executing THIS query's walk
	// chunks. Values ≤ 1 run serially; larger values spawn up to that many
	// goroutines (clamped to the chunk count). It never changes the result:
	// chunk boundaries, seeds, and the merge order are functions of the
	// effective options only, so scores are bit-identical at every level —
	// which is also why it is excluded from result-cache keys and query
	// equivalence. Serving layers resolve their "auto" policies to a concrete
	// value before reaching core.
	Parallelism int
	// Adaptive enables variance-based early termination of the Monte Carlo
	// phase: rounds execute in windows between stop checks (at MinRounds,
	// then every round up to 16 and every 4th after), and at each check an
	// empirical-Bernstein confidence bound over the running per-node
	// estimates (plus the hub-mass share feeding the index-read pass) is
	// checked against the effective epsilon; the query stops as soon as the
	// bound clears, with a floor of MinRounds and a hard ceiling at the
	// paper's worst-case budget f_r. False (the default) runs the full fixed
	// budget as one window, with no checks.
	//
	// Determinism is preserved: the stop decision is taken at round
	// boundaries from fully-merged state, which depends only on (seed,
	// source, effective epsilon) — never on the parallelism level — so a
	// fixed seed yields the same stop round and bit-identical scores at
	// every Parallelism value. An adaptive query that never stops early is
	// bit-identical to Adaptive=false. Because the executed budget differs,
	// Adaptive IS part of result-cache and coalescing identity at the
	// serving layers.
	Adaptive bool
	// MinRounds floors the adaptive stop check: no query stops before this
	// many rounds have been merged. Zero means the default (2); values are
	// clamped to [2, f_r]. Ignored unless Adaptive is set.
	MinRounds int
}

// ErrInvalidEpsilon is returned (wrapped with the offending value) when a
// per-request epsilon lies outside (0, 1). Servers use errors.Is against it
// to classify bad requests.
var ErrInvalidEpsilon = errors.New("core: request epsilon outside (0,1)")

// Validate rejects per-request options that no index could honor. Epsilon
// must be zero (inherit) or lie in (0, 1) like the build epsilon.
func (q QueryOptions) Validate() error {
	if q.Epsilon != 0 && (q.Epsilon <= 0 || q.Epsilon >= 1) {
		return fmt.Errorf("%w: %v", ErrInvalidEpsilon, q.Epsilon)
	}
	return nil
}

// effective applies the per-request overrides in q to the build options o and
// reports whether the requested epsilon was clamped up to the build epsilon.
// q is assumed validated.
func (o Options) effective(q QueryOptions) (Options, bool) {
	if q.Epsilon == 0 {
		return o, false
	}
	if q.Epsilon < o.Epsilon {
		return o, true
	}
	o.Epsilon = q.Epsilon
	return o, false
}

// QueryEquivalent reports whether two option sets produce bit-identical query
// results over the same graph: every field that feeds the random streams or
// the estimator budgets must match. Parallelism only shapes preprocessing
// fan-out, so it is ignored. The engine's hot-swap path uses this (plus the
// graph checksum and the realized hub count) to decide whether cached results
// survive a snapshot reload.
func (o Options) QueryEquivalent(p Options) bool {
	o.Parallelism, p.Parallelism = 0, 0
	// NumHubs is a build *request* (-1 auto, 0 index-free, >0 explicit) whose
	// realized value is the index's hub count; loaded snapshots do not carry
	// the original request. Callers compare Index.NumHubs() separately.
	o.NumHubs, p.NumHubs = 0, 0
	return o == p
}

// sqrtC returns √c.
func (o Options) sqrtC() float64 { return math.Sqrt(o.C) }

// alpha returns the termination probability 1-√c.
func (o Options) alpha() float64 { return 1 - math.Sqrt(o.C) }

// c1 returns the constant c₁ = 12/(1-√c)² of Algorithm 4.
func (o Options) c1() float64 {
	a := o.alpha()
	return 12 / (a * a)
}

// rmax returns the backward-search residue threshold ε/c₁ = (1-√c)²ε/12 used
// by Algorithm 1.
func (o Options) rmax() float64 { return o.Epsilon / o.c1() }

// samplesPerRound returns d_r, the number of √c-walk samples per round.
func (o Options) samplesPerRound() int {
	dr := o.c1() / (o.Epsilon * o.Epsilon) * o.SampleScale
	if dr < 1 {
		return 1
	}
	return int(math.Ceil(dr))
}

// rounds returns f_r, the number of median-trick rounds for n nodes.
func (o Options) rounds(n int) int {
	if n < 2 {
		n = 2
	}
	fr := 3 * math.Log(float64(n)/o.Delta)
	if fr < 1 {
		return 1
	}
	return int(math.Ceil(fr))
}

// defaultNumHubs returns the automatic hub count ⌈√n⌉ used by the paper's
// experiments when NumHubs is negative.
func defaultNumHubs(n int) int {
	if n <= 0 {
		return 0
	}
	return int(math.Ceil(math.Sqrt(float64(n))))
}
