package core

import (
	"math"
	"slices"
)

// Adaptive early termination — the "accuracy autopilot" over Algorithm 4's
// Monte Carlo phase. The paper's budget (f_r = 3·ln(n/δ) rounds of
// d_r = c1/ε² samples) is a worst-case bound over power-law graphs; typical
// queries converge long before it is spent. An adaptive query runs the same
// walk phase as a fixed one (runWalkPhase), in windows of rounds that end at
// the stop-check schedule; after each merged window it evaluates two
// convergence tests and stops as soon as both clear:
//
//   - a scalar empirical-Bernstein bound on the per-round hub-mass share
//     that feeds the index-read pass (a variance certificate on a mean), and
//   - a median-concentration test on the per-node round estimates: the
//     delivered estimator is the median over rounds, and the paper's own
//     boosting argument only needs most rounds to land near the truth — so
//     the test counts, per touched node, the rounds deviating from the
//     running median by more than the stop target and requires that
//     deviation fraction to stay under a fixed budget. A bound on the mean
//     (what a raw Bernstein bound certifies) is the wrong object here: at
//     small per-round sample counts the round estimates carry variance
//     comparable to ε by design, and only their median concentrates.
//
// The floor is MinRounds and the ceiling is the full budget, so the worst
// case is never exceeded, only met sooner.
//
// Determinism: the stop decision is a pure function of fully-merged state at
// a round boundary, and rounds are merged in the same canonical ascending
// (round, chunk) order as a fixed query's, so for a fixed (seed, source,
// effective epsilon) the stop round — and with it every score bit — is
// identical at every parallelism level. A query that never stops early
// executes and merges exactly the fixed query's chunk sequence and is
// therefore bit-identical to Adaptive=false.
const (
	// defaultMinRounds floors adaptive stopping; two merged rounds are the
	// minimum for an empirical variance to exist at all.
	defaultMinRounds = 2
	// adaptiveSafety is the fraction of the epsilon target used as the stop
	// target: the hub-mass bound must fall below it and per-node round
	// estimates are measured against it. 0.5 leaves half the error budget
	// to what the tests cannot see (drift of the median as the remaining
	// rounds would have arrived, finite-sample hub mass); the accuracy
	// regression test pins measured max-error ≤ ε against ground truth
	// under this setting.
	adaptiveSafety = 0.5
	// adaptiveHubWeight scales the hub-mass bound against the target. The
	// hub-mass share is a scalar proxy for the index-read component's
	// sampling error; weight 1 treats a unit of mass uncertainty as a unit
	// of score uncertainty, which testing shows is conservative enough
	// (reserves are ≪ 1 and spread over many nodes).
	adaptiveHubWeight = 1.0
	// adaptiveRangeWeight down-weights the finite-range correction term
	// 3·(max−min)·L/R of the hub-mass empirical-Bernstein bound. The full
	// theoretical weight guards a mean against adversarial stragglers; the
	// hub share is a bounded [0,1] average whose round-to-round spread the
	// variance term already tracks, and the consecutive-round confirmation
	// streak (adaptiveConfirmRounds) covers the lucky-variance-estimate
	// failure mode, so the correction is kept at a fraction of its
	// theoretical weight.
	adaptiveRangeWeight = 0.1
	// adaptiveDeviationFrac is the fraction of merged rounds allowed to
	// deviate from a node's running median by more than the stop target
	// before that node blocks the stop. The median of R rounds moves only
	// if about half the rounds move past it, so a small observed deviation
	// fraction (with the margin the confirmation streak adds) means the
	// final full-budget median would almost surely land within the target
	// of the current one. 0.25 tolerates stragglers — which the median
	// estimator discards by construction — without letting genuinely
	// oscillating estimates stop early.
	adaptiveDeviationFrac = 0.25
	// adaptiveConfirmRounds is how many consecutive stop-rule evaluations
	// must hold before the query stops — a deterministic stand-in for the
	// full finite-range correction: one aberrant round both breaks the
	// streak and widens the deviation counts.
	adaptiveConfirmRounds = 2
	// adaptiveDenseCheckRounds is the merged-round count up to which the
	// stop rule is evaluated at every round boundary; past it, evaluations
	// run every adaptiveCheckStride rounds. Early stops are where the
	// savings live and where checks are cheapest; late checks are the
	// expensive ones (the evaluation is linear in touched-support × rounds)
	// and mostly serve queries that will run the full budget anyway, so
	// thinning them caps the overhead a never-stopping query pays at a few
	// percent without moving the stop round of a typical query by more than
	// the stride. The schedule is a pure function of the round number, so
	// it cannot perturb the cross-parallelism determinism contract.
	adaptiveDenseCheckRounds = 16
	adaptiveCheckStride      = 4
)

// resetHubMass resets the scalar hub-mass stop accumulators at the start of a
// walk phase. The per-node side of the stop rule reads the compacted
// per-round estimates directly (see medianConcentrated), so it needs no
// per-query preparation.
func (s *queryState) resetHubMass() {
	s.hSum, s.hSumSq = 0, 0
	s.hMin, s.hMax = math.Inf(1), math.Inf(-1)
}

// foldHubMass folds one merged round's hub-mass share (hub terminations /
// d_r) into the scalar stop accumulators. The per-node estimates already
// live in the round's sparse lists the median pass reads.
func (s *queryState) foldHubMass(hubMass float64) {
	s.hSum += hubMass
	s.hSumSq += hubMass * hubMass
	if hubMass < s.hMin {
		s.hMin = hubMass
	}
	if hubMass > s.hMax {
		s.hMax = hubMass
	}
}

// adaptiveConverged evaluates the stop rule after R merged rounds: the
// scalar empirical-Bernstein bound on the per-round hub-mass share
//
//	sqrt(2·V̂·L/R) + 3·(max−min)·L/R·adaptiveRangeWeight, L = ln(3/δ)
//
// must fall below the stop target adaptiveSafety·ε, and every touched
// node's per-round estimates must pass the median-concentration test
// (medianConcentrated). Nodes whose estimates genuinely oscillate blow the
// deviation budget and hold the query to more rounds.
func (s *queryState) adaptiveConverged(R int, opts Options) bool {
	target := adaptiveSafety * opts.Epsilon
	rf := float64(R)

	Lh := math.Log(3 / opts.Delta)
	va := (s.hSumSq - s.hSum*s.hSum/rf) / (rf - 1)
	if va < 0 {
		va = 0
	}
	if adaptiveHubWeight*(math.Sqrt(2*va*Lh/rf)+3*(s.hMax-s.hMin)*Lh/rf*adaptiveRangeWeight) > target {
		return false
	}
	return s.medianConcentrated(R, target)
}

// windowEnd returns the round boundary that closes the walk-phase window
// starting after R merged rounds: the next boundary, at or past the floor
// minR, where the stop rule runs — every round up to
// adaptiveDenseCheckRounds, every adaptiveCheckStride-th round after — or
// the budget fr. A fixed query passes minR = fr and gets one window.
func windowEnd(R, minR, fr int) int {
	end := max(R+1, minR)
	for end < fr && end > adaptiveDenseCheckRounds && end%adaptiveCheckStride != 0 {
		end++
	}
	return end
}

// medianConcentrated reports whether, for every node touched by the first R
// merged rounds, at most adaptiveDeviationFrac·R rounds deviate from the
// node's running median (missing rounds are zeros, exactly as the final
// estimator counts them) by more than target. A row whose observed spread
// (max−min) is within target passes without a sort — the median lies inside
// the spread, so no value can deviate from it by more — which reduces the
// sorted rows to the handful of genuinely wide supports. It shares the
// compact-id and matrix workspace with medianScores; the matrix's all-zero
// release invariant is restored before returning, including when the test
// fails: screened rows are cleared sparsely through the round lists, sorted
// rows (whose values the sort moved) wholesale.
func (s *queryState) medianConcentrated(R int, target float64) bool {
	mat := s.unionRounds(R)
	for i, nodes := range s.roundNodes[:R] {
		vals := s.roundVals[i]
		for j, v32 := range nodes {
			mat[int(s.uid[v32])*R+i] = vals[j]
		}
	}
	allowed := int(adaptiveDeviationFrac * float64(R))
	ok := true
	s.sortedRows = s.sortedRows[:0]
	for ui := range s.unionNodes {
		row := mat[ui*R : (ui+1)*R]
		if slices.Max(row)-slices.Min(row) <= target {
			continue
		}
		s.sortedRows = append(s.sortedRows, int32(ui))
		m := medianInPlace(row)
		bad := 0
		for _, x := range row {
			if x-m > target || m-x > target {
				bad++
			}
		}
		if bad > allowed {
			ok = false
			break
		}
	}
	for i, nodes := range s.roundNodes[:R] {
		for _, v32 := range nodes {
			mat[int(s.uid[v32])*R+i] = 0
		}
	}
	for _, ui := range s.sortedRows {
		clear(mat[int(ui)*R : int(ui+1)*R])
	}
	return ok
}

// rescaleEta multiplies every accumulated η̂π estimate by f — the f_r/R
// renormalization an early stop needs before the threshold-gated index-read
// pass.
func (s *queryState) rescaleEta(f float64) {
	for l, touched := range s.etaTouched {
		vals := s.etaVals[l]
		for _, rank := range touched {
			vals[rank] *= f
		}
	}
}
