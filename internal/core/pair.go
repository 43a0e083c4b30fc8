package core

import (
	"context"
	"math"

	"prsim/internal/walk"
)

// QueryPairCtx estimates the single-pair SimRank s(u, v) with the index's
// additive error target ε and failure probability δ, using the √c-walk pair
// interpretation of SimRank (Section 2 of the paper). Single-pair queries do
// not need the hub index; they are provided for completeness because several
// applications (link prediction between two given candidates, pair
// verification in the pooling oracle) only need one value. The context is
// polled every few hundred walk samples, so a cancelled or expired context
// aborts the estimate promptly without consuming extra random values (a
// completed query is bit-identical whether or not a deadline was attached).
func (idx *Index) QueryPairCtx(ctx context.Context, u, v int) (float64, error) {
	if err := idx.g.CheckNode(u); err != nil {
		return 0, err
	}
	if err := idx.g.CheckNode(v); err != nil {
		return 0, err
	}
	if u == v {
		return 1, nil
	}
	opts := idx.opts
	// Chernoff bound (Lemma A.1): nr = (3ε+2)/ε² · ln(2/δ) samples give an
	// additive error of ε with probability 1-δ for a single pair.
	nr := (3*opts.Epsilon + 2) / (opts.Epsilon * opts.Epsilon) * math.Log(2/opts.Delta) * opts.SampleScale
	samples := int(math.Ceil(nr))
	if samples < 1 {
		samples = 1
	}
	seed := opts.Seed ^ (uint64(u)*0x9e3779b97f4a7c15 + uint64(v)*0xbf58476d1ce4e5b9 + 17)
	walker, err := walk.NewWalker(idx.g, opts.C, seed)
	if err != nil {
		return 0, err
	}
	met := 0
	for i := 0; i < samples; i++ {
		if i%256 == 0 {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		if walker.Meet(u, v, 0) {
			met++
		}
	}
	return float64(met) / float64(samples), nil
}
