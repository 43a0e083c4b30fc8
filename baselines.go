package prsim

import (
	"context"
	"fmt"
	"strings"

	"prsim/internal/eval"
	"prsim/internal/probesim"
	"prsim/internal/reads"
	"prsim/internal/sling"
	"prsim/internal/topsim"
	"prsim/internal/tsf"
)

// Algorithm is a single-source SimRank method (PRSim or one of the baselines
// evaluated in the paper) behind a common interface.
type Algorithm interface {
	// Name identifies the algorithm ("PRSim", "SLING", "ProbeSim", ...).
	Name() string
	// SingleSource returns the estimated SimRank of every node with respect
	// to u; only non-zero entries are present and the source maps to 1.
	SingleSource(u int) (map[int]float64, error)
}

// BaselineConfig tunes the baseline constructors; the zero value uses the
// defaults from the paper's experiments with moderate sampling budgets.
type BaselineConfig struct {
	// Decay is the SimRank decay factor c; 0 means DefaultDecay.
	Decay float64
	// Epsilon is the error parameter for the error-parameterised baselines
	// (SLING, ProbeSim) and PRSim; 0 means 0.1.
	Epsilon float64
	// Seed drives every randomized component.
	Seed uint64
	// SampleScale scales Monte Carlo sample counts for PRSim and ProbeSim.
	SampleScale float64
}

func (c BaselineConfig) fill() BaselineConfig {
	if c.Decay == 0 {
		c.Decay = DefaultDecay
	}
	if c.Epsilon == 0 {
		c.Epsilon = 0.1
	}
	if c.SampleScale == 0 {
		c.SampleScale = 1
	}
	return c
}

// AlgorithmNames lists the algorithms NewAlgorithm accepts.
func AlgorithmNames() []string {
	return []string{"PRSim", "SLING", "ProbeSim", "READS", "TSF", "TopSim", "MonteCarlo"}
}

// NewAlgorithm constructs the named algorithm over the graph. Index-based
// methods (PRSim, SLING, READS, TSF) build their index eagerly, so the call
// can take time proportional to the graph size.
func NewAlgorithm(name string, g *Graph, cfg BaselineConfig) (Algorithm, error) {
	if g == nil {
		return nil, fmt.Errorf("prsim: nil graph")
	}
	cfg = cfg.fill()
	switch strings.ToLower(name) {
	case "prsim":
		idx, err := BuildIndex(g, Options{
			Decay: cfg.Decay, Epsilon: cfg.Epsilon, Seed: cfg.Seed, SampleScale: cfg.SampleScale,
		})
		if err != nil {
			return nil, err
		}
		return &prsimAlgorithm{idx: idx}, nil
	case "sling":
		return eval.NewSLING(g.g, sling.Options{C: cfg.Decay, EpsilonA: cfg.Epsilon, Seed: cfg.Seed})
	case "probesim":
		return eval.NewProbeSim(g.g, probesim.Options{
			C: cfg.Decay, EpsilonA: cfg.Epsilon, Seed: cfg.Seed, SampleScale: cfg.SampleScale,
		})
	case "reads":
		return eval.NewREADS(g.g, reads.Options{C: cfg.Decay, Seed: cfg.Seed})
	case "tsf":
		return eval.NewTSF(g.g, tsf.Options{C: cfg.Decay, Seed: cfg.Seed})
	case "topsim":
		return eval.NewTopSim(g.g, topsim.Options{C: cfg.Decay})
	case "montecarlo", "mc":
		samples := int(3.0 / (cfg.Epsilon * cfg.Epsilon) * cfg.SampleScale)
		if samples < 10 {
			samples = 10
		}
		return eval.NewMonteCarlo(g.g, cfg.Decay, samples, cfg.Seed)
	default:
		return nil, fmt.Errorf("prsim: unknown algorithm %q (known: %v)", name, AlgorithmNames())
	}
}

// prsimAlgorithm adapts an Index to the Algorithm interface.
type prsimAlgorithm struct {
	idx *Index
}

func (a *prsimAlgorithm) Name() string { return "PRSim" }

func (a *prsimAlgorithm) SingleSource(u int) (map[int]float64, error) {
	resp, err := a.idx.Do(context.Background(), Request{Source: u})
	if err != nil {
		return nil, err
	}
	return resp.Result.Scores(), nil
}

// Index returns the underlying PRSim index.
func (a *prsimAlgorithm) Index() *Index { return a.idx }
