// Package eval contains the evaluation harness used to regenerate every
// figure of the paper's experimental section: a common single-source
// interface with adapters for PRSim and all baselines, the pooling
// methodology and metrics of Section 5.1 (AvgError@k, Precision@k), and the
// experiment runners behind cmd/prsimbench and the repository benchmarks.
package eval

import (
	"context"
	"fmt"
	"time"

	"prsim/internal/core"
	"prsim/internal/graph"
	"prsim/internal/montecarlo"
	"prsim/internal/probesim"
	"prsim/internal/reads"
	"prsim/internal/sling"
	"prsim/internal/topsim"
	"prsim/internal/tsf"
)

// Algorithm is the common single-source SimRank interface every evaluated
// method implements.
type Algorithm interface {
	// Name identifies the algorithm in reports ("PRSim", "SLING", ...).
	Name() string
	// SingleSource returns the estimated SimRank of every node with respect
	// to u (only non-zero entries need to be present; the source maps to 1).
	SingleSource(u int) (map[int]float64, error)
}

// Indexed is implemented by index-based algorithms, exposing the quantities
// plotted in Figures 4 and 5.
type Indexed interface {
	Algorithm
	// IndexSizeBytes estimates the in-memory index size.
	IndexSizeBytes() int64
	// PreprocessingTime is the wall-clock time spent building the index.
	PreprocessingTime() time.Duration
}

// prsimAlgo adapts core.Index.
type prsimAlgo struct {
	idx  *core.Index
	prep time.Duration
}

// NewPRSim builds a PRSim index and wraps it as an Algorithm.
func NewPRSim(g *graph.Graph, opts core.Options) (Indexed, error) {
	start := time.Now()
	idx, err := core.BuildIndex(g, opts)
	if err != nil {
		return nil, fmt.Errorf("eval: building PRSim: %w", err)
	}
	return &prsimAlgo{idx: idx, prep: time.Since(start)}, nil
}

func (a *prsimAlgo) Name() string                     { return "PRSim" }
func (a *prsimAlgo) IndexSizeBytes() int64            { return a.idx.SizeBytes() }
func (a *prsimAlgo) PreprocessingTime() time.Duration { return a.prep }

func (a *prsimAlgo) SingleSource(u int) (map[int]float64, error) {
	var res core.Result
	if err := a.idx.QueryIntoOpts(context.Background(), u, &res, core.QueryOptions{}); err != nil {
		return nil, err
	}
	return res.Scores, nil
}

// Index exposes the underlying PRSim index for callers that need its
// statistics (e.g. the Σπ(w)² hardness measure).
func (a *prsimAlgo) Index() *core.Index { return a.idx }

// slingAlgo adapts sling.Index.
type slingAlgo struct {
	idx  *sling.Index
	prep time.Duration
}

// NewSLING builds a SLING index and wraps it as an Algorithm.
func NewSLING(g *graph.Graph, opts sling.Options) (Indexed, error) {
	start := time.Now()
	idx, err := sling.BuildIndex(g, opts)
	if err != nil {
		return nil, fmt.Errorf("eval: building SLING: %w", err)
	}
	return &slingAlgo{idx: idx, prep: time.Since(start)}, nil
}

func (a *slingAlgo) Name() string                                { return "SLING" }
func (a *slingAlgo) IndexSizeBytes() int64                       { return a.idx.Stats().SizeBytes() }
func (a *slingAlgo) PreprocessingTime() time.Duration            { return a.prep }
func (a *slingAlgo) SingleSource(u int) (map[int]float64, error) { return a.idx.SingleSource(u) }

// readsAlgo adapts reads.Index.
type readsAlgo struct {
	idx  *reads.Index
	prep time.Duration
}

// NewREADS builds a READS index and wraps it as an Algorithm.
func NewREADS(g *graph.Graph, opts reads.Options) (Indexed, error) {
	start := time.Now()
	idx, err := reads.BuildIndex(g, opts)
	if err != nil {
		return nil, fmt.Errorf("eval: building READS: %w", err)
	}
	return &readsAlgo{idx: idx, prep: time.Since(start)}, nil
}

func (a *readsAlgo) Name() string                                { return "READS" }
func (a *readsAlgo) IndexSizeBytes() int64                       { return a.idx.Stats().SizeBytes() }
func (a *readsAlgo) PreprocessingTime() time.Duration            { return a.prep }
func (a *readsAlgo) SingleSource(u int) (map[int]float64, error) { return a.idx.SingleSource(u) }

// tsfAlgo adapts tsf.Index.
type tsfAlgo struct {
	idx  *tsf.Index
	prep time.Duration
}

// NewTSF builds a TSF index and wraps it as an Algorithm.
func NewTSF(g *graph.Graph, opts tsf.Options) (Indexed, error) {
	start := time.Now()
	idx, err := tsf.BuildIndex(g, opts)
	if err != nil {
		return nil, fmt.Errorf("eval: building TSF: %w", err)
	}
	return &tsfAlgo{idx: idx, prep: time.Since(start)}, nil
}

func (a *tsfAlgo) Name() string                                { return "TSF" }
func (a *tsfAlgo) IndexSizeBytes() int64                       { return a.idx.SizeBytes() }
func (a *tsfAlgo) PreprocessingTime() time.Duration            { return a.prep }
func (a *tsfAlgo) SingleSource(u int) (map[int]float64, error) { return a.idx.SingleSource(u) }

// probesimAlgo adapts probesim.Estimator (index-free).
type probesimAlgo struct {
	est *probesim.Estimator
}

// NewProbeSim wraps a ProbeSim estimator as an Algorithm.
func NewProbeSim(g *graph.Graph, opts probesim.Options) (Algorithm, error) {
	est, err := probesim.New(g, opts)
	if err != nil {
		return nil, fmt.Errorf("eval: building ProbeSim: %w", err)
	}
	return &probesimAlgo{est: est}, nil
}

func (a *probesimAlgo) Name() string                                { return "ProbeSim" }
func (a *probesimAlgo) SingleSource(u int) (map[int]float64, error) { return a.est.SingleSource(u) }

// topsimAlgo adapts topsim.Estimator (index-free).
type topsimAlgo struct {
	est *topsim.Estimator
}

// NewTopSim wraps a TopSim estimator as an Algorithm.
func NewTopSim(g *graph.Graph, opts topsim.Options) (Algorithm, error) {
	est, err := topsim.New(g, opts)
	if err != nil {
		return nil, fmt.Errorf("eval: building TopSim: %w", err)
	}
	return &topsimAlgo{est: est}, nil
}

func (a *topsimAlgo) Name() string                                { return "TopSim" }
func (a *topsimAlgo) SingleSource(u int) (map[int]float64, error) { return a.est.SingleSource(u) }

// monteCarloAlgo adapts the classic MC baseline (index-free).
type monteCarloAlgo struct {
	est     *montecarlo.Estimator
	samples int
}

// NewMonteCarlo wraps the classic Monte Carlo estimator as an Algorithm with
// a fixed per-query sample count.
func NewMonteCarlo(g *graph.Graph, c float64, samples int, seed uint64) (Algorithm, error) {
	est, err := montecarlo.New(g, c, seed)
	if err != nil {
		return nil, fmt.Errorf("eval: building MonteCarlo: %w", err)
	}
	if samples <= 0 {
		return nil, fmt.Errorf("eval: MonteCarlo samples=%d must be positive", samples)
	}
	return &monteCarloAlgo{est: est, samples: samples}, nil
}

func (a *monteCarloAlgo) Name() string { return "MonteCarlo" }

func (a *monteCarloAlgo) SingleSource(u int) (map[int]float64, error) {
	dense, err := a.est.SingleSource(u, a.samples)
	if err != nil {
		return nil, err
	}
	scores := make(map[int]float64)
	for v, s := range dense {
		if s != 0 {
			scores[v] = s
		}
	}
	return scores, nil
}
