// Command prsimquery builds a PRSim index over a graph and answers
// single-source SimRank queries from the command line.
//
// Usage:
//
//	prsimquery -graph graph.txt -source 42 -topk 20
//	prsimquery -dataset DB -source 7 -epsilon 0.05
//	prsimquery -generate powerlaw -n 10000 -gamma 2.5 -source 0
//	prsimquery -graph graph.txt -saveindex idx.prsim        # preprocessing only
//	prsimquery -loadindex idx.prsim -source 3               # graph + index, one mmap
//	prsimquery -loadindex idx.prsim -source 3 -epsilon 0.4  # faster, coarser
//	prsimquery -graph graph.txt -algorithm ProbeSim -source 3
//	prsimquery -server http://localhost:8080 -source 3      # query a prsimserve
//	prsimquery -server http://localhost:8080 -graphname web -class batch -source 3
//
// A -loadindex snapshot (v4, or v3) carries its own graph, so for PRSim it is
// never combined with -graph, -dataset or -generate; v1/v2 files are refused.
// When an index is loaded, -epsilon becomes a per-request accuracy target
// threaded through the request plane: larger values answer faster with
// proportionally fewer walks, values below the index's build epsilon are
// clamped up to it with a warning. -timeout bounds the query's wall-clock
// time (the deadline is checked at round boundaries).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"prsim"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "edge-list file to load")
		dsName    = flag.String("dataset", "", "benchmark dataset stand-in to generate (DB, LJ, IT, TW, UK)")
		generate  = flag.String("generate", "", "generate a synthetic graph instead: powerlaw or er")
		n         = flag.Int("n", 10000, "node count for -generate")
		avgDeg    = flag.Float64("degree", 10, "average degree for -generate")
		gamma     = flag.Float64("gamma", 2.5, "power-law exponent for -generate powerlaw")
		directed  = flag.Bool("directed", true, "generate directed edges")
		epsilon   = flag.Float64("epsilon", 0.1, "additive error target (per-request override when -loadindex is used)")
		timeout   = flag.Duration("timeout", 0, "per-query deadline (0 = none)")
		decay     = flag.Float64("decay", prsim.DefaultDecay, "SimRank decay factor c")
		seed      = flag.Uint64("seed", 1, "random seed")
		scale     = flag.Float64("samplescale", 1.0, "Monte Carlo sample scale (1.0 = paper constants)")
		source    = flag.Int("source", -1, "query node (omit to only build the index)")
		topK      = flag.Int("topk", 20, "number of results to print")
		saveIndex = flag.String("saveindex", "", "write the built index to this file")
		loadIndex = flag.String("loadindex", "", "open a saved snapshot (graph and index, memory-mapped) instead of building an index")
		algorithm = flag.String("algorithm", "PRSim", "algorithm to use (PRSim, SLING, ProbeSim, READS, TSF, TopSim, MonteCarlo)")
		server    = flag.String("server", "", "query a running prsimserve over its /v1 HTTP API instead of loading anything locally (base URL, e.g. http://localhost:8080)")
		graphName = flag.String("graphname", "", "with -server, the mounted graph to query (empty = the server's default graph)")
		class     = flag.String("class", "", "with -server, the admission class: interactive (default) or batch")
		adaptive  = flag.String("adaptive", "", "sampling mode: on (variance-based early termination), off (fixed worst-case budget), or auto/empty (the server or library default)")
	)
	flag.Parse()

	// Only an explicit -epsilon becomes a per-request override for loaded
	// indexes; the default would otherwise silently fight the build epsilon
	// stored in the snapshot.
	epsilonSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "epsilon" {
			epsilonSet = true
		}
	})

	if err := run(config{
		graphPath: *graphPath, dataset: *dsName, generate: *generate, n: *n, avgDeg: *avgDeg,
		gamma: *gamma, directed: *directed, epsilon: *epsilon, epsilonSet: epsilonSet,
		decay: *decay, seed: *seed, scale: *scale, source: *source, topK: *topK,
		saveIndex: *saveIndex, loadIndex: *loadIndex, timeout: *timeout, algorithm: *algorithm,
		server: *server, graphName: *graphName, class: *class, adaptive: *adaptive,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "prsimquery: %v\n", err)
		os.Exit(1)
	}
}

type config struct {
	graphPath, dataset, generate string
	n                            int
	avgDeg, gamma                float64
	directed                     bool
	epsilon, decay               float64
	epsilonSet                   bool
	seed                         uint64
	scale                        float64
	source, topK                 int
	saveIndex, loadIndex         string
	timeout                      time.Duration
	algorithm                    string
	server, graphName, class     string
	adaptive                     string
}

// parseAdaptive maps the -adaptive flag onto the tri-state request mode.
func parseAdaptive(v string) (prsim.AdaptiveMode, error) {
	switch v {
	case "", "auto":
		return prsim.AdaptiveAuto, nil
	case "on":
		return prsim.AdaptiveOn, nil
	case "off":
		return prsim.AdaptiveOff, nil
	default:
		return prsim.AdaptiveAuto, fmt.Errorf("-adaptive must be one of on, off, auto")
	}
}

func run(cfg config) error {
	if cfg.server != "" {
		return runRemote(cfg)
	}
	isPRSim := cfg.algorithm == "PRSim" || cfg.algorithm == "prsim"
	// A snapshot carries its own graph: with -loadindex, graph and index both
	// come out of the one file, and a second graph source could only disagree.
	fromSnapshot := isPRSim && cfg.loadIndex != ""
	if fromSnapshot && (cfg.graphPath != "" || cfg.dataset != "" || cfg.generate != "") {
		return fmt.Errorf("-loadindex snapshots carry their own graph; drop -graph, -dataset and -generate")
	}
	var g *prsim.Graph
	var err error
	if !fromSnapshot {
		if g, err = loadGraph(cfg); err != nil {
			return err
		}
		printGraph(g)
	}
	if !isPRSim {
		return runBaseline(cfg, g)
	}

	var idx *prsim.Index
	if fromSnapshot {
		if idx, err = prsim.OpenSnapshot(cfg.loadIndex, nil); err != nil {
			return err
		}
		defer idx.Close()
		printGraph(idx.Graph())
		fmt.Printf("loaded index: %d hubs, %.2f MB\n", idx.NumHubs(), float64(idx.SizeBytes())/(1<<20))
	} else {
		idx, err = prsim.BuildIndex(g, prsim.Options{
			Decay: cfg.decay, Epsilon: cfg.epsilon, Seed: cfg.seed, SampleScale: cfg.scale,
		})
		if err != nil {
			return err
		}
		st := idx.Stats()
		fmt.Printf("built index in %.3fs: %d hubs, %d entries, %.2f MB, sum pi^2 = %.6f\n",
			st.BuildTime, st.NumHubs, st.Entries, float64(idx.SizeBytes())/(1<<20), st.SecondMoment)
	}
	if cfg.saveIndex != "" {
		if err := idx.SaveFile(cfg.saveIndex); err != nil {
			return err
		}
		fmt.Printf("index written to %s\n", cfg.saveIndex)
	}
	if cfg.source < 0 {
		return nil
	}

	// Per-request epsilon applies only to loaded indexes: when the index was
	// just built, -epsilon already was the build target and the request
	// inherits it.
	req := prsim.Request{Source: cfg.source}
	if cfg.loadIndex != "" && cfg.epsilonSet {
		req.Epsilon = cfg.epsilon
	}
	if req.Adaptive, err = parseAdaptive(cfg.adaptive); err != nil {
		return err
	}
	ctx := context.Background()
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}
	resp, err := idx.Do(ctx, req)
	if err != nil {
		return err
	}
	if resp.Clamped {
		fmt.Printf("note: requested epsilon %g is below the index's build epsilon; clamped to %g\n",
			req.Epsilon, resp.Epsilon)
	} else if req.Epsilon > 0 {
		fmt.Printf("per-request epsilon %g\n", resp.Epsilon)
	}
	res := resp.Result
	stats := res.Stats()
	fmt.Printf("query from node %d took %.4fs (%d walks, %d backward-walk increments, %d index reads)\n",
		cfg.source, stats.Seconds, stats.Walks, stats.BackwardWalkCost, stats.IndexEntriesRead)
	if stats.EarlyStopped {
		fmt.Printf("adaptive early stop after %d of %d rounds\n", stats.RoundsExecuted, stats.RoundsBudget)
	}
	printTop(res.TopK(cfg.topK))
	return nil
}

// topKReplyJSON is the decoded POST /v1/graphs/{name}/topk success body.
type topKReplyJSON struct {
	Source            int     `json:"source"`
	Epsilon           float64 `json:"epsilon"`
	EpsilonEffective  float64 `json:"epsilon_effective"`
	Clamped           bool    `json:"epsilon_clamped"`
	Cached            bool    `json:"cached"`
	ServedFromTighter bool    `json:"served_from_tighter"`
	Top               []struct {
		Node  int     `json:"node"`
		Label string  `json:"label"`
		Score float64 `json:"score"`
	} `json:"top"`
}

// shedError marks a 429 shed carrying the server's telemetry-derived
// Retry-After hint (zero when the server gave none).
type shedError struct {
	msg        string
	retryAfter time.Duration
}

func (e *shedError) Error() string { return e.msg }

// Shed-retry policy: a 429 is retried a few times, sleeping for the server's
// Retry-After hint (capped so a pathological hint cannot stall the CLI, with
// ±25% jitter so a herd of scripted callers does not re-converge on the same
// instant). Every other failure is final — the server already classified it.
const (
	shedRetryAttempts = 4
	shedRetryCap      = 2 * time.Second
	shedRetryBase     = 100 * time.Millisecond
)

// shedBackoff turns the server's hint (or its absence) into the next sleep.
func shedBackoff(hint time.Duration, attempt int) time.Duration {
	wait := hint
	if wait <= 0 {
		wait = shedRetryBase * time.Duration(attempt)
	}
	if wait > shedRetryCap {
		wait = shedRetryCap
	}
	// Deterministic per-attempt jitter in [0.75, 1.25): scripted callers that
	// shed together spread out without the CLI needing a random source.
	frac := float64((uint64(time.Now().UnixNano())*0x9e3779b97f4a7c15)>>40) / float64(1<<24)
	return time.Duration(float64(wait) * (0.75 + 0.5*frac))
}

// runRemote answers the query over a prsimserve's versioned HTTP API: POST
// /v1/graphs/{name}/topk with the request-plane knobs in the JSON body. A
// 429 shed honors the server's Retry-After hint with capped, jittered
// retries; after the last attempt the shed is reported with the hint so
// scripted callers know when to come back.
func runRemote(cfg config) error {
	if cfg.source < 0 {
		return fmt.Errorf("-server mode needs -source (the server's index is already built)")
	}
	name := cfg.graphName
	if name == "" {
		name = prsim.DefaultGraph
	}
	body := map[string]any{"u": cfg.source, "k": cfg.topK}
	if cfg.epsilonSet {
		body["epsilon"] = cfg.epsilon
	}
	if cfg.class != "" {
		body["class"] = cfg.class
	}
	// Validate the spelling locally, but forward only explicit modes — an
	// absent field leaves the server's own default in charge.
	if _, err := parseAdaptive(cfg.adaptive); err != nil {
		return err
	}
	if cfg.adaptive == "on" || cfg.adaptive == "off" {
		body["adaptive"] = cfg.adaptive
	}
	if cfg.timeout > 0 {
		body["timeout_ms"] = cfg.timeout.Milliseconds()
	}
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	url := strings.TrimRight(cfg.server, "/") + "/v1/graphs/" + name + "/topk"
	var out *topKReplyJSON
	for attempt := 1; ; attempt++ {
		out, err = postTopK(url, payload)
		if err == nil {
			break
		}
		var shed *shedError
		if !errors.As(err, &shed) || attempt >= shedRetryAttempts {
			return err
		}
		wait := shedBackoff(shed.retryAfter, attempt)
		fmt.Fprintf(os.Stderr, "prsimquery: %v; retrying in %s (attempt %d/%d)\n",
			shed, wait.Round(time.Millisecond), attempt, shedRetryAttempts)
		time.Sleep(wait)
	}
	if out.Clamped {
		fmt.Printf("note: requested epsilon %g is below the index's build epsilon; clamped to %g\n",
			cfg.epsilon, out.Epsilon)
	}
	fmt.Printf("remote query from node %d on graph %q (epsilon %g, cached %v)\n",
		out.Source, name, out.Epsilon, out.Cached)
	if out.ServedFromTighter {
		fmt.Printf("served from a tighter computation at epsilon %g\n", out.EpsilonEffective)
	}
	for rank, s := range out.Top {
		label := s.Label
		if label == "" {
			label = fmt.Sprint(s.Node)
		}
		fmt.Printf("%3d. node %-8s s = %.5f\n", rank+1, label, s.Score)
	}
	return nil
}

// postTopK issues one attempt against the server, decoding the error
// envelope on failure. A 429 comes back as *shedError with the Retry-After
// hint (the envelope's retry_after_ms, or the Retry-After header's seconds);
// everything else is a terminal error.
func postTopK(url string, payload []byte) (*topKReplyJSON, error) {
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var envelope struct {
			Error struct {
				Code         string `json:"code"`
				Message      string `json:"message"`
				RetryAfterMS int64  `json:"retry_after_ms"`
			} `json:"error"`
		}
		msg := fmt.Sprintf("server returned %s", resp.Status)
		hint := time.Duration(0)
		if err := json.NewDecoder(resp.Body).Decode(&envelope); err == nil && envelope.Error.Code != "" {
			msg = fmt.Sprintf("server returned %s (%s): %s", resp.Status, envelope.Error.Code, envelope.Error.Message)
			hint = time.Duration(envelope.Error.RetryAfterMS) * time.Millisecond
		}
		if hint <= 0 {
			if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
				hint = time.Duration(secs) * time.Second
			}
		}
		if hint > 0 {
			msg += fmt.Sprintf("; retry after %s", hint)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			return nil, &shedError{msg: msg, retryAfter: hint}
		}
		return nil, errors.New(msg)
	}
	out := &topKReplyJSON{}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return nil, fmt.Errorf("decoding server response: %v", err)
	}
	return out, nil
}

func runBaseline(cfg config, g *prsim.Graph) error {
	algo, err := prsim.NewAlgorithm(cfg.algorithm, g, prsim.BaselineConfig{
		Decay: cfg.decay, Epsilon: cfg.epsilon, Seed: cfg.seed, SampleScale: cfg.scale,
	})
	if err != nil {
		return err
	}
	if cfg.source < 0 {
		fmt.Printf("%s prepared; pass -source to run a query\n", algo.Name())
		return nil
	}
	scores, err := algo.SingleSource(cfg.source)
	if err != nil {
		return err
	}
	fmt.Printf("%s single-source query from node %d returned %d non-zero scores\n",
		algo.Name(), cfg.source, len(scores))
	type kv struct {
		node  int
		score float64
	}
	var top []kv
	for v, s := range scores {
		if v != cfg.source {
			top = append(top, kv{v, s})
		}
	}
	for i := 0; i < len(top); i++ {
		for j := i + 1; j < len(top); j++ {
			if top[j].score > top[i].score {
				top[i], top[j] = top[j], top[i]
			}
		}
	}
	if len(top) > cfg.topK {
		top = top[:cfg.topK]
	}
	for rank, e := range top {
		fmt.Printf("%3d. node %-8d s = %.5f\n", rank+1, e.node, e.score)
	}
	return nil
}

func loadGraph(cfg config) (*prsim.Graph, error) {
	switch {
	case cfg.graphPath != "":
		return prsim.LoadGraphFile(cfg.graphPath)
	case cfg.dataset != "":
		return prsim.LoadDataset(cfg.dataset)
	case cfg.generate == "powerlaw":
		return prsim.GeneratePowerLawGraph(cfg.n, cfg.avgDeg, cfg.gamma, cfg.directed, cfg.seed)
	case cfg.generate == "er":
		return prsim.GenerateERGraph(cfg.n, cfg.avgDeg, cfg.directed, cfg.seed)
	default:
		return nil, fmt.Errorf("specify one of -graph, -dataset or -generate")
	}
}

func printGraph(g *prsim.Graph) {
	fmt.Printf("graph: %d nodes, %d edges, average degree %.2f\n", g.NumNodes(), g.NumEdges(), g.AverageDegree())
	if gamma, ok := g.OutDegreeExponent(); ok {
		fmt.Printf("fitted out-degree power-law exponent gamma = %.2f\n", gamma)
	}
}

func printTop(top []prsim.ScoredNode) {
	for rank, s := range top {
		fmt.Printf("%3d. node %-8s s = %.5f\n", rank+1, s.Label, s.Score)
	}
}
