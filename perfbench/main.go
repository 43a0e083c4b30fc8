// Command perfbench is the repository benchmark. One invocation builds the
// standard power-law index from a seed, serves it from a real prsimserve on
// loopback, drives one workload over the /v1 API with at most two
// connections, checks every answer, and prints the end-to-end metrics; with
// -trace 1 it instead replays the same seeded requests through each layer's
// entry point and prints the per-layer metrics.
//
//	bash perfbench/run.sh --workload interactive --seed 1 --seconds 15 --trace 0
//
// run.sh builds this command and prsimserve from the checkout first. The
// last line of standard output is the result: {"correct", "attempted",
// "failed", "metrics"}; the line before it is a report with the environment,
// the input hash, per-kind operation counts and the failures. See README.md
// for the workloads, the metrics and the layers each one exercises.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"prsim/internal/core"
	"prsim/internal/graph"
)

// workload is one traffic mix.
type workload struct {
	name    string
	readers int     // read connections
	writer  bool    // one more connection posting single-edge inserts
	batch   bool    // reads are fused batches instead of /topk
	skew    float64 // Zipf exponent of /topk sources; 0 draws them uniformly
	tail    float64 // percentile reported as tail_ms
}

var workloads = map[string]workload{
	"interactive": {name: "interactive", readers: 2, skew: zipfS, tail: 0.99},
	"batch":       {name: "batch", readers: 2, batch: true, tail: 0.90},
	"mixed":       {name: "mixed", readers: 1, writer: true, tail: 0.99},
}

// scale sizes a run. full is the benchmark; the benchmark's own tests run
// the same code at quick scale.
type scale struct {
	nodes   int
	setups  int // set-ups per run; setup_s is their median
	sampled int // sources whose answers are checked against the oracle
	durable int // sources compared byte for byte across the restart
}

var (
	fullScale  = scale{nodes: 150_000, setups: 3, sampled: 6, durable: 8}
	quickScale = scale{nodes: 3_000, setups: 3, sampled: 3, durable: 4}
)

type config struct {
	workload workload
	seed     uint64
	seconds  float64
	trace    bool
	scale    scale
	server   string // prsimserve binary
	workdir  string // parent of the run's temporary directory
	// callers and requests are for tests: callers > 0 overrides the
	// workload's read connections, and requests > 0 makes a traced run
	// replay exactly that many reads (and at most requests/50+1 updates)
	// instead of running for seconds.
	callers  int
	requests int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opCount counts operations of one kind.
type opCount struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
}

// report is printed before the result: what ran, on what, and what failed.
type report struct {
	Workload   string              `json:"workload"`
	Seed       uint64              `json:"seed"`
	Trace      bool                `json:"trace"`
	Env        map[string]any      `json:"env"`
	InputsHash string              `json:"inputs_sha256"`
	Graph      map[string]int      `json:"graph"`
	Ops        map[string]*opCount `json:"ops"`
	Details    map[string]any      `json:"details"`
	Failures   []string            `json:"failures,omitempty"`
}

func (rp *report) count(kind string, failed bool, msg string) {
	c := rp.Ops[kind]
	if c == nil {
		c = &opCount{}
		rp.Ops[kind] = c
	}
	c.Attempted++
	if failed {
		c.Failed++
		if len(rp.Failures) < 20 {
			rp.Failures = append(rp.Failures, kind+": "+msg)
		}
	}
}

func (rp *report) result(metrics map[string]metric) *result {
	res := &result{Metrics: metrics}
	for _, c := range rp.Ops {
		res.Attempted += c.Attempted
		res.Failed += c.Failed
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res
}

func main() {
	var (
		name    string
		trace   int
		seconds float64
		seed    uint64
		server  string
		workdir string
	)
	flag.StringVar(&name, "workload", "interactive", "workload: interactive, batch or mixed")
	flag.Uint64Var(&seed, "seed", 1, "seed of the graph, the index and every request")
	flag.Float64Var(&seconds, "seconds", 15, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 replays the requests layer by layer and prints per-layer metrics")
	flag.StringVar(&server, "server", ".bench_build/bin/prsimserve", "prsimserve binary")
	flag.StringVar(&workdir, "workdir", ".bench_build", "directory for the run's temporary files")
	flag.Parse()
	w, ok := workloads[name]
	if !ok || (trace != 0 && trace != 1) || seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments: workload %q, trace %d, seconds %v\n", name, trace, seconds)
		os.Exit(2)
	}
	cfg := config{workload: w, seed: seed, seconds: seconds, trace: trace == 1, scale: fullScale,
		server: server, workdir: workdir}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	rp, res, err := run(ctx, cfg)
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s %s seed %d failed: %v\n", w.name, map[bool]string{true: "trace", false: "run"}[cfg.trace], seed, err)
		os.Exit(1)
	}
	for _, f := range rp.Failures {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", f)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(rp); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// run performs one invocation. Whatever happens — an error, a panic, a
// cancelled context — every server it started is stopped and its temporary
// directory removed before it returns.
func run(ctx context.Context, cfg config) (rp *report, res *result, err error) {
	dir, err := os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		return nil, nil, fmt.Errorf("temporary directory: %w", err)
	}
	defer os.RemoveAll(dir)
	defer stopAll()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()

	in, err := makeInputs(cfg.workload, cfg.scale, cfg.seed, cfg.seconds)
	if err != nil {
		return nil, nil, err
	}
	rp = &report{
		Workload: cfg.workload.name, Seed: cfg.seed, Trace: cfg.trace,
		Env: environment(), InputsHash: in.hash, Ops: map[string]*opCount{}, Details: map[string]any{},
	}
	st, err := setup(ctx, cfg, in, dir)
	if err != nil {
		return nil, nil, err
	}
	rp.Graph = map[string]int{"nodes": in.g.N(), "edges": in.g.M(), "hubs": st.hubs, "entries": st.entries}
	var metrics map[string]metric
	if cfg.trace {
		metrics, err = runTrace(ctx, cfg, in, st, rp)
	} else {
		metrics, err = runTimed(ctx, cfg, in, st, dir, rp)
	}
	if err != nil {
		return nil, nil, err
	}
	return rp, rp.result(metrics), nil
}

// setupResult is the outcome of the set-ups, whose servers are all stopped
// again: snap is the snapshot the measurement starts from.
type setupResult struct {
	snap           string
	setupS, buildS []float64
	saveMS         []float64
	readyMS        []float64
	hubs, entries  int
	snapMB         float64
}

// setup builds the index, saves it as a self-contained snapshot and starts
// prsimserve on it, scale.setups times; setup_s is BuildIndex + SaveFile +
// exec-to-healthy. Each build runs on a fresh copy of the graph, because
// BuildIndex sorts adjacency lists in place.
func setup(ctx context.Context, cfg config, in *inputs, dir string) (*setupResult, error) {
	st := &setupResult{snap: filepath.Join(dir, "index.prsim")}
	// Collecting before each build and after the last keeps this process's
	// garbage (each build allocates hundreds of MB) from being collected
	// while a set-up or the window is being timed.
	defer runtime.GC()
	for i := 0; i < cfg.scale.setups; i++ {
		g := in.g.Clone()
		runtime.GC()
		t0 := time.Now()
		idx, err := core.BuildIndex(g, indexOptions(cfg.seed))
		if err != nil {
			return nil, fmt.Errorf("build index: %w", err)
		}
		t1 := time.Now()
		if err := idx.SaveFile(st.snap); err != nil {
			return nil, fmt.Errorf("save snapshot: %w", err)
		}
		t2 := time.Now()
		srv, err := startServer(ctx, cfg.server, st.snap)
		if err != nil {
			return nil, err
		}
		st.buildS = append(st.buildS, t1.Sub(t0).Seconds())
		st.saveMS = append(st.saveMS, float64(t2.Sub(t1))/1e6)
		st.readyMS = append(st.readyMS, float64(srv.ready)/1e6)
		st.setupS = append(st.setupS, (t2.Sub(t0) + srv.ready).Seconds())
		st.hubs, st.entries = idx.NumHubs(), idx.SizeEntries()
		if err := srv.stop(); err != nil {
			return nil, fmt.Errorf("stop set-up server: %w\nserver output:\n%s", err, srv.stderr.String())
		}
	}
	fi, err := os.Stat(st.snap)
	if err != nil {
		return nil, err
	}
	st.snapMB = float64(fi.Size()) / (1 << 20)
	return st, nil
}

// trials is the number of server processes a timed run's window is split
// over.
const trials = 3

// trial is one measured server process and what it was sent.
type trial struct {
	srv   *server
	snap  string   // the server's own copy of the snapshot
	reads []read   // the trial's slice of the read sequence
	edges [][2]int // the trial's slice of the insert sequence
	p     *pass
	rss   float64
}

// runTimed measures the workload end to end with tracing off, then checks
// durability (mixed) and accuracy on the last trial's server.
//
// The window is split evenly over trials server processes, run one after
// another, and the operations of all of them are pooled into every metric.
// A fresh prsimserve on the same snapshot can run ±10% faster or slower than
// the previous one, so a window spent on one process measures partly which
// process it got.
func runTimed(ctx context.Context, cfg config, in *inputs, st *setupResult, dir string, rp *report) (map[string]metric, error) {
	w := cfg.workload
	trs := make([]*trial, trials)
	total0, steal0 := cpuTimes()
	for t := range trs {
		tr, err := runTrial(ctx, cfg, in, st, dir, t)
		if err != nil {
			return nil, err
		}
		trs[t] = tr
		if t < trials-1 {
			if err := tr.srv.stop(); err != nil {
				return nil, failWith(fmt.Errorf("stop trial server: %w", err), tr.srv)
			}
		}
	}
	total1, steal1 := cpuTimes()
	if total1 > total0 {
		rp.Details["cpu_steal_share"] = (steal1 - steal0) / (total1 - total0)
	}
	var (
		lat, updLat, rss   []float64
		acked              [][2]int      // the last trial's, which the checks below run on
		measured           time.Duration // the trials' windows added up
		sources            int
		trialQPS, trialP50 []float64
		perSecond          [][]int
	)
	for _, tr := range trs {
		p := tr.p
		var tlat []float64
		for i, r := range p.reads[:p.nReads] {
			rp.count(tr.reads[i].kind.String(), r.err != nil, errString(r.err))
			if r.err == nil {
				tlat = append(tlat, r.ms())
				sources += len(tr.reads[i].sources)
			}
		}
		acked = nil
		for i, u := range p.updates[:p.nUpds] {
			rp.count("update", u.err != nil, errString(u.err))
			if u.err == nil {
				acked = append(acked, tr.edges[i])
				updLat = append(updLat, u.ms())
			}
		}
		lat = append(lat, tlat...)
		measured += p.window
		rss = append(rss, tr.rss)
		sort.Float64s(tlat)
		trialQPS = append(trialQPS, float64(len(tlat))/p.window.Seconds())
		trialP50 = append(trialP50, percentile(tlat, 0.5))
		ps := make([]int, int(p.window.Seconds())+1)
		for _, r := range p.reads[:p.nReads] {
			ps[int(r.end.Seconds())]++
		}
		perSecond = append(perSecond, ps)
	}
	last := trs[trials-1]
	srv := last.srv
	h := newHTTPTarget(srv.base, in.g.N())
	defer h.close()
	g := in.g
	if w.writer {
		var err error
		if g, err = applyEdges(in.g, acked); err != nil {
			return nil, err
		}
		if srv, err = checkDurable(ctx, cfg, in, last, h, len(acked), rp); err != nil {
			return nil, err
		}
		h = newHTTPTarget(srv.base, g.N())
		defer h.close()
	}
	if _, err := servedAccuracy(ctx, cfg, in, g, h, rp); err != nil {
		return nil, failWith(err, srv)
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no read succeeded; first failure: %v", rp.Failures)
	}
	sort.Float64s(lat)
	rp.Details["trial_qps"] = trialQPS
	rp.Details["trial_p50_ms"] = trialP50
	rp.Details["read_samples"] = len(lat)
	rp.Details["tail_percentile"] = w.tail
	rp.Details["tail_samples_above"] = len(lat) - rank(len(lat), w.tail)
	rp.Details["window_s"] = measured.Seconds()
	rp.Details["warmup_reads"] = len(in.warm)
	rp.Details["reads_per_second"] = perSecond
	rp.Details["setup_s_samples"] = st.setupS
	if w.writer {
		sort.Float64s(updLat)
		rp.Details["update_samples"] = len(updLat)
		rp.Details["update_p50_ms"] = percentile(updLat, 0.5)
	}
	return map[string]metric{
		"setup_s":       {median(st.setupS), "s"},
		"rss_mb":        {median(rss), "MB"},
		"qps":           {float64(len(lat)) / measured.Seconds(), "req/s"},
		"p50_ms":        {percentile(lat, 0.5), "ms"},
		"tail_ms":       {percentile(lat, w.tail), "ms"},
		"sources_per_s": {float64(sources) / measured.Seconds(), "1/s"},
	}, nil
}

// runTrial starts a server on its own copy of the snapshot, warms it up and
// drives trial t's slice of the request sequences for its share of the
// window. The server is left running.
func runTrial(ctx context.Context, cfg config, in *inputs, st *setupResult, dir string, t int) (*trial, error) {
	tr := &trial{
		snap:  filepath.Join(dir, fmt.Sprintf("trial-%d.prsim", t)),
		reads: in.reads[t*len(in.reads)/trials : (t+1)*len(in.reads)/trials],
		edges: in.edges[t*len(in.edges)/trials : (t+1)*len(in.edges)/trials],
	}
	if err := copyFile(st.snap, tr.snap); err != nil {
		return nil, err
	}
	srv, err := startServer(ctx, cfg.server, tr.snap)
	if err != nil {
		return nil, err
	}
	tr.srv = srv
	h := newHTTPTarget(srv.base, in.g.N())
	defer h.close()
	if err := warmUp(ctx, h, cfg.readers(), in); err != nil {
		return nil, failWith(err, srv)
	}
	lim := window(cfg.seconds / trials)
	if tr.p, err = drive(ctx, h, cfg.readers(), tr.reads, tr.edges, lim); err != nil {
		return nil, failWith(err, srv)
	}
	if tr.rss, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}
	return tr, nil
}

// window limits a pass to seconds.
func window(seconds float64) limits {
	return limits{d: time.Duration(seconds * float64(time.Second))}
}

// readers is the number of read connections.
func (cfg config) readers() int {
	if cfg.callers > 0 {
		return cfg.callers
	}
	return cfg.workload.readers
}

// warmUp sends the unmeasured warm-up reads; a failed one fails the run.
func warmUp(ctx context.Context, t target, readers int, in *inputs) error {
	p, err := drive(ctx, t, readers, in.warm, nil, limits{reads: len(in.warm)})
	if err != nil {
		return err
	}
	for _, r := range p.reads {
		if r.err != nil {
			return fmt.Errorf("warm-up: %w", r.err)
		}
	}
	return nil
}

// applyEdges returns g with the inserted edges, as the server holds it.
func applyEdges(g *graph.Graph, edges [][2]int) (*graph.Graph, error) {
	ups := make([]graph.EdgeUpdate, len(edges))
	for i, e := range edges {
		ups[i] = graph.EdgeUpdate{From: e[0], To: e[1]}
	}
	c := g.Clone()
	if err := c.ApplyUpdates(ups); err != nil {
		return nil, fmt.Errorf("apply inserted edges: %w", err)
	}
	return c.Compact(), nil
}

// checkDurable restarts the server after the writer's last acknowledged
// update and checks that nothing acknowledged was lost: the update
// generation and edge count account for every update, and a sample of
// uncached answers is byte-identical before and after. It returns the
// restarted server.
func checkDurable(ctx context.Context, cfg config, in *inputs, tr *trial, h *httpTarget, acked int, rp *report) (*server, error) {
	var paths []string
	seen := map[int]bool{}
	for _, r := range in.reads {
		if u := r.sources[0]; !seen[u] {
			seen[u] = true
			paths = append(paths, topkPath(u, reqKind(len(paths)%3), true))
		}
		if len(paths) == cfg.scale.durable {
			break
		}
	}
	before := make([][]byte, len(paths))
	for i, p := range paths {
		body, err := h.do(ctx, "GET", p, nil)
		if err != nil {
			return nil, failWith(fmt.Errorf("durability sample before restart: %w", err), tr.srv)
		}
		before[i] = body
	}
	h.close()
	if err := tr.srv.stop(); err != nil {
		rp.count("durability", true, fmt.Sprintf("shutdown after %d updates: %v", acked, err))
	}
	srv, err := startServer(ctx, cfg.server, tr.snap)
	if err != nil {
		return nil, fmt.Errorf("restart on the published snapshot: %w", err)
	}
	tr.srv = srv
	h2 := newHTTPTarget(srv.base, in.g.N())
	defer h2.close()
	gs, err := h2.stats(ctx)
	if err != nil {
		return nil, failWith(err, srv)
	}
	want := uint64(1 + acked)
	rp.count("durability", gs.Index.UpdateGeneration != want,
		fmt.Sprintf("update_generation %d after restart, want %d", gs.Index.UpdateGeneration, want))
	rp.count("durability", gs.Graph.Edges != in.g.M()+acked,
		fmt.Sprintf("%d edges after restart, want %d + %d", gs.Graph.Edges, in.g.M(), acked))
	for i, p := range paths {
		body, err := h2.do(ctx, "GET", p, nil)
		if err != nil {
			return nil, failWith(fmt.Errorf("durability sample after restart: %w", err), srv)
		}
		rp.count("durability", string(body) != string(before[i]), fmt.Sprintf("%s differs across the restart", p))
	}
	rp.Details["durability_updates_acknowledged"] = acked
	return srv, nil
}

// sampleSources returns the first k distinct sources of the read sequence
// that have an in-neighbour in g, so their SimRank rows are not all zero.
func sampleSources(in *inputs, g *graph.Graph, k int) []int {
	var out []int
	seen := map[int]bool{}
	for _, r := range in.reads {
		for _, u := range r.sources {
			if !seen[u] && g.InDegree(u) > 0 {
				seen[u] = true
				out = append(out, u)
				if len(out) == k {
					return out
				}
			}
		}
	}
	return out
}

// servedAccuracy fetches the answers of a seeded sample of sources in every
// request kind of the workload, checks them against the oracle on g, the
// graph the server holds now, and counts each as an operation.
func servedAccuracy(ctx context.Context, cfg config, in *inputs, g *graph.Graph, h *httpTarget, rp *report) (*accuracy, error) {
	sources := sampleSources(in, g, cfg.scale.sampled)
	var answers []answer
	if cfg.workload.batch {
		body, err := h.do(ctx, "POST", "/v1/graphs/default/query", batchBody(sources))
		var tops [][]scoredJSON
		if err == nil {
			tops, err = checkBatch(body, sources, g.N())
		}
		if err != nil {
			rp.count("accuracy", true, err.Error())
			return &accuracy{}, nil
		}
		for i, u := range sources {
			answers = append(answers, answer{kind: kindBatch.String(), u: u, eps: batchEps, top: tops[i]})
		}
	} else {
		for _, u := range sources {
			for k := kindAdaptive; k <= kindFixed2x; k++ {
				var ans topkJSON
				body, err := h.do(ctx, "GET", topkPath(u, k, false), nil)
				if err == nil {
					ans, err = checkTopK(body, u, g.N())
				}
				if err != nil {
					rp.count("accuracy", true, err.Error())
					continue
				}
				answers = append(answers, answer{kind: k.String(), u: u, eps: k.epsilon(), top: ans.Top})
			}
		}
	}
	acc, err := checkAccuracy(g, cfg.seed, answers)
	if err != nil {
		return nil, err
	}
	for i := 0; i < acc.checked; i++ {
		msg := ""
		if i < len(acc.failures) {
			msg = acc.failures[i]
		}
		rp.count("accuracy", i < len(acc.failures), msg)
	}
	if acc.precisionN > 0 {
		rp.count("precision", acc.precisionFailure != "", acc.precisionFailure)
	}
	rp.Details["accuracy_answers"] = acc.checked
	rp.Details["max_abs_error"] = acc.maxAbsError
	rp.Details["precision_at_10"] = acc.precision
	rp.Details["precisions"] = acc.precisions
	return acc, nil
}

// failWith attaches the server's output to err.
func failWith(err error, srv *server) error {
	return fmt.Errorf("%w\nserver output:\n%s", err, srv.stderr.String())
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// rank is the 1-based nearest rank of percentile p among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p * float64(n)))
	return max(1, min(r, n))
}

// percentile returns the nearest-rank percentile p of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// environment records what the numbers were measured on.
func environment() map[string]any {
	env := map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     "unknown",
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if out, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output(); err == nil {
		env["commit"] = strings.TrimSpace(string(out))
	}
	if sum, err := sourceDigest("."); err == nil {
		env["source_sha256"] = sum
	}
	return env
}

// sourceDigest hashes the Go sources and module files under root, outside
// the benchmark and build directories: the commit's identity when the
// checkout is not a git repository.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
