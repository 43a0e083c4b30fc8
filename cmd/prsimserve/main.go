// Command prsimserve is a multi-graph HTTP serving tier for PRSim
// single-source SimRank queries. It mounts one or more logical graphs —
// snapshot files, or an index built at startup — into a registry and serves
// them through a versioned, graph-scoped JSON API:
//
//	prsimquery -graph graph.txt -saveindex idx.prsim          # build once
//	prsimserve -loadindex idx.prsim -addr :8080               # graph + index, one mmap
//	prsimserve -loadindex idx.prsim -shards 4 -watch 2s       # sharded + hot reload
//	prsimserve -dataset DB -epsilon 0.1                       # build at startup
//
// A -loadindex snapshot (v4, or v3) carries its own graph, so it is never
// combined with -graph or -dataset; v1/v2 files are refused at startup.
//
// The boot-time graph mounts under the name "default"; further graphs mount
// and unmount at runtime through the admin endpoints. Each graph is served
// by -shards engine shards sharing one zero-copy snapshot mapping: sources
// hash to shards (stable splitmix64), single-source queries route
// point-to-point, batches and multi-source top-k scatter-gather with a
// deterministic merge — answers are bit-identical to a single-engine run at
// any shard count.
//
// Admission control is deadline-aware and two-class: interactive requests
// (the default) are dispatched ahead of queued batch-class work, each class
// has its own bounded queue (-maxqueue, per class), and a request whose
// timeout_ms provably cannot be met — predicted queue wait from observed
// per-class service times exceeds the deadline — is shed immediately with
// 429 and a telemetry-derived Retry-After instead of timing out in line.
//
// Endpoints (see README for the full reference):
//
//	GET/POST /v1/graphs/{name}/query    single-source / batch query
//	GET/POST /v1/graphs/{name}/topk     top-k (multi-source merges globally)
//	GET  /v1/graphs/{name}/pair         single-pair SimRank s(u, v)
//	GET  /v1/graphs/{name}/stats        per-graph engine/shard statistics
//	POST /v1/graphs/{name}/edges        apply streamed edge mutations
//	POST /v1/graphs/{name}/reload       re-open backing, swap without drops
//	GET  /v1/graphs                     list mounted graphs
//	PUT  /v1/graphs/{name}              mount a snapshot
//	DELETE /v1/graphs/{name}            unmount
//	GET  /v1/stats                      server-wide statistics
//	GET  /healthz, /v1/healthz          liveness probe
//
// Every query endpoint accepts the same per-request knobs — epsilon, k,
// limit, timeout_ms, no_cache, parallelism, class ("interactive" or
// "batch"), graph (body/param alternative to the path) — as URL parameters
// on GET or a JSON body on POST. Errors share one envelope:
// {"error":{"code":..., "message":..., "retry_after_ms":...}}.
//
// Hot reload: with -watch the default graph's snapshot file is polled and a
// change swaps in the re-opened snapshot on every shard without dropping
// in-flight requests; POST /v1/graphs/default/reload triggers the same swap
// on demand. With -verifyevery the serving snapshot's CRC-32C is re-verified
// in the background, and a failed verification triggers an automatic
// rollback to a freshly verified re-open of the snapshot path.
//
// Streaming mutations: POST /v1/graphs/{name}/edges applies a batch of edge
// insertions/deletions incrementally (only the hubs the batch can perturb are
// recomputed), publishes the successor as a delta file next to the snapshot
// (<snapshot>.delta; a full rewrite once the delta passes -rewriteratio of
// the base size), and hot-swaps every shard with impact-filtered cache
// retention. Opens and reloads layer a published delta back over its base
// automatically. Admin endpoints (edges, reload, mount, unmount) can be gated
// behind a bearer token with -admintoken.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"prsim"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.graphPath, "graph", "", "edge-list file to build an index over at startup (not with -loadindex)")
	flag.StringVar(&cfg.dataset, "dataset", "", "benchmark dataset stand-in to generate and index at startup (DB, LJ, IT, TW, UK; not with -loadindex)")
	flag.StringVar(&cfg.loadIndex, "loadindex", "", "saved snapshot to serve: graph and index are memory-mapped out of the one file (skips preprocessing)")
	flag.BoolVar(&cfg.mmapVerify, "mmapverify", false, "verify the -loadindex snapshot checksum at every open (reads the whole file once)")
	flag.DurationVar(&cfg.watch, "watch", 0, "poll -loadindex for changes at this interval and hot-swap on change (0 disables)")
	flag.Float64Var(&cfg.epsilon, "epsilon", 0.1, "additive error target when building an index")
	flag.Float64Var(&cfg.decay, "decay", prsim.DefaultDecay, "SimRank decay factor c")
	flag.Float64Var(&cfg.scale, "samplescale", 1.0, "Monte Carlo sample scale (1.0 = paper constants)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "random seed")
	flag.IntVar(&cfg.maxLevels, "maxlevels", 0, "cap on walk levels (0 = default 64)")
	flag.IntVar(&cfg.shards, "shards", 1, "engine shards per graph: independent worker pools and caches over one shared snapshot mapping (answers are bit-identical at any shard count)")
	flag.IntVar(&cfg.workers, "workers", 0, "concurrent query workers per shard (0 = GOMAXPROCS)")
	flag.IntVar(&cfg.parallel, "parallel", 0, "default intra-query parallelism hint: walk chunks per query may run on up to this many workers (0 = auto: borrow idle workers; 1 = serial)")
	flag.BoolVar(&cfg.adaptive, "adaptive", false, "default requests with no adaptive field to variance-based early termination (per-request adaptive=on/off always wins)")
	flag.IntVar(&cfg.cacheSize, "cache", 1024, "per-shard LRU result cache size (0 disables)")
	flag.IntVar(&cfg.maxQueue, "maxqueue", 0, "per-class admission queue bound before requests are shed with 429 (0 = max(32, 4*workers), negative = unbounded)")
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.DurationVar(&cfg.timeout, "timeout", 30*time.Second, "per-request deadline ceiling (timeout_ms may only shorten it)")
	flag.DurationVar(&cfg.verifyEvery, "verifyevery", 0, "re-verify the snapshot checksum in the background at this interval (0 disables)")
	flag.StringVar(&cfg.adminToken, "admintoken", "", "bearer token required on admin endpoints (reload, mount, unmount, edges, health); empty leaves the admin plane open")
	flag.StringVar(&cfg.shardMap, "shardmap", "", "JSON shard-map file mounting remote graphs at boot: {\"graphs\":{name:{\"placement\":[[endpoint,...],...],...}}}")
	flag.DurationVar(&cfg.drainTimeout, "draintimeout", 15*time.Second, "graceful-shutdown drain budget: on SIGTERM/SIGINT stop accepting and wait this long for in-flight requests before exiting")
	flag.Float64Var(&cfg.rewriteRatio, "rewriteratio", 0.5, "full-rewrite threshold for edge updates: republish the whole snapshot once the delta would exceed this fraction of the base size")
	flag.Float64Var(&cfg.driftBudget, "mutatedrift", 0, "drift budget for edge updates in units of rmax: hubs perturbed by at most this much skip recomputation (bounded score drift, smaller update footprint); 0 keeps updates bit-exact")
	flag.Parse()

	srv, err := buildServer(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "prsimserve: %v\n", err)
		os.Exit(1)
	}
	idx := srv.def.Current()
	log.Printf("prsimserve: graph %q %d nodes / %d edges (%s-backed), %d hubs (%s-backed, ready in %s), %d shards x %d workers, listening on %s",
		prsim.DefaultGraph, idx.Graph().NumNodes(), idx.Graph().NumEdges(), idx.GraphBacking(), idx.NumHubs(),
		idx.Backing(), srv.loadTime.Round(time.Millisecond), srv.def.NumShards(),
		srv.def.StatsAggregate().Workers/srv.def.NumShards(), cfg.addr)
	if cfg.watch > 0 {
		go srv.watch(cfg.watch)
		log.Printf("prsimserve: watching %s every %s for hot reload", cfg.loadIndex, cfg.watch)
	}
	if cfg.verifyEvery > 0 {
		go srv.verifyLoop(cfg.verifyEvery)
		log.Printf("prsimserve: verifying snapshot checksum every %s in the background", cfg.verifyEvery)
	}
	if cfg.shardMap != "" {
		if err := srv.mountShardMap(cfg.shardMap); err != nil {
			fmt.Fprintf(os.Stderr, "prsimserve: shard map: %v\n", err)
			os.Exit(1)
		}
	}
	hs := &http.Server{
		Addr:    cfg.addr,
		Handler: srv.handler(),
		// Guard the listener against stalled clients: bound header reads and
		// idle keep-alives, and cap response writes a little past the
		// per-request query deadline.
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      srv.timeout + 5*time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	// Graceful shutdown: on SIGTERM/SIGINT stop accepting, drain in-flight
	// requests within -draintimeout, then stop the background loops and
	// close every mounted graph (releasing snapshot mappings and remote
	// shard clients) before exiting.
	ctx, stopSignals := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stopSignals()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "prsimserve: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
		stopSignals() // a second signal kills the process immediately
	}
	log.Printf("prsimserve: shutting down (draining for up to %s)", cfg.drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		log.Printf("prsimserve: drain incomplete: %v", err)
	}
	close(srv.stop)
	if err := srv.reg.Close(); err != nil {
		log.Printf("prsimserve: closing registry: %v", err)
	}
	log.Printf("prsimserve: shutdown complete")
}

type config struct {
	graphPath, dataset string
	loadIndex          string
	mmapVerify         bool
	watch              time.Duration
	verifyEvery        time.Duration
	epsilon, decay     float64
	scale              float64
	seed               uint64
	maxLevels          int
	shards             int
	workers, cacheSize int
	parallel           int
	adaptive           bool
	maxQueue           int
	addr               string
	timeout            time.Duration
	adminToken         string
	rewriteRatio       float64
	driftBudget        float64
	shardMap           string
	drainTimeout       time.Duration
}

// remoteTransport, when non-nil, overrides the HTTP transport of every
// remote graph mounted by this server — the test seam that lets chaos tests
// drive remote mounts through an in-process handler or fault injector
// without a network.
var remoteTransport http.RoundTripper

// server wires the multi-graph registry to the HTTP surface; its handler is
// separable from the listener so tests can drive it through httptest. The
// watch/verify/rollback machinery applies to the default graph (the one
// whose snapshot file the flags name); runtime-mounted graphs reload on
// demand through the admin API.
type server struct {
	cfg      config
	reg      *prsim.Registry
	def      *prsim.Served // the default graph's serving handle
	start    time.Time
	timeout  time.Duration
	loadTime time.Duration // time to load/build the index at startup

	// reloadMu serializes default-graph reloads (manual and
	// watcher-triggered); queries never take it. The fields below it record
	// the last successful load.
	reloadMu     sync.Mutex
	lastLoadTime time.Duration
	lastLoadAt   time.Time
	watchedMod   time.Time
	watchedSize  int64

	// mutMu guards the mutator map; each graph's mutation pipeline state
	// (apply→publish→swap serialization, delta base gens, counters) lives in
	// its mutator (see mutate.go).
	mutMu    sync.Mutex
	mutators map[string]*mutator

	// verifyMu guards the background checksum-verification status below it.
	verifyMu      sync.Mutex
	verifies      int64
	rolledBack    int64
	lastVerifyAt  time.Time
	lastVerifyDur time.Duration
	lastVerifyErr error
	lastVerifyGen uint64

	// stop ends the watch and verify loops (used by tests; main lets them
	// run forever).
	stop chan struct{}
}

// buildServer opens the -loadindex snapshot, or loads a graph and builds its
// index, and mounts the result under the default graph name.
func buildServer(cfg config) (*server, error) {
	var g *prsim.Graph
	var err error
	switch {
	case cfg.loadIndex != "" && (cfg.graphPath != "" || cfg.dataset != ""):
		// The snapshot embeds the graph its index was built from; a second
		// graph source could only disagree with it.
		return nil, fmt.Errorf("-loadindex snapshots carry their own graph; drop -graph and -dataset")
	case cfg.loadIndex != "":
		// The graph comes out of the snapshot file itself.
	case cfg.graphPath != "":
		g, err = prsim.LoadGraphFile(cfg.graphPath)
	case cfg.dataset != "":
		g, err = prsim.LoadDataset(cfg.dataset)
	default:
		return nil, fmt.Errorf("specify -loadindex, -graph, or -dataset")
	}
	if err != nil {
		return nil, err
	}
	if cfg.watch > 0 && cfg.loadIndex == "" {
		return nil, fmt.Errorf("-watch requires -loadindex (a snapshot file to watch)")
	}

	// Capture the snapshot file's identity before opening it, mirroring
	// reload(): a file republished mid-open must trip the watcher later.
	startMod, startSize := statWatched(cfg.loadIndex)
	loadStart := time.Now()
	reg := prsim.NewRegistry()
	def, err := reg.MountOpener(prsim.DefaultGraph, cfg.graphConfig(), func() (*prsim.Index, error) {
		return openIndex(cfg, g)
	})
	if err != nil {
		return nil, err
	}
	loadTime := time.Since(loadStart)
	timeout := cfg.timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	s := &server{
		cfg: cfg, reg: reg, def: def,
		start: time.Now(), timeout: timeout,
		loadTime: loadTime, lastLoadTime: loadTime, lastLoadAt: time.Now(),
		mutators: make(map[string]*mutator),
		stop:     make(chan struct{}),
	}
	s.watchedMod, s.watchedSize = startMod, startSize
	return s, nil
}

// graphConfig derives the default graph's serving shape from the flags.
func (c config) graphConfig() prsim.GraphConfig {
	return prsim.GraphConfig{
		Shards: c.shards,
		Engine: prsim.EngineOptions{Workers: c.workers, CacheSize: c.cacheSize, MaxQueue: c.maxQueue, AdaptiveDefault: c.adaptive},
	}
}

// openIndex builds the index over g, or — with -loadindex — opens the
// snapshot zero-copy, graph included, layering a published edge-update delta
// over the base when one exists next to the file (the sections are copied
// onto the heap on hosts that cannot view a mapping).
func openIndex(cfg config, g *prsim.Graph) (*prsim.Index, error) {
	if cfg.loadIndex == "" {
		return prsim.BuildIndex(g, prsim.Options{
			Decay: cfg.decay, Epsilon: cfg.epsilon, Seed: cfg.seed,
			SampleScale: cfg.scale, MaxLevels: cfg.maxLevels,
		})
	}
	idx, err := openSnapshotAuto(cfg.loadIndex)
	if err == nil && cfg.mmapVerify {
		if verr := idx.Verify(); verr != nil {
			idx.Close()
			return nil, verr
		}
	}
	return idx, err
}

// reloadInfo summarizes one successful reload for the admin response; it is
// captured under reloadMu so handlers never read the mutable fields raw.
type reloadInfo struct {
	generation   uint64
	loadTime     time.Duration
	backing      string
	graphBacking string
}

// reload re-opens the default graph's snapshot file and hot-swaps it onto
// every shard: new queries see the new index immediately, in-flight queries
// finish on the old one, the old mapping is released once they drain, and
// per-shard result caches are invalidated (generation-keyed). Reloads are
// serialized; queries are never blocked by one.
func (s *server) reload() (reloadInfo, error) {
	if s.cfg.loadIndex == "" {
		return reloadInfo{}, fmt.Errorf("no -loadindex snapshot to reload (index was built at startup)")
	}
	// Serialize against edge mutations first (mutator before reloadMu,
	// everywhere): a reload must never retire the index an apply is reading.
	m := s.mutatorFor(prsim.DefaultGraph)
	m.mu.Lock()
	defer m.mu.Unlock()
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	// Capture the file's identity BEFORE opening it: a snapshot renamed over
	// the path while this open is in progress must still look changed on the
	// next watch tick, or the watcher would serve the stale one forever.
	preMod, preSize := statWatched(s.cfg.loadIndex)
	loadStart := time.Now()
	if err := s.def.Reload(nil); err != nil {
		return reloadInfo{}, fmt.Errorf("reload: %w", err)
	}
	idx := s.def.Current()
	s.lastLoadTime = time.Since(loadStart)
	s.lastLoadAt = time.Now()
	s.watchedMod, s.watchedSize = preMod, preSize
	m.refreshBase()
	info := reloadInfo{
		generation:   s.def.Generation(),
		loadTime:     s.lastLoadTime,
		backing:      idx.Backing(),
		graphBacking: idx.GraphBacking(),
	}
	log.Printf("prsimserve: reloaded %s in %s (generation %d, index %s-backed, graph %s-backed)",
		s.cfg.loadIndex, info.loadTime.Round(time.Millisecond), info.generation,
		info.backing, info.graphBacking)
	return info, nil
}

// verifySnapshot re-verifies the currently served snapshot's CRC-32C trailer
// (a full sequential read of the mapped payload) and records the outcome for
// /stats. On corruption the server attempts an automatic rollback: the
// snapshot path is re-opened and the fresh mapping is verified before being
// swapped in, so a republished good file heals the server without operator
// action, while a still-corrupt file leaves the last-good generation serving.
// A reload racing the verification can surface ErrSnapshotClosed for the
// swapped-out snapshot; that is recorded like any other outcome and the next
// tick verifies the new generation.
func (s *server) verifySnapshot() {
	idx := s.def.Current()
	gen := s.def.Generation()
	start := time.Now()
	err := idx.Verify()
	dur := time.Since(start)
	s.verifyMu.Lock()
	s.verifies++
	s.lastVerifyAt = time.Now()
	s.lastVerifyDur = dur
	s.lastVerifyErr = err
	s.lastVerifyGen = gen
	s.verifyMu.Unlock()
	if err == nil {
		log.Printf("prsimserve: background snapshot verify ok (generation %d, %s)", gen, dur.Round(time.Millisecond))
		return
	}
	log.Printf("prsimserve: background snapshot verify FAILED (generation %d): %v", gen, err)
	if s.cfg.loadIndex == "" {
		return // built at startup; nothing on disk to roll back to
	}
	if rerr := s.rollback(); rerr != nil {
		log.Printf("prsimserve: rollback failed (still serving generation %d): %v", gen, rerr)
		return
	}
	s.verifyMu.Lock()
	s.rolledBack++
	s.verifyMu.Unlock()
	log.Printf("prsimserve: rolled back to freshly verified snapshot of %s (generation %d)",
		s.cfg.loadIndex, s.def.Generation())
}

// rollback is the recovery half of verifySnapshot: re-open the snapshot path
// and swap the fresh mapping in, but only after its checksum verifies clean —
// a corrupt on-disk file must never replace the serving generation, whose
// resident pages may still be good. Shares reload's bookkeeping (and its
// lock) so the watcher does not double-load a file the rollback just picked
// up.
func (s *server) rollback() error {
	m := s.mutatorFor(prsim.DefaultGraph)
	m.mu.Lock()
	defer m.mu.Unlock()
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	preMod, preSize := statWatched(s.cfg.loadIndex)
	loadStart := time.Now()
	if err := s.def.Reload(func(idx *prsim.Index) error { return idx.Verify() }); err != nil {
		return err
	}
	s.lastLoadTime = time.Since(loadStart)
	s.lastLoadAt = time.Now()
	s.watchedMod, s.watchedSize = preMod, preSize
	m.refreshBase()
	return nil
}

// verifyLoop runs verifySnapshot on a timer until the server stops.
func (s *server) verifyLoop(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
		s.verifySnapshot()
	}
}

// statWatched returns the snapshot file's identity (zero values when the
// path is empty or unreadable).
func statWatched(path string) (time.Time, int64) {
	if path == "" {
		return time.Time{}, 0
	}
	st, err := os.Stat(path)
	if err != nil {
		return time.Time{}, 0
	}
	return st.ModTime(), st.Size()
}

// changedSinceLastLoad reports whether the watched snapshot file's mtime or
// size moved since the last (re)load.
func (s *server) changedSinceLastLoad() bool {
	st, err := os.Stat(s.cfg.loadIndex)
	if err != nil {
		return false // transiently missing mid-rewrite; try again next tick
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	return !st.ModTime().Equal(s.watchedMod) || st.Size() != s.watchedSize
}

// watch polls the snapshot file and reloads on change. Reload failures are
// logged and retried on the next change; the server keeps serving the old
// index (a half-written file simply fails validation and is skipped —
// publishers should still write-then-rename so a mapped file is never
// truncated in place).
func (s *server) watch(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
		if !s.changedSinceLastLoad() {
			continue
		}
		if _, err := s.reload(); err != nil {
			log.Printf("prsimserve: watch reload failed (still serving previous index): %v", err)
			// Remember the bad file's identity so a broken snapshot is not
			// retried every tick; the next write triggers a fresh attempt.
			s.reloadMu.Lock()
			s.watchedMod, s.watchedSize = statWatched(s.cfg.loadIndex)
			s.reloadMu.Unlock()
		}
	}
}

// route is one entry of the declarative route table. The table — not just
// the mux — is the HTTP surface contract, pinned by the API-surface snapshot
// test.
type route struct {
	pattern string
	handler http.HandlerFunc
}

// routes returns the full route table: the /v1 graph-scoped surface, the
// admin plane, and the unversioned liveness probe.
func (s *server) routes() []route {
	return []route{
		// v1 query plane (graph-scoped).
		{pattern: "GET /v1/graphs/{graph}/query", handler: s.handleQuery},
		{pattern: "POST /v1/graphs/{graph}/query", handler: s.handleQuery},
		{pattern: "GET /v1/graphs/{graph}/topk", handler: s.handleTopK},
		{pattern: "POST /v1/graphs/{graph}/topk", handler: s.handleTopK},
		{pattern: "GET /v1/graphs/{graph}/pair", handler: s.handlePair},
		{pattern: "GET /v1/graphs/{graph}/stats", handler: s.handleGraphStats},
		// v1 admin plane (bearer-auth gated when -admintoken is set).
		{pattern: "GET /v1/graphs/{graph}/health", handler: s.admin(s.handleGraphHealth)},
		{pattern: "POST /v1/graphs/{graph}/edges", handler: s.admin(s.handleEdges)},
		{pattern: "POST /v1/graphs/{graph}/reload", handler: s.admin(s.handleReload)},
		{pattern: "GET /v1/graphs", handler: s.handleGraphList},
		{pattern: "PUT /v1/graphs/{graph}", handler: s.admin(s.handleMount)},
		{pattern: "DELETE /v1/graphs/{graph}", handler: s.admin(s.handleUnmount)},
		{pattern: "GET /v1/stats", handler: s.handleServerStats},
		{pattern: "GET /v1/healthz", handler: s.handleHealthz},
		{pattern: "GET /healthz", handler: s.handleHealthz},
	}
}

// handler builds the mux from the route table.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range s.routes() {
		mux.HandleFunc(rt.pattern, rt.handler)
	}
	return mux
}

// servedFor resolves the logical graph a request addresses: the {graph} path
// segment. The request's graph knob (JSON body or URL parameter) may repeat
// it; one that contradicts the path is a client error. On failure the error
// response has already been written.
func (s *server) servedFor(w http.ResponseWriter, r *http.Request, apiGraph string) (*prsim.Served, string, bool) {
	name := r.PathValue("graph")
	if apiGraph != "" && apiGraph != name {
		writeError(w, http.StatusBadRequest, codeInvalidArgument,
			fmt.Sprintf("graph %q in request body contradicts graph %q in path", apiGraph, name))
		return nil, "", false
	}
	sv, err := s.reg.Get(name)
	if err != nil {
		writeQueryError(w, err)
		return nil, "", false
	}
	return sv, name, true
}

// apiRequest is the decoded request-plane parameter bundle shared by /query
// and /topk: one parse point regardless of transport (GET URL parameters or
// POST JSON body), feeding one prsim.Request.
type apiRequest struct {
	graph        string
	sources      []int
	epsilon      float64
	k            int
	kSet         bool
	limit        int
	timeout      time.Duration
	noCache      bool
	parallel     int
	adaptive     prsim.AdaptiveMode
	class        prsim.Class
	allowPartial bool
}

// requestBodyJSON is the POST body shape of /query and /topk.
type requestBodyJSON struct {
	Graph       string  `json:"graph"`
	U           *int    `json:"u"`
	Sources     []int   `json:"sources"`
	Epsilon     float64 `json:"epsilon"`
	K           *int    `json:"k"`
	Limit       int     `json:"limit"`
	TimeoutMS   int64   `json:"timeout_ms"`
	NoCache     bool    `json:"no_cache"`
	Parallelism int     `json:"parallelism"`
	// Adaptive selects the sampling mode: "on" enables variance-based early
	// termination, "off" pins the fixed worst-case budget, ""/"auto" follows
	// the server's -adaptive default.
	Adaptive string `json:"adaptive"`
	Class    string `json:"class"`
	// AllowPartial opts multi-source requests against remote graphs into
	// graceful degradation: unreachable shards drop out and the response is
	// flagged degraded instead of failing with 503.
	AllowPartial bool `json:"allow_partial"`
}

// parseAPIRequest decodes the request-plane knobs from either transport.
func parseAPIRequest(r *http.Request) (apiRequest, error) {
	var req apiRequest
	if r.Method == http.MethodPost {
		var body requestBodyJSON
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&body); err != nil {
			return req, fmt.Errorf("invalid JSON body: %v", err)
		}
		req.graph = body.Graph
		if body.U != nil {
			req.sources = append(req.sources, *body.U)
		}
		req.sources = append(req.sources, body.Sources...)
		req.epsilon = body.Epsilon
		if body.K != nil {
			req.k, req.kSet = *body.K, true
		}
		req.limit = body.Limit
		req.timeout = time.Duration(body.TimeoutMS) * time.Millisecond
		req.noCache = body.NoCache
		req.parallel = body.Parallelism
		ad, err := parseAdaptive(body.Adaptive)
		if err != nil {
			return req, err
		}
		req.adaptive = ad
		class, err := prsim.ParseClass(body.Class)
		if err != nil {
			return req, err
		}
		req.class = class
		req.allowPartial = body.AllowPartial
		return req, nil
	}
	q := r.URL.Query()
	req.graph = q.Get("graph")
	sources, err := intParams(q["u"])
	if err != nil {
		return req, fmt.Errorf("u must be an integer")
	}
	req.sources = sources
	if v := q.Get("epsilon"); v != "" {
		eps, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return req, fmt.Errorf("epsilon must be a number")
		}
		req.epsilon = eps
	}
	if v := q.Get("k"); v != "" {
		k, err := strconv.Atoi(v)
		if err != nil {
			return req, fmt.Errorf("k must be an integer")
		}
		req.k, req.kSet = k, true
	}
	if req.limit, err = intParam(q.Get("limit"), 0); err != nil {
		return req, fmt.Errorf("limit must be an integer")
	}
	ms, err := intParam(q.Get("timeout_ms"), 0)
	if err != nil {
		return req, fmt.Errorf("timeout_ms must be an integer")
	}
	req.timeout = time.Duration(ms) * time.Millisecond
	if v := q.Get("nocache"); v != "" && v != "0" && v != "false" {
		req.noCache = true
	}
	if req.parallel, err = intParam(q.Get("parallel"), 0); err != nil {
		return req, fmt.Errorf("parallel must be an integer")
	}
	if req.adaptive, err = parseAdaptive(q.Get("adaptive")); err != nil {
		return req, err
	}
	if req.class, err = prsim.ParseClass(q.Get("class")); err != nil {
		return req, err
	}
	if v := q.Get("allow_partial"); v != "" && v != "0" && v != "false" {
		req.allowPartial = true
	}
	return req, nil
}

// parseAdaptive maps the wire spelling of the sampling mode onto the
// tri-state request field; empty (or "auto") defers to the server default.
func parseAdaptive(v string) (prsim.AdaptiveMode, error) {
	switch v {
	case "", "auto":
		return prsim.AdaptiveAuto, nil
	case "on", "true", "1":
		return prsim.AdaptiveOn, nil
	case "off", "false", "0":
		return prsim.AdaptiveOff, nil
	default:
		return prsim.AdaptiveAuto, fmt.Errorf("adaptive must be one of on, off, auto")
	}
}

// effectiveParallel resolves the intra-query parallelism hint: the
// per-request value wins, then the -parallel server default; zero is left for
// the engine to resolve as auto (borrow idle workers). The hint never changes
// scores — chunk decomposition and merge order are parallelism-independent —
// so it is safe to vary per request against a shared cache.
func (s *server) effectiveParallel(req apiRequest) int {
	if req.parallel > 0 {
		return req.parallel
	}
	return s.cfg.parallel
}

// baseRequest lowers the decoded knobs into the library request bundle.
func (s *server) baseRequest(api apiRequest) prsim.Request {
	return prsim.Request{
		Epsilon:      api.epsilon,
		NoCache:      api.noCache,
		Parallelism:  s.effectiveParallel(api),
		Adaptive:     api.adaptive,
		Class:        api.class,
		AllowPartial: api.allowPartial,
	}
}

// scoredNodeJSON is one (node, score) pair in a response.
type scoredNodeJSON struct {
	Node  int     `json:"node"`
	Label string  `json:"label,omitempty"`
	Score float64 `json:"score"`
}

// queryResultJSON is the answer to one single-source query. Batch entries
// deliberately carry no cache/coalescing flags: duplicate sources in one
// batch must render byte-identically (the flags live on the single-source
// and /topk envelopes instead).
type queryResultJSON struct {
	Source  int              `json:"source"`
	Support int              `json:"support"` // number of non-zero scores
	Scores  []scoredNodeJSON `json:"scores"`
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	api, err := parseAPIRequest(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidArgument, err.Error())
		return
	}
	sv, _, ok := s.servedFor(w, r, api.graph)
	if !ok {
		return
	}
	if len(api.sources) == 0 {
		writeError(w, http.StatusBadRequest, codeInvalidArgument, "at least one source is required (u parameter or JSON u/sources)")
		return
	}
	if api.limit < 0 {
		writeError(w, http.StatusBadRequest, codeInvalidArgument, "limit must be a non-negative integer")
		return
	}
	ctx, cancel := s.requestCtx(r, api.timeout)
	defer cancel()
	batch, err := sv.DoBatch(ctx, s.baseRequest(api), api.sources)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	resps := batch.Responses
	// A single-source request has nothing to return when its one shard is
	// missing — degrade to the fail-fast shape even under allow_partial.
	if len(api.sources) == 1 && (len(resps) == 0 || resps[0] == nil) {
		writeError(w, http.StatusServiceUnavailable, codeShardUnavailable,
			fmt.Sprintf("shard(s) %v unavailable", batch.MissingShards))
		return
	}
	// Degraded batches render missing sources as null entries; the envelope
	// carries the degradation flag and the missing shard list.
	out := make([]*queryResultJSON, len(resps))
	var epsilon float64
	var clamped bool
	for i, resp := range resps {
		if resp == nil {
			continue
		}
		rr := renderResult(resp.Result, api.limit)
		out[i] = &rr
		if epsilon == 0 {
			epsilon, clamped = resp.Epsilon, resp.Clamped
		}
	}
	if len(api.sources) == 1 {
		one := struct {
			queryResultJSON
			Epsilon float64 `json:"epsilon"`
			// EpsilonEffective is the epsilon the answering computation ran
			// at — tighter than epsilon when range coalescing served this
			// request from a more accurate cached or in-flight answer.
			EpsilonEffective  float64 `json:"epsilon_effective"`
			Clamped           bool    `json:"epsilon_clamped,omitempty"`
			Cached            bool    `json:"cached,omitempty"`
			Coalesced         bool    `json:"coalesced,omitempty"`
			ServedFromTighter bool    `json:"served_from_tighter,omitempty"`
		}{*out[0], epsilon, resps[0].EpsilonServed, clamped,
			resps[0].CacheHit, resps[0].Coalesced, resps[0].ServedFromTighter}
		writeJSON(w, one)
		return
	}
	payload := map[string]any{"results": out, "epsilon": epsilon, "epsilon_clamped": clamped}
	if batch.Degraded {
		payload["degraded"] = true
		payload["missing_shards"] = batch.MissingShards
	}
	writeJSON(w, payload)
}

// renderResult flattens a result into descending-score order, ties broken
// by ascending node id, keeping at most limit nodes when limit > 0. The
// other nodes come from Result.TopK's bounded heap, so a small limit does
// not sort the whole support; the source is then placed by the same order.
// Results may be shared with concurrent requests through the engine's
// cache, so this reads the result without mutating it.
func renderResult(res *prsim.Result, limit int) queryResultJSON {
	scores := res.Scores()
	k := len(scores)
	if limit > 0 && limit < k {
		k = limit
	}
	src := res.Source()
	srcScore, placeSrc := scores[src]
	nodes := make([]scoredNodeJSON, 0, k+1)
	for _, t := range res.TopK(k) {
		if placeSrc && (srcScore > t.Score || srcScore == t.Score && src < t.Node) {
			nodes = append(nodes, scoredNodeJSON{Node: src, Score: srcScore})
			placeSrc = false
		}
		nodes = append(nodes, scoredNodeJSON{Node: t.Node, Score: t.Score})
	}
	if placeSrc {
		nodes = append(nodes, scoredNodeJSON{Node: src, Score: srcScore})
	}
	return queryResultJSON{Source: src, Support: len(scores), Scores: nodes[:min(len(nodes), k)]}
}

func (s *server) handleTopK(w http.ResponseWriter, r *http.Request) {
	api, err := parseAPIRequest(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidArgument, err.Error())
		return
	}
	sv, _, ok := s.servedFor(w, r, api.graph)
	if !ok {
		return
	}
	if len(api.sources) == 0 {
		writeError(w, http.StatusBadRequest, codeInvalidArgument, "at least one non-negative source is required (u parameter or JSON u/sources)")
		return
	}
	for _, u := range api.sources {
		if u < 0 {
			writeError(w, http.StatusBadRequest, codeInvalidArgument, "sources must be non-negative")
			return
		}
	}
	k := 20
	if api.kSet {
		k = api.k
	}
	if k <= 0 {
		writeError(w, http.StatusBadRequest, codeInvalidArgument, "k must be a positive integer")
		return
	}
	ctx, cancel := s.requestCtx(r, api.timeout)
	defer cancel()
	if len(api.sources) > 1 {
		// Multi-source: per-source top-k on the owning shards, merged into
		// one global selection (max score per node, deterministic order).
		res, err := sv.TopKMerged(ctx, s.baseRequest(api), api.sources, k)
		if err != nil {
			writeQueryError(w, err)
			return
		}
		payload := map[string]any{
			"sources": api.sources, "k": k, "top": renderScored(res.Top),
		}
		if res.Degraded {
			payload["degraded"] = true
			payload["missing_shards"] = res.MissingShards
		}
		writeJSON(w, payload)
		return
	}
	u := api.sources[0]
	base := s.baseRequest(api)
	base.Source = u
	base.K = k
	resp, err := sv.Do(ctx, base)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	payload := map[string]any{
		"source": u, "k": k, "top": renderScored(resp.Top),
		"epsilon": resp.Epsilon, "epsilon_effective": resp.EpsilonServed,
		"epsilon_clamped": resp.Clamped,
		"cached":          resp.CacheHit, "coalesced": resp.Coalesced,
	}
	if resp.ServedFromTighter {
		payload["served_from_tighter"] = true
	}
	writeJSON(w, payload)
}

func renderScored(top []prsim.ScoredNode) []scoredNodeJSON {
	nodes := make([]scoredNodeJSON, len(top))
	for i, t := range top {
		nodes[i] = scoredNodeJSON{Node: t.Node, Label: t.Label, Score: t.Score}
	}
	return nodes
}

func (s *server) handlePair(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	u, errU := intParam(q.Get("u"), -1)
	v, errV := intParam(q.Get("v"), -1)
	if errU != nil || errV != nil || u < 0 || v < 0 {
		writeError(w, http.StatusBadRequest, codeInvalidArgument, "integer u and v parameters are required")
		return
	}
	sv, _, ok := s.servedFor(w, r, q.Get("graph"))
	if !ok {
		return
	}
	ctx, cancel := s.requestCtx(r, 0)
	defer cancel()
	score, err := sv.Pair(ctx, u, v)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	writeJSON(w, map[string]any{"u": u, "v": v, "score": score})
}

func (s *server) handleReload(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("graph")
	if name == prsim.DefaultGraph {
		// The default graph reloads through the watcher's bookkeeping (file
		// identity, load timing) and requires an on-disk snapshot.
		if s.cfg.loadIndex == "" {
			writeError(w, http.StatusConflict, codeConflict, "no -loadindex snapshot to reload (index was built at startup)")
			return
		}
		info, err := s.reload()
		if err != nil {
			writeError(w, http.StatusInternalServerError, codeInternal, err.Error())
			return
		}
		writeJSON(w, map[string]any{
			"status":        "reloaded",
			"graph":         name,
			"generation":    info.generation,
			"backing":       info.backing,
			"graph_backing": info.graphBacking,
			"load_seconds":  info.loadTime.Seconds(),
		})
		return
	}
	sv, err := s.reg.Get(name)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	if sv.Remote() {
		writeError(w, http.StatusConflict, codeConflict,
			fmt.Sprintf("graph %q is remote: reload it on its shard hosts", name))
		return
	}
	// Serialize with edge mutations on this graph and re-read the delta base
	// afterwards (the reload may have picked up an externally republished
	// snapshot with fresh gens).
	m := s.mutatorFor(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	loadStart := time.Now()
	if err := sv.Reload(nil); err != nil {
		writeError(w, http.StatusInternalServerError, codeInternal, err.Error())
		return
	}
	m.refreshBase()
	idx := sv.Current()
	writeJSON(w, map[string]any{
		"status":        "reloaded",
		"graph":         name,
		"generation":    sv.Generation(),
		"backing":       idx.Backing(),
		"graph_backing": idx.GraphBacking(),
		"load_seconds":  time.Since(loadStart).Seconds(),
	})
}

// mountBodyJSON is the PUT /v1/graphs/{name} body. Exactly one of snapshot
// (a local snapshot file to serve) or placement (remote shard placement:
// one replica endpoint list per shard slot) is required; the remaining
// fields shape local serving (shards/workers/cache/max_queue, defaulting to
// the server flags) or the remote resilience layer.
type mountBodyJSON struct {
	Snapshot string `json:"snapshot"`
	Shards   int    `json:"shards"`
	Workers  int    `json:"workers"`
	Cache    *int   `json:"cache"`
	MaxQueue *int   `json:"max_queue"`

	// Remote placement: one replica endpoint list per shard slot.
	Placement [][]string `json:"placement"`
	// RemoteGraph is the graph name on the shard hosts (default: the name
	// being mounted here).
	RemoteGraph string `json:"remote_graph"`
	// Resilience knobs; zero values pick production defaults.
	HealthIntervalMS  int64 `json:"health_interval_ms"`
	MaxAttempts       int   `json:"max_attempts"`
	HedgeDelayMS      int64 `json:"hedge_delay_ms"`
	AttemptTimeoutMS  int64 `json:"attempt_timeout_ms"`
	BreakerThreshold  int   `json:"breaker_threshold"`
	BreakerCooldownMS int64 `json:"breaker_cooldown_ms"`
}

// remoteConfig lowers the mount body's remote placement into the library
// configuration, wiring the test transport override.
func (b mountBodyJSON) remoteConfig(name string) prsim.RemoteGraphConfig {
	remoteGraph := b.RemoteGraph
	if remoteGraph == "" {
		remoteGraph = name
	}
	return prsim.RemoteGraphConfig{
		Graph:     remoteGraph,
		Shards:    b.Placement,
		Transport: remoteTransport,
		Resilience: prsim.ResilienceOptions{
			HealthInterval:   time.Duration(b.HealthIntervalMS) * time.Millisecond,
			MaxAttempts:      b.MaxAttempts,
			HedgeDelay:       time.Duration(b.HedgeDelayMS) * time.Millisecond,
			AttemptTimeout:   time.Duration(b.AttemptTimeoutMS) * time.Millisecond,
			BreakerThreshold: b.BreakerThreshold,
			BreakerCooldown:  time.Duration(b.BreakerCooldownMS) * time.Millisecond,
		},
	}
}

// mountRemote mounts a remote-placement graph and writes the mount
// response; shared by the admin endpoint and the boot-time shard map.
func (s *server) mountRemote(name string, body mountBodyJSON) (*prsim.Served, error) {
	if name == prsim.DefaultGraph {
		return nil, fmt.Errorf("the default graph is served locally (placement mounts need another name)")
	}
	for i, endpoints := range body.Placement {
		if len(endpoints) == 0 {
			return nil, fmt.Errorf("placement shard %d has no endpoints", i)
		}
		for _, ep := range endpoints {
			if !strings.HasPrefix(ep, "http://") && !strings.HasPrefix(ep, "https://") {
				return nil, fmt.Errorf("placement shard %d endpoint %q is not an http(s) base URL", i, ep)
			}
		}
	}
	return s.reg.MountRemote(name, body.remoteConfig(name))
}

// shardMapJSON is the -shardmap file: remote graphs to mount at boot, keyed
// by name, each a mount body restricted to the placement fields.
type shardMapJSON struct {
	Graphs map[string]mountBodyJSON `json:"graphs"`
}

// mountShardMap mounts every remote graph named by the -shardmap file.
func (s *server) mountShardMap(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var sm shardMapJSON
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sm); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	// Mount in sorted order so boot logs and failures are deterministic.
	names := make([]string, 0, len(sm.Graphs))
	for name := range sm.Graphs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		body := sm.Graphs[name]
		if !validGraphName(name) {
			return fmt.Errorf("%s: invalid graph name %q", path, name)
		}
		if len(body.Placement) == 0 {
			return fmt.Errorf("%s: graph %q has no placement (shard maps mount remote graphs; local graphs use -loadindex or the admin API)", path, name)
		}
		if body.Snapshot != "" {
			return fmt.Errorf("%s: graph %q sets both snapshot and placement", path, name)
		}
		sv, err := s.mountRemote(name, body)
		if err != nil {
			return fmt.Errorf("%s: graph %q: %w", path, name, err)
		}
		log.Printf("prsimserve: mounted remote graph %q (%d shards)", name, sv.NumShards())
	}
	return nil
}

func (s *server) handleMount(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("graph")
	if !validGraphName(name) {
		writeError(w, http.StatusBadRequest, codeInvalidArgument,
			"graph names are 1-64 characters of [a-zA-Z0-9._-]")
		return
	}
	var body mountBodyJSON
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidArgument, fmt.Sprintf("invalid JSON body: %v", err))
		return
	}
	if body.Snapshot != "" && len(body.Placement) > 0 {
		writeError(w, http.StatusBadRequest, codeInvalidArgument, "snapshot and placement are mutually exclusive")
		return
	}
	if len(body.Placement) > 0 {
		sv, err := s.mountRemote(name, body)
		if err != nil {
			status, code := http.StatusBadRequest, codeInvalidArgument
			if strings.Contains(err.Error(), "already mounted") {
				status, code = http.StatusConflict, codeConflict
			}
			writeError(w, status, code, err.Error())
			return
		}
		log.Printf("prsimserve: mounted remote graph %q (%d shards)", name, sv.NumShards())
		w.WriteHeader(http.StatusCreated)
		writeJSON(w, map[string]any{
			"status": "mounted",
			"graph":  name,
			"shards": sv.NumShards(),
			"remote": true,
		})
		return
	}
	if body.Snapshot == "" {
		writeError(w, http.StatusBadRequest, codeInvalidArgument, "snapshot (a self-contained snapshot file path) or placement (remote shard endpoints) is required")
		return
	}
	cfg := prsim.GraphConfig{
		Shards: body.Shards,
		Engine: prsim.EngineOptions{
			Workers:         body.Workers,
			CacheSize:       s.cfg.cacheSize,
			MaxQueue:        s.cfg.maxQueue,
			AdaptiveDefault: s.cfg.adaptive,
		},
	}
	if body.Cache != nil {
		cfg.Engine.CacheSize = *body.Cache
	}
	if body.MaxQueue != nil {
		cfg.Engine.MaxQueue = *body.MaxQueue
	}
	// Mount through the delta-aware opener so a graph whose snapshot has a
	// published edge-update delta next to it comes up at the updated state
	// (and reloads keep picking the pair up).
	sv, err := s.reg.MountOpener(name, cfg, func() (*prsim.Index, error) {
		return openSnapshotAuto(body.Snapshot)
	})
	if err != nil {
		status, code := http.StatusInternalServerError, codeInternal
		if strings.Contains(err.Error(), "already mounted") {
			status, code = http.StatusConflict, codeConflict
		}
		writeError(w, status, code, err.Error())
		return
	}
	s.mountMutator(name, body.Snapshot)
	idx := sv.Current()
	log.Printf("prsimserve: mounted graph %q from %s (%d nodes, %d shards)",
		name, body.Snapshot, idx.Graph().NumNodes(), sv.NumShards())
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, map[string]any{
		"status": "mounted",
		"graph":  name,
		"shards": sv.NumShards(),
		"nodes":  idx.Graph().NumNodes(),
		"edges":  idx.Graph().NumEdges(),
	})
}

func (s *server) handleUnmount(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("graph")
	if name == prsim.DefaultGraph {
		writeError(w, http.StatusConflict, codeConflict,
			"the default graph cannot be unmounted (the watch/verify loops serve it)")
		return
	}
	if err := s.reg.Unmount(name); err != nil {
		writeQueryError(w, err)
		return
	}
	s.dropMutator(name)
	log.Printf("prsimserve: unmounted graph %q", name)
	writeJSON(w, map[string]any{"status": "unmounted", "graph": name})
}

func (s *server) handleGraphList(w http.ResponseWriter, r *http.Request) {
	names := s.reg.Names()
	graphs := make([]map[string]any, 0, len(names))
	for _, name := range names {
		sv, err := s.reg.Get(name)
		if err != nil {
			continue // unmounted between Names and Get
		}
		entry := map[string]any{
			"name":       name,
			"generation": sv.Generation(),
			"shards":     sv.NumShards(),
		}
		if idx := sv.Current(); idx != nil {
			entry["nodes"] = idx.Graph().NumNodes()
			entry["edges"] = idx.Graph().NumEdges()
			entry["backing"] = idx.Backing()
		} else {
			entry["remote"] = true
		}
		graphs = append(graphs, entry)
	}
	writeJSON(w, map[string]any{"graphs": graphs})
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{"status": "ok"})
}

func (s *server) handleGraphStats(w http.ResponseWriter, r *http.Request) {
	sv, name, ok := s.servedFor(w, r, r.URL.Query().Get("graph"))
	if !ok {
		return
	}
	writeJSON(w, s.graphStatsPayload(sv, name))
}

// graphStatsPayload renders one graph's statistics. The default graph
// additionally carries the snapshot watch/verify sections — that machinery
// is wired to the boot-time snapshot file.
func (s *server) graphStatsPayload(sv *prsim.Served, name string) map[string]any {
	if sv.Remote() {
		// Remote graphs have no local index: report the client-side view —
		// aggregated call counters, per-shard resilience counters, and the
		// replica health map. Index/graph statistics live on the shard hosts.
		est := sv.StatsAggregate()
		return map[string]any{
			"uptime_seconds": time.Since(s.start).Seconds(),
			"name":           name,
			"remote":         true,
			"generation":     est.Generation,
			"engine": map[string]any{
				"shards":       sv.NumShards(),
				"queries":      est.Queries,
				"pair_queries": est.PairQueries,
				"errors":       est.Errors,
			},
			"shards": remoteShardStatsJSON(sv),
			"health": healthJSON(sv.Health()),
		}
	}
	idx := sv.Current()
	g := idx.Graph()
	ist := idx.Stats()
	est := sv.StatsAggregate()

	// engine holds numeric totals only (monitoring scrapes decode it as a
	// flat number map); per-class and per-shard breakdowns get their own
	// keys.
	payload := map[string]any{
		"uptime_seconds": time.Since(s.start).Seconds(),
		"name":           name,
		"graph": map[string]any{
			"nodes":   g.NumNodes(),
			"edges":   g.NumEdges(),
			"backing": idx.GraphBacking(),
		},
		"index": map[string]any{
			"hubs":          ist.NumHubs,
			"entries":       ist.Entries,
			"size_bytes":    idx.SizeBytes(),
			"second_moment": ist.SecondMoment,
			"backing":       idx.Backing(),
			"madvise":       idx.Advices(),
		},
		"engine": map[string]any{
			"shards":        sv.NumShards(),
			"workers":       est.Workers,
			"max_queue":     est.MaxQueue,
			"queue_depth":   est.QueueDepth,
			"queries":       est.Queries,
			"cache_hits":    est.CacheHits,
			"cache_entries": est.CacheEntries,
			"cache_reuses":  est.CacheReuses,
			"coalesced":     est.Coalesced,
			"shed":          est.Shed,
			"pair_queries":  est.PairQueries,
			"errors":        est.Errors,

			"parallel_default": s.cfg.parallel,
			"parallel_queries": est.ParallelQueries,
			"chunks_executed":  est.ChunksExecuted,
			"chunks_merged":    est.ChunksMerged,

			"range_coalesced": est.RangeCoalesced,
			"early_stops":     est.EarlyStops,
			"rounds_executed": est.RoundsExecuted,
			"rounds_budget":   est.RoundsBudget,
		},
		"classes": map[string]any{
			"interactive": classStatsJSON(est.Interactive),
			"batch":       classStatsJSON(est.Batch),
		},
		"shards":    shardStatsJSON(sv.Stats()),
		"health":    healthJSON(sv.Health()),
		"mutations": s.mutatorFor(name).statsJSON(),
	}
	payload["index"].(map[string]any)["update_generation"] = idx.Generation()
	if name != prsim.DefaultGraph {
		payload["generation"] = est.Generation
		return payload
	}
	s.reloadMu.Lock()
	lastLoad := s.lastLoadTime
	lastLoadAt := s.lastLoadAt
	s.reloadMu.Unlock()
	payload["index"].(map[string]any)["load_seconds"] = lastLoad.Seconds()
	payload["snapshot"] = map[string]any{
		"path":           s.cfg.loadIndex,
		"generation":     est.Generation,
		"swaps":          est.Swaps,
		"last_load_at":   lastLoadAt.UTC().Format(time.RFC3339),
		"watch_seconds":  s.cfg.watch.Seconds(),
		"self_contained": s.cfg.loadIndex != "",
	}
	s.verifyMu.Lock()
	verify := map[string]any{
		"every_seconds": s.cfg.verifyEvery.Seconds(),
		"runs":          s.verifies,
		"rolled_back":   s.rolledBack,
	}
	if s.verifies > 0 {
		verify["last_at"] = s.lastVerifyAt.UTC().Format(time.RFC3339)
		verify["last_seconds"] = s.lastVerifyDur.Seconds()
		verify["last_generation"] = s.lastVerifyGen
		verify["last_ok"] = s.lastVerifyErr == nil
		if s.lastVerifyErr != nil {
			verify["last_error"] = s.lastVerifyErr.Error()
		}
	}
	s.verifyMu.Unlock()
	payload["verify"] = verify
	return payload
}

// classStatsJSON renders one admission class's telemetry, including the
// observed mean service time the deadline shedding and Retry-After hints
// derive from.
func classStatsJSON(c prsim.ClassStats) map[string]any {
	return map[string]any{
		"queries":        c.Queries,
		"shed":           c.Shed,
		"queue_depth":    c.QueueDepth,
		"avg_service_ms": float64(c.AvgServiceNs) / 1e6,
	}
}

// remoteShardStatsJSON renders the client-side resilience counters of every
// remote shard: attempts vs calls shows retry/hedge amplification, failures
// count calls that exhausted every replica.
func remoteShardStatsJSON(sv *prsim.Served) []map[string]any {
	out := make([]map[string]any, sv.NumShards())
	for i := range out {
		st, _ := sv.RemoteStats(i)
		out[i] = map[string]any{
			"shard":      i,
			"calls":      st.Calls,
			"attempts":   st.Attempts,
			"retries":    st.Retries,
			"hedges":     st.Hedges,
			"hedge_wins": st.HedgeWins,
			"failures":   st.Failures,
		}
	}
	return out
}

// healthJSON renders a graph's shard health map.
func healthJSON(shards []prsim.ShardHealth) []map[string]any {
	out := make([]map[string]any, len(shards))
	for i, sh := range shards {
		entry := map[string]any{
			"shard":  sh.Shard,
			"remote": sh.Remote,
			"state":  sh.State.String(),
		}
		if sh.Remote {
			replicas := make([]map[string]any, len(sh.Replicas))
			for j, rep := range sh.Replicas {
				replicas[j] = map[string]any{
					"endpoint":             rep.Endpoint,
					"state":                rep.State.String(),
					"consecutive_failures": rep.ConsecutiveFailures,
					"breaker_open":         rep.BreakerOpen,
					"breaker_opens":        rep.BreakerOpens,
					"generation":           rep.Generation,
					"probes":               rep.Probes,
					"probe_failures":       rep.ProbeFailures,
					"ewma_latency_ms":      float64(rep.EWMALatency) / float64(time.Millisecond),
					"hedge_delay_ms":       float64(rep.HedgeDelay) / float64(time.Millisecond),
				}
			}
			entry["replicas"] = replicas
		}
		out[i] = entry
	}
	return out
}

// handleGraphHealth reports the per-shard health map of one graph — for
// remote graphs, the live replica states the router routes around
// (breakers, probe failures, observed generations). Admin-gated: the map
// exposes internal endpoints.
func (s *server) handleGraphHealth(w http.ResponseWriter, r *http.Request) {
	sv, name, ok := s.servedFor(w, r, r.URL.Query().Get("graph"))
	if !ok {
		return
	}
	writeJSON(w, map[string]any{
		"graph":  name,
		"remote": sv.Remote(),
		"shards": healthJSON(sv.Health()),
	})
}

// shardStatsJSON renders the per-shard breakdown (queries, cache activity,
// shed) so uneven source distributions are visible to operators.
func shardStatsJSON(stats []prsim.EngineStats) []map[string]any {
	out := make([]map[string]any, len(stats))
	for i, st := range stats {
		out[i] = map[string]any{
			"shard":       i,
			"queries":     st.Queries,
			"cache_hits":  st.CacheHits,
			"coalesced":   st.Coalesced,
			"shed":        st.Shed,
			"queue_depth": st.QueueDepth,
			"errors":      st.Errors,
		}
	}
	return out
}

func (s *server) handleServerStats(w http.ResponseWriter, r *http.Request) {
	names := s.reg.Names()
	graphs := make(map[string]any, len(names))
	for _, name := range names {
		sv, err := s.reg.Get(name)
		if err != nil {
			continue
		}
		est := sv.StatsAggregate()
		graphs[name] = map[string]any{
			"generation":  sv.Generation(),
			"shards":      sv.NumShards(),
			"queries":     est.Queries,
			"shed":        est.Shed,
			"queue_depth": est.QueueDepth,
			"errors":      est.Errors,
		}
	}
	writeJSON(w, map[string]any{
		"uptime_seconds": time.Since(s.start).Seconds(),
		"graphs":         graphs,
	})
}

// validGraphName bounds admin-supplied graph names to a filesystem- and
// URL-safe alphabet.
func validGraphName(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// requestCtx derives the request's deadline: the server's -timeout ceiling,
// shortened by a positive per-request timeout (timeout_ms). Requests cannot
// extend past the ceiling — the listener's WriteTimeout is sized to it.
func (s *server) requestCtx(r *http.Request, reqTimeout time.Duration) (ctx context.Context, cancel func()) {
	timeout := s.timeout
	if reqTimeout > 0 && reqTimeout < timeout {
		timeout = reqTimeout
	}
	return context.WithTimeout(r.Context(), timeout)
}

// Error codes of the unified error envelope. Every error response is
// {"error":{"code":..., "message":..., "retry_after_ms":...}}; the code set
// is part of the API surface (pinned by the surface snapshot test).
const (
	codeOverloaded       = "overloaded"
	codeInvalidNode      = "invalid_node"
	codeInvalidEpsilon   = "invalid_epsilon"
	codeInvalidArgument  = "invalid_argument"
	codeDeadlineExceeded = "deadline_exceeded"
	codeUnknownGraph     = "unknown_graph"
	codeConflict         = "conflict"
	codeInternal         = "internal"
	codeUnauthorized     = "unauthorized"
	codeShardUnavailable = "shard_unavailable"
)

// errorJSON is the unified error envelope body.
type errorJSON struct {
	Code         string `json:"code"`
	Message      string `json:"message"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// writeQueryError maps library errors to the envelope: bad node ids and bad
// per-request epsilons are the client's fault, unknown graphs are 404, shed
// requests are 429 with the admission queue's telemetry-derived Retry-After,
// timeouts are 504, everything else is a server-side failure.
func writeQueryError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, prsim.ErrOverloaded):
		// The engine predicts when the shed request's class drains; before
		// any telemetry exists, fall back to a fixed 1s hint.
		ra, _ := prsim.RetryAfter(err)
		if ra <= 0 {
			ra = time.Second
		}
		seconds := int(math.Ceil(ra.Seconds()))
		if seconds < 1 {
			seconds = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(seconds))
		writeErrorEnvelope(w, http.StatusTooManyRequests, errorJSON{
			Code: codeOverloaded, Message: err.Error(), RetryAfterMS: ra.Milliseconds(),
		})
	case errors.Is(err, prsim.ErrUnknownGraph):
		writeError(w, http.StatusNotFound, codeUnknownGraph, err.Error())
	case errors.Is(err, prsim.ErrShardUnavailable):
		// A remote shard could not be reached past its retries and breaker.
		// 503 tells clients the failure is on the serving side and transient;
		// multi-source requests can opt into partial results instead with
		// allow_partial.
		writeError(w, http.StatusServiceUnavailable, codeShardUnavailable, err.Error())
	case errors.Is(err, prsim.ErrInvalidNode):
		writeError(w, http.StatusBadRequest, codeInvalidNode, err.Error())
	case errors.Is(err, prsim.ErrInvalidEpsilon):
		writeError(w, http.StatusBadRequest, codeInvalidEpsilon, err.Error())
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		writeError(w, http.StatusGatewayTimeout, codeDeadlineExceeded, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, codeInternal, err.Error())
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		log.Printf("prsimserve: encoding response: %v", err)
	}
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeErrorEnvelope(w, status, errorJSON{Code: code, Message: msg})
}

func writeErrorEnvelope(w http.ResponseWriter, status int, e errorJSON) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]errorJSON{"error": e})
}

func intParam(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	return strconv.Atoi(s)
}

func intParams(ss []string) ([]int, error) {
	out := make([]int, 0, len(ss))
	for _, s := range ss {
		v, err := strconv.Atoi(s)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
