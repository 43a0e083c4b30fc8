package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"prsim"
	"prsim/internal/core"
	"prsim/internal/engine"
	"prsim/internal/graph"
	"prsim/internal/router"
	"prsim/internal/snapshot"
	"prsim/internal/walk"
)

// The traced run replays the workload's seeded sequence once per layer entry
// point, top to bottom, each pass on a fresh stack over its own copy of the
// same snapshot, at the workload's own concurrency:
//
//	http    a fresh prsimserve over /v1 (sets how many reads and updates
//	        every lower pass replays)
//	router  prsim.Registry mount → Served.Do / DoBatch / Update
//	engine  router.Served.Engine(ShardFor(u)).Do / DoBatch
//	core    Index.QueryIntoOpts / QueryBatchIntoOpts for the reads the
//	        engine pass computed, at the parallelism it chose;
//	        ApplyUpdatesOpts for the writer's inserts
//	walk    Walker.SampleN / PairMeetsFromN from the computed sources
//
// A layer's self time for a request is its span minus the same request's
// span one layer down, over requests with the same hit-or-compute outcome in
// both passes.

// span is one timed call at a layer boundary; ids are positions in the
// workload's read or insert sequence.
type span struct {
	Layer string `json:"layer"`
	Name  string `json:"name"`
	ID    int    `json:"id"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps every span of a run in memory.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func (t *tracer) add(layer, name string, id int, start, end time.Time) span {
	s := span{Layer: layer, Name: name, ID: id, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// addPass records the read and update spans of one drive pass.
func (t *tracer) addPass(layer string, passStart time.Time, p *pass) {
	for i, r := range p.reads[:p.nReads] {
		t.add(layer, "read", i, passStart.Add(r.start), passStart.Add(r.end))
	}
	for i, u := range p.updates[:p.nUpds] {
		t.add(layer, "update", i, passStart.Add(u.start), passStart.Add(u.end))
	}
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// perLayer lists every per-layer metric with its unit and whether it is a
// count (work done, sizes, ratios of counts) or a timing.
var perLayer = []struct{ name, unit, kind string }{
	{"http.p50_ms", "ms", "timing"},
	{"http.self_ms", "ms", "timing"},
	{"http.resp_kb", "KB", "count"},
	{"http.update_ms", "ms", "timing"},
	{"http.update_self_ms", "ms", "timing"},
	{"http.ready_ms", "ms", "timing"},
	{"router.self_ms", "ms", "timing"},
	{"router.shards_per_req", "count", "count"},
	{"engine.hit_ratio", "ratio", "count"},
	{"engine.range_coalesced_ratio", "ratio", "count"},
	{"engine.coalesced_ratio", "ratio", "count"},
	{"engine.computed_ratio", "ratio", "count"},
	{"engine.hit_ms", "ms", "timing"},
	{"engine.self_ms", "ms", "timing"},
	{"engine.parallel_ratio", "ratio", "count"},
	{"engine.chunks_lost", "count", "count"},
	{"engine.swap_ms", "ms", "timing"},
	{"engine.cache_kept_ratio", "ratio", "count"},
	{"core.query_ms", "ms", "timing"},
	{"core.query_p99_ms", "ms", "timing"},
	{"core.ms_per_source", "ms", "timing"},
	{"core.walks", "count", "count"},
	{"core.bw_cost", "count", "count"},
	{"core.index_entries", "count", "count"},
	{"core.rounds_ratio", "ratio", "count"},
	{"core.early_stop_ratio", "ratio", "count"},
	{"core.hub_hit_ratio", "ratio", "count"},
	{"core.ns_per_walk", "ns", "timing"},
	{"core.build_s", "s", "timing"},
	{"core.max_abs_error", "abs", "count"},
	{"core.precision_at_10", "ratio", "count"},
	{"walk.sample_ns", "ns", "timing"},
	{"walk.pair_meet_ns", "ns", "timing"},
	{"update.apply_ms", "ms", "timing"},
	{"update.pagerank_ms", "ms", "timing"},
	{"update.push_ms", "ms", "timing"},
	{"update.detect_ms", "ms", "timing"},
	{"update.hubs_ratio", "ratio", "count"},
	{"update.entries_ratio", "ratio", "count"},
	{"snapshot.mb", "MB", "count"},
	{"snapshot.save_ms", "ms", "timing"},
	{"snapshot.open_ms", "ms", "timing"},
	{"snapshot.publish_ms", "ms", "timing"},
	{"snapshot.delta_kb", "KB", "count"},
	{"snapshot.full_rewrites", "count", "count"},
}

// traced holds what the passes measured, by metric name; a metric no pass
// set was not exercised by the workload and prints as 0.
type traced map[string]float64

func (t traced) set(name string, v float64) { t[name] = v }

// maxTraceSeconds caps the traced http pass, which every lower layer then
// replays, so that a traced run stays within a few times a timed one.
const maxTraceSeconds = 8

// runTrace performs the traced run.
func runTrace(ctx context.Context, cfg config, in *inputs, st *setupResult, rp *report) (map[string]metric, error) {
	w := cfg.workload
	readers := cfg.readers()
	tr := &tracer{t0: time.Now()}
	out := traced{}
	dir := filepath.Dir(st.snap)
	copySnap := func(name string) (string, error) {
		p := filepath.Join(dir, name)
		return p, copyFile(st.snap, p)
	}
	lim := window(min(cfg.seconds, maxTraceSeconds))
	if cfg.requests > 0 {
		lim = limits{reads: cfg.requests}
		if w.writer {
			lim.updates = min(len(in.edges), cfg.requests/50+1)
		}
	}

	// http: a fresh prsimserve.
	path, err := copySnap("http.prsim")
	if err != nil {
		return nil, err
	}
	srv, err := startServer(ctx, cfg.server, path)
	if err != nil {
		return nil, err
	}
	out.set("http.ready_ms", median(append(st.readyMS, float64(srv.ready)/1e6)))
	h := newHTTPTarget(srv.base, in.g.N())
	if err := warmUp(ctx, h, readers, in); err != nil {
		return nil, failWith(err, srv)
	}
	start := time.Now()
	hp, err := drive(ctx, h, readers, in.reads, in.edges, lim)
	if err != nil {
		return nil, failWith(err, srv)
	}
	tr.addPass("http", start, hp)
	for i, r := range hp.reads[:hp.nReads] {
		rp.count(in.reads[i].kind.String(), r.err != nil, errString(r.err))
	}
	var acked [][2]int
	for i, u := range hp.updates[:hp.nUpds] {
		rp.count("update", u.err != nil, errString(u.err))
		if u.err == nil {
			acked = append(acked, in.edges[i])
		}
	}
	gs, err := h.stats(ctx)
	if err != nil {
		return nil, failWith(err, srv)
	}
	g := in.g
	if w.writer {
		if g, err = applyEdges(in.g, acked); err != nil {
			return nil, err
		}
	}
	acc, err := servedAccuracy(ctx, cfg, in, g, h, rp)
	if err != nil {
		return nil, failWith(err, srv)
	}
	h.close()
	if err := srv.stop(); err != nil {
		return nil, failWith(err, srv)
	}
	lim = limits{reads: hp.nReads, updates: hp.nUpds}

	// router: the public serving API.
	path, err = copySnap("router.prsim")
	if err != nil {
		return nil, err
	}
	rt, err := newRouterTarget(path, tr)
	if err != nil {
		return nil, err
	}
	err = warmUp(ctx, rt, readers, in)
	start = time.Now()
	var rpass *pass
	if err == nil {
		rpass, err = drive(ctx, rt, readers, in.reads, in.edges, lim)
	}
	rt.close()
	if err != nil {
		return nil, err
	}
	tr.addPass("router", start, rpass)

	// engine: the owning shard's engine.
	path, err = copySnap("engine.prsim")
	if err != nil {
		return nil, err
	}
	et, err := newEngineTarget(path, len(in.reads))
	if err != nil {
		return nil, err
	}
	err = warmUp(ctx, et, readers, in)
	et.reads = make([]engineRead, len(in.reads)) // forget the warm-up's computations
	start = time.Now()
	var epass *pass
	if err == nil {
		epass, err = drive(ctx, et, readers, in.reads, in.edges, lim)
	}
	et.close()
	if err != nil {
		return nil, err
	}
	tr.addPass("engine", start, epass)

	// core: only what the engine pass computed.
	path, err = copySnap("core.prsim")
	if err != nil {
		return nil, err
	}
	ct, err := newCoreTarget(path, et, tr)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	cpass, err := drive(ctx, ct, readers, ct.reads, in.edges, limits{reads: len(ct.reads), updates: hp.nUpds})
	if err == nil {
		// walk: the sampling kernels, from the computed sources.
		err = walkPass(ct.base.Graph(), cfg.seed, ct, out)
	}
	ct.close()
	if err != nil {
		return nil, err
	}

	for _, p := range []struct {
		layer string
		p     *pass
	}{{"router", rpass}, {"engine", epass}, {"core", cpass}} {
		for _, r := range p.p.reads[:p.p.nReads] {
			rp.count(p.layer+"_replay", r.err != nil, errString(r.err))
		}
		for _, u := range p.p.updates[:p.p.nUpds] {
			rp.count(p.layer+"_replay", u.err != nil, errString(u.err))
		}
	}

	httpMetrics(out, hp, rpass, rt)
	routerMetrics(out, rpass, epass, et)
	engineMetrics(out, gs, epass, et, ct, cpass, rt)
	coreMetrics(out, ct)
	out.set("core.build_s", median(st.buildS))
	out.set("core.max_abs_error", acc.maxAbsError)
	out.set("core.precision_at_10", acc.precision)
	out.set("snapshot.mb", st.snapMB)
	out.set("snapshot.save_ms", median(st.saveMS))
	out.set("snapshot.open_ms", median([]float64{rt.openMS, et.openMS, ct.openMS}))

	spans := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, cfg.seed))
	if err := tr.write(spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	rp.Details["spans_file"] = spans
	rp.Details["replayed_reads"] = hp.nReads
	rp.Details["replayed_updates"] = hp.nUpds
	rp.Details["core_computations"] = len(ct.reads)
	kinds := map[string]string{}
	var idle []string
	metrics := map[string]metric{}
	for _, m := range perLayer {
		v, ok := out[m.name]
		if !ok {
			idle = append(idle, m.name)
		}
		metrics[m.name] = metric{v, m.unit}
		kinds[m.name] = m.kind
	}
	rp.Details["metric_kinds"] = kinds
	rp.Details["not_exercised"] = idle
	return metrics, nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// routerTarget replays through the public serving API, mirroring
// prsimserve's handlers: /topk is Served.Do with K, a batch is DoBatch, and
// an insert is ApplyUpdatesOpts, then a delta (or full rewrite past half the
// base size) next to the snapshot, then Served.Update.
type routerTarget struct {
	tr       *tracer
	reg      *prsim.Registry
	sv       *prsim.Served
	path     string
	openMS   float64
	baseGens prsim.SnapshotGens
	baseOK   bool

	applyMS      []float64
	publishMS    []float64
	swapMS       []float64
	deltaBytes   []float64
	fullRewrites int
	cacheBefore  int
	cacheAfter   int
}

func newRouterTarget(path string, tr *tracer) (*routerTarget, error) {
	t := &routerTarget{tr: tr, reg: prsim.NewRegistry(), path: path}
	cfg := prsim.GraphConfig{Shards: 2, Engine: prsim.EngineOptions{CacheSize: 1024}}
	sv, err := t.reg.MountOpener(prsim.DefaultGraph, cfg, func() (*prsim.Index, error) {
		t0 := time.Now()
		idx, err := prsim.OpenSnapshot(path, nil)
		t.openMS = float64(time.Since(t0)) / 1e6
		return idx, err
	})
	if err != nil {
		return nil, err
	}
	t.sv = sv
	t.baseGens, t.baseOK, err = prsim.SnapshotFileGens(path)
	if err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

func (t *routerTarget) close() { _ = t.reg.Close() }

func (t *routerTarget) read(ctx context.Context, _ int, r read) (outcome, error) {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	if r.kind == kindBatch {
		_, err := t.sv.DoBatch(ctx, prsim.Request{Epsilon: batchEps, NoCache: true, Adaptive: prsim.AdaptiveOff, Class: prsim.ClassBatch}, r.sources)
		return outcome{}, err
	}
	resp, err := t.sv.Do(ctx, prsim.Request{Source: r.sources[0], K: topK, Epsilon: r.kind.epsilon(), Adaptive: adaptiveMode(r.kind)})
	if err != nil {
		return outcome{}, err
	}
	return outcome{hit: resp.CacheHit || resp.Coalesced}, nil
}

func adaptiveMode(k reqKind) prsim.AdaptiveMode {
	if k.adaptive() {
		return prsim.AdaptiveOn
	}
	return prsim.AdaptiveOff
}

func (t *routerTarget) update(_ context.Context, id int, e [2]int) error {
	t0 := time.Now()
	nidx, st, err := t.sv.Current().ApplyUpdatesOpts([]prsim.EdgeUpdate{{From: e[0], To: e[1]}}, prsim.UpdateOptions{})
	if err != nil {
		return err
	}
	t1 := time.Now()
	if err := t.publish(nidx); err != nil {
		return err
	}
	t2 := time.Now()
	before := t.sv.StatsAggregate().CacheEntries
	if err := t.sv.Update(nidx, st); err != nil {
		return err
	}
	t3 := time.Now()
	t.cacheBefore += before
	t.cacheAfter += t.sv.StatsAggregate().CacheEntries
	t.applyMS = append(t.applyMS, t.tr.add("router", "apply", id, t0, t1).ms())
	t.publishMS = append(t.publishMS, t.tr.add("router", "publish", id, t1, t2).ms())
	t.swapMS = append(t.swapMS, t.tr.add("router", "swap", id, t2, t3).ms())
	return nil
}

// publish writes idx next to the snapshot as prsimserve does.
func (t *routerTarget) publish(idx *prsim.Index) error {
	if t.baseOK {
		size, err := idx.DeltaSize(t.baseGens)
		fi, serr := os.Stat(t.path)
		if err == nil && serr == nil && float64(size) <= 0.5*float64(fi.Size()) {
			if err := idx.WriteDeltaFile(t.path+".delta", t.baseGens); err != nil {
				return err
			}
			t.deltaBytes = append(t.deltaBytes, float64(size))
			return nil
		}
	}
	if err := idx.SaveFile(t.path + ".new"); err != nil {
		return err
	}
	if err := os.Rename(t.path+".new", t.path); err != nil {
		return err
	}
	_ = os.Remove(t.path + ".delta") // the rewrite supersedes it; often there is none
	t.baseGens, t.baseOK = idx.Gens(), true
	t.fullRewrites++
	return nil
}

// engineRead is what the engine pass learned about one read: whether it
// computed, and the computations the core pass replays.
type engineRead struct {
	computed bool
	parts    []enginePart
	shards   int
}

// enginePart is one computation: a solo query, or one shard's fused
// sub-batch, with the options and parallelism the engine ran it at.
type enginePart struct {
	sources []int
	batch   bool
	q       core.QueryOptions
}

// engineTarget replays through each source's owning shard engine.
type engineTarget struct {
	sv     *router.Served
	openMS float64
	reads  []engineRead
}

func newEngineTarget(path string, nReads int) (*engineTarget, error) {
	t0 := time.Now()
	snap, err := snapshot.Open(path, nil, snapshot.Options{})
	if err != nil {
		return nil, err
	}
	idx, err := snap.Index()
	if err != nil {
		snap.Close()
		return nil, err
	}
	snap.WarmUp()
	t := &engineTarget{openMS: float64(time.Since(t0)) / 1e6, reads: make([]engineRead, nReads)}
	t.sv, err = router.NewRegistry().Mount(prsim.DefaultGraph, router.Config{
		Shards: 2,
		Engine: engine.Options{CacheSize: 1024},
		Open: func() (router.Opened, error) {
			return router.Opened{Index: idx, Res: snap, Close: snap.Close}, nil
		},
	})
	if err != nil {
		snap.Close()
		return nil, err
	}
	return t, nil
}

func (t *engineTarget) close() { _ = t.sv.Close() }

func (t *engineTarget) read(ctx context.Context, id int, r read) (outcome, error) {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	rec := &t.reads[id]
	if r.kind != kindBatch {
		u := r.sources[0]
		rec.shards = 1
		resp, err := t.sv.Engine(t.sv.ShardFor(u)).Do(ctx, engine.Request{Source: u, K: topK, Epsilon: r.kind.epsilon(), Adaptive: engineAdaptive(r.kind)})
		if err != nil {
			return outcome{}, err
		}
		hit := resp.CacheHit || resp.Coalesced
		if !hit {
			rec.computed = true
			q := core.QueryOptions{Epsilon: r.kind.epsilon(), Adaptive: r.kind.adaptive(), Parallelism: resp.Result.Stats.Parallelism}
			rec.parts = []enginePart{{sources: []int{u}, q: q}}
		}
		return outcome{hit: hit}, nil
	}
	// Scatter like the router, without its merge: each shard's sub-batch
	// runs concurrently on the shard's engine.
	groups := map[int][]int{}
	for _, u := range r.sources {
		sh := t.sv.ShardFor(u)
		groups[sh] = append(groups[sh], u)
	}
	rec.shards = len(groups)
	rec.computed = true
	var g group
	var mu sync.Mutex
	for sh, sub := range groups {
		g.run(func() error {
			resps, err := t.sv.Engine(sh).DoBatch(ctx, engine.Request{Epsilon: batchEps, NoCache: true, Adaptive: engine.AdaptiveOff, Class: engine.ClassBatch}, sub)
			if err != nil {
				return err
			}
			q := core.QueryOptions{Epsilon: batchEps, Parallelism: resps[0].Result.Stats.Parallelism}
			mu.Lock()
			rec.parts = append(rec.parts, enginePart{sources: sub, batch: true, q: q})
			mu.Unlock()
			return nil
		})
	}
	return outcome{}, g.wait()
}

func engineAdaptive(k reqKind) engine.AdaptiveMode {
	if k.adaptive() {
		return engine.AdaptiveOn
	}
	return engine.AdaptiveOff
}

func (t *engineTarget) update(_ context.Context, _ int, e [2]int) error {
	nidx, st, err := t.sv.Engine(0).Index().ApplyUpdatesOpts([]graph.EdgeUpdate{{From: e[0], To: e[1]}}, core.UpdateOptions{})
	if err != nil {
		return err
	}
	return t.sv.Update(router.Opened{Index: nidx}, st)
}

// coreTarget replays the engine pass's computations on a bare index: read i
// of its sequence is the i-th computed engine read.
type coreTarget struct {
	tr     *tracer
	snap   *snapshot.Snapshot
	base   *core.Index
	cur    atomic.Pointer[core.Index]
	openMS float64
	reads  []read // placeholders: the work is in parts
	parts  [][]enginePart
	origID []int

	mu       sync.Mutex
	solo     []float64 // QueryIntoOpts spans, ms
	batchMS  float64   // sum of QueryBatchIntoOpts spans, ms
	batchSrc int
	spanNS   float64 // sum of every query span, ns
	stats    []core.QueryStats
	updates  []*core.UpdateStats
	applyMS  []float64
}

func newCoreTarget(path string, et *engineTarget, tr *tracer) (*coreTarget, error) {
	t0 := time.Now()
	snap, err := snapshot.Open(path, nil, snapshot.Options{})
	if err != nil {
		return nil, err
	}
	idx, err := snap.Index()
	if err != nil {
		snap.Close()
		return nil, err
	}
	snap.WarmUp()
	t := &coreTarget{tr: tr, snap: snap, base: idx, openMS: float64(time.Since(t0)) / 1e6}
	t.cur.Store(idx)
	for id, r := range et.reads {
		if r.computed {
			t.reads = append(t.reads, read{})
			t.parts = append(t.parts, r.parts)
			t.origID = append(t.origID, id)
		}
	}
	return t, nil
}

func (t *coreTarget) close() { _ = t.snap.Close() }

func (t *coreTarget) read(ctx context.Context, i int, _ read) (outcome, error) {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	idx := t.cur.Load()
	id := t.origID[i]
	parts := t.parts[i]
	if !parts[0].batch {
		p := parts[0]
		res := &core.Result{}
		t0 := time.Now()
		err := idx.QueryIntoOpts(ctx, p.sources[0], res, p.q)
		t1 := time.Now()
		if err != nil {
			return outcome{}, err
		}
		sp := t.tr.add("core", "query", id, t0, t1)
		t.mu.Lock()
		t.solo = append(t.solo, sp.ms())
		t.spanNS += float64(sp.End - sp.Start)
		t.stats = append(t.stats, res.Stats)
		t.mu.Unlock()
		return outcome{}, nil
	}
	var g group
	for _, p := range parts {
		g.run(func() error {
			results := make([]*core.Result, len(p.sources))
			for k := range results {
				results[k] = &core.Result{}
			}
			t0 := time.Now()
			if err := idx.QueryBatchIntoOpts(ctx, p.sources, results, p.q); err != nil {
				return err
			}
			sp := t.tr.add("core", "batch", id, t0, time.Now())
			t.mu.Lock()
			defer t.mu.Unlock()
			t.batchMS += sp.ms()
			t.batchSrc += len(p.sources)
			t.spanNS += float64(sp.End - sp.Start)
			for _, r := range results {
				t.stats = append(t.stats, r.Stats)
			}
			return nil
		})
	}
	return outcome{}, g.wait()
}

func (t *coreTarget) update(_ context.Context, id int, e [2]int) error {
	t0 := time.Now()
	nidx, st, err := t.cur.Load().ApplyUpdatesOpts([]graph.EdgeUpdate{{From: e[0], To: e[1]}}, core.UpdateOptions{})
	if err != nil {
		return err
	}
	sp := t.tr.add("core", "apply", id, t0, time.Now())
	t.cur.Store(nidx)
	t.updates = append(t.updates, st)
	t.applyMS = append(t.applyMS, sp.ms())
	return nil
}

// walkPass times the sampling kernels from each computed source: one
// 2048-walk SampleN (a walk chunk's worth) and PairMeetsFromN from the
// terminal nodes of its terminated walks.
func walkPass(g *graph.Graph, seed uint64, ct *coreTarget, out traced) error {
	const walksPerSource, maxSources = 2048, 256
	seen := map[int]bool{}
	var sources []int
	for _, parts := range ct.parts {
		for _, p := range parts {
			for _, u := range p.sources {
				if !seen[u] && len(sources) < maxSources {
					seen[u] = true
					sources = append(sources, u)
				}
			}
		}
	}
	if len(sources) == 0 {
		return nil
	}
	w, err := walk.NewWalker(g, decay, seed)
	if err != nil {
		return err
	}
	var res []walk.Result
	var ends []int
	var meets []bool
	var sampleNS, pairNS time.Duration
	walks, pairs := 0, 0
	for _, u := range sources {
		t0 := time.Now()
		res = w.SampleN(u, walksPerSource, res)
		sampleNS += time.Since(t0)
		walks += walksPerSource
		ends = ends[:0]
		for _, r := range res {
			if r.Terminated {
				ends = append(ends, r.Node)
			}
		}
		t1 := time.Now()
		meets = w.PairMeetsFromN(ends, meets)
		pairNS += time.Since(t1)
		pairs += len(ends)
	}
	out.set("walk.sample_ns", float64(sampleNS)/float64(walks))
	if pairs > 0 {
		out.set("walk.pair_meet_ns", float64(pairNS)/float64(pairs))
	}
	return nil
}

// selfP50 is the median over paired requests of upper's span minus
// lower's, pairing only requests both passes completed with the same
// hit-or-compute outcome.
func selfP50(upper, lower *pass) (float64, bool) {
	var d []float64
	for i := 0; i < upper.nReads && i < lower.nReads; i++ {
		a, b := upper.reads[i], lower.reads[i]
		if a.err == nil && b.err == nil && a.out.hit == b.out.hit {
			d = append(d, a.ms()-b.ms())
		}
	}
	if len(d) == 0 {
		return 0, false
	}
	sort.Float64s(d)
	return percentile(d, 0.5), true
}

func (t traced) setP50(name string, vals []float64) {
	if len(vals) > 0 {
		t.set(name, median(vals))
	}
}

func (t traced) setSelf(name string, upper, lower *pass) {
	if v, ok := selfP50(upper, lower); ok {
		t.set(name, v)
	}
}

// httpMetrics derives the http layer's numbers from the http pass and the
// router pass below it.
func httpMetrics(out traced, hp, rpass *pass, rt *routerTarget) {
	var lat []float64
	bytes := 0
	for _, r := range hp.reads[:hp.nReads] {
		if r.err == nil {
			lat = append(lat, r.ms())
			bytes += r.out.bytes
		}
	}
	out.setP50("http.p50_ms", lat)
	if len(lat) > 0 {
		out.set("http.resp_kb", float64(bytes)/float64(len(lat))/1024)
	}
	out.setSelf("http.self_ms", hp, rpass)
	var upd, self []float64
	for j, u := range hp.updates[:hp.nUpds] {
		if u.err != nil {
			continue
		}
		upd = append(upd, u.ms())
		if j < len(rt.applyMS) {
			self = append(self, u.ms()-rt.applyMS[j]-rt.publishMS[j]-rt.swapMS[j])
		}
	}
	out.setP50("http.update_ms", upd)
	out.setP50("http.update_self_ms", self)
}

// routerMetrics derives the router layer's numbers.
func routerMetrics(out traced, rpass, epass *pass, et *engineTarget) {
	out.setSelf("router.self_ms", rpass, epass)
	shards := 0
	for _, r := range et.reads[:epass.nReads] {
		shards += r.shards
	}
	if epass.nReads > 0 {
		out.set("router.shards_per_req", float64(shards)/float64(epass.nReads))
	}
}

// engineMetrics derives the engine layer's numbers: ratios from the http
// pass's /stats counters, spans from the engine pass and the core pass
// below it, swap and cache retention from the router pass's updates.
func engineMetrics(out traced, gs *graphStats, epass *pass, et *engineTarget, ct *coreTarget, cpass *pass, rt *routerTarget) {
	e := gs.Engine
	if q := e["queries"]; q > 0 {
		out.set("engine.hit_ratio", e["cache_hits"]/q)
		out.set("engine.range_coalesced_ratio", e["range_coalesced"]/q)
		out.set("engine.coalesced_ratio", e["coalesced"]/q)
		out.set("engine.computed_ratio", (q-e["cache_hits"]-e["coalesced"])/q)
		out.set("engine.chunks_lost", e["chunks_executed"]-e["chunks_merged"])
	}
	var hit, self []float64
	for _, r := range epass.reads[:epass.nReads] {
		if r.err == nil && r.out.hit {
			hit = append(hit, r.ms())
		}
	}
	for j, c := range cpass.reads[:cpass.nReads] {
		if e := epass.reads[ct.origID[j]]; c.err == nil && e.err == nil {
			self = append(self, e.ms()-c.ms())
		}
	}
	out.setP50("engine.hit_ms", hit)
	out.setP50("engine.self_ms", self)
	parts, parallel := 0, 0
	for _, r := range et.reads[:epass.nReads] {
		for _, p := range r.parts {
			parts++
			if p.q.Parallelism > 1 {
				parallel++
			}
		}
	}
	if parts > 0 {
		out.set("engine.parallel_ratio", float64(parallel)/float64(parts))
	}
	out.setP50("engine.swap_ms", rt.swapMS)
	if rt.cacheBefore > 0 {
		out.set("engine.cache_kept_ratio", float64(rt.cacheAfter)/float64(rt.cacheBefore))
	}
	out.setP50("snapshot.publish_ms", rt.publishMS)
	if len(rt.applyMS) > 0 {
		out.set("snapshot.full_rewrites", float64(rt.fullRewrites))
		kb := 0.0
		for _, b := range rt.deltaBytes {
			kb += b / 1024
		}
		out.set("snapshot.delta_kb", kb/float64(len(rt.applyMS)))
	}
}

// coreMetrics derives the core and update numbers from the core pass.
func coreMetrics(out traced, ct *coreTarget) {
	if len(ct.solo) > 0 {
		s := append([]float64(nil), ct.solo...)
		sort.Float64s(s)
		out.set("core.query_ms", percentile(s, 0.5))
		out.set("core.query_p99_ms", percentile(s, 0.99))
	}
	if ct.batchSrc > 0 {
		out.set("core.ms_per_source", ct.batchMS/float64(ct.batchSrc))
	}
	if n := float64(len(ct.stats)); n > 0 {
		var walks, bw, entries, rounds, budget, early, hub, nonHub float64
		for _, s := range ct.stats {
			walks += float64(s.Walks)
			bw += float64(s.BackwardWalkCost)
			entries += float64(s.IndexEntriesRead)
			rounds += float64(s.RoundsExecuted)
			budget += float64(s.RoundsBudget)
			hub += float64(s.HubHits)
			nonHub += float64(s.NonHubHits)
			if s.EarlyStopped {
				early++
			}
		}
		out.set("core.walks", walks/n)
		out.set("core.bw_cost", bw/n)
		out.set("core.index_entries", entries/n)
		out.set("core.rounds_ratio", rounds/budget)
		out.set("core.early_stop_ratio", early/n)
		out.set("core.hub_hit_ratio", hub/(hub+nonHub))
		out.set("core.ns_per_walk", ct.spanNS/walks)
	}
	if n := float64(len(ct.updates)); n > 0 {
		var pr, push, detect []float64
		var hubs, entries float64
		for _, u := range ct.updates {
			pr = append(pr, float64(u.PageRankTime)/1e6)
			push = append(push, float64(u.PushTime)/1e6)
			detect = append(detect, float64(u.DetectTime)/1e6)
			hubs += u.FractionHubs
			entries += u.FractionEntries
		}
		out.setP50("update.apply_ms", ct.applyMS)
		out.setP50("update.pagerank_ms", pr)
		out.setP50("update.push_ms", push)
		out.setP50("update.detect_ms", detect)
		out.set("update.hubs_ratio", hubs/n)
		out.set("update.entries_ratio", entries/n)
	}
}
