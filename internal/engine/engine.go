// Package engine turns a PRSim index into a throughput-oriented concurrent
// query service. PRSim single-source queries are sublinear and mutually
// independent (Wei et al., SIGMOD 2019), which makes them embarrassingly
// parallel — and the engine wraps that parallelism in one unified request
// plane: every query is a Request (source, per-request epsilon, top-k,
// cache policy) that flows through one validation point, one cache, one
// in-flight dedupe table, and one admission gate.
//
//   - Per-request accuracy: Request.Epsilon resizes the walk and
//     backward-walk budgets for that query only (clamped up to the index's
//     build epsilon); the cache is keyed by (generation, source, effective
//     epsilon) so different accuracy tiers never collide.
//   - Single-flight coalescing: identical in-flight requests — same key —
//     share one underlying computation; joiners wait on the leader instead
//     of burning worker slots, so a thundering herd of duplicates costs one
//     query.
//   - Admission control: a deadline-aware two-class wait queue in front of
//     the worker pool. Requests carry a Class (interactive or batch); freed
//     worker slots always go to waiting interactive requests before batch
//     ones, per-class queues are bounded, and a request whose context
//     deadline provably cannot be met — predicted wait from queue depth ×
//     observed per-class service time already exceeds it — is shed
//     immediately with ErrOverloaded instead of timing out in line. Shed
//     errors carry a Retry-After hint derived from the same telemetry;
//     callers (the HTTP front-end) translate them to 429 + Retry-After.
//   - Intra-query parallelism: a request may borrow idle worker slots for
//     its walk chunks (Request.Parallelism, 0 = auto takes whatever is
//     idle). The borrow never waits, so a heavy query cannot queue chunks
//     ahead of other requests, and the chunk decomposition is independent of
//     the worker count, so results stay bit-identical at every level.
//   - One request path: Do is a one-entry DoBatchEach. Entries the cache or
//     an in-flight computation cannot answer run as one core computation
//     that streams each index level once per bounded wave of sources — not
//     once per source — into per-source accumulators; memory stays flat in
//     the batch length, and duplicate sources join the first one's flight,
//     sharing one Result and counting as coalesced.
//
// Every query draws its scratch state from the index's internal free list, so
// a worker that stays busy performs near-zero per-query allocation. Results
// are deterministic for a fixed index seed and effective epsilon regardless
// of worker count or scheduling: each source's random stream is derived from
// (seed, source) only, so DoBatch returns bit-identical scores to sequential
// core queries.
//
// The served index lives behind an atomically swappable handle: Swap installs
// a new index (typically a freshly opened snapshot) without dropping
// requests. Each query retains the handle's backing resource for its
// duration, so the old snapshot's mapping survives until in-flight queries
// drain. The result cache is generation-keyed; a swap purges it unless the
// incoming index provably serves the same graph with the same query options
// (equal structural checksum), in which case the entries are re-keyed to the
// new generation and stay warm across the reload.
package engine

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"prsim/internal/core"
	"prsim/internal/graph"
)

// ErrIndexClosed is returned when the engine's current index backing has been
// closed without a replacement being swapped in.
var ErrIndexClosed = errors.New("engine: index backing closed")

// ErrOverloaded is the load-shedding sentinel: the worker pool is saturated
// and the admission queue is full, so the request was rejected without doing
// any work. Shed requests never return a partial result; callers should back
// off and retry (the HTTP layer maps this to 429 + Retry-After).
var ErrOverloaded = errors.New("engine: overloaded, request shed")

// Resource is the lifecycle hook of an index backing (a mmap'd snapshot).
// Retain takes a reference for the duration of one query and reports false if
// the backing has been closed; Release drops it. A nil Resource means the
// index is heap-backed and needs no tracking.
type Resource interface {
	Retain() bool
	Release()
}

// Options configures an Engine.
type Options struct {
	// Workers is the size of the worker pool: it bounds the computations
	// executing concurrently, counting the idle slots a computation borrows
	// for its walk phases. Zero or negative means GOMAXPROCS.
	Workers int
	// CacheSize is the number of query results kept in the LRU cache; zero or
	// negative disables caching. Cached results are shared: treat them (and
	// their Scores maps) as read-only.
	CacheSize int
	// MaxQueue bounds how many requests of each class may wait for a worker
	// slot before new arrivals of that class are shed with ErrOverloaded.
	// Zero means the default bound (max(32, 4×Workers)); negative disables
	// shedding entirely (requests queue without limit, the
	// pre-admission-control behavior). The bound is per class, so a batch
	// backlog can never crowd interactive arrivals out of the queue.
	// Coalesced joiners and cache hits never occupy queue slots.
	MaxQueue int
	// Resource is the lifecycle hook of the initial index's backing; nil for
	// heap-backed indexes.
	Resource Resource
	// AdaptiveDefault is the execution mode AdaptiveAuto requests resolve to:
	// false (the default) keeps auto requests on the fixed worst-case budget,
	// true lets them terminate early once converged. Explicit AdaptiveOn /
	// AdaptiveOff requests are unaffected.
	AdaptiveDefault bool
}

// Request is one unit of query work — the single parameter bundle that flows
// unchanged from the public API through the engine into core. The zero value
// (plus a Source) reproduces the classic Query behavior exactly.
type Request struct {
	// Source is the query node u.
	Source int
	// Epsilon is the per-request additive error target; zero inherits the
	// index's build epsilon. Values below the build epsilon are clamped up to
	// it (Response.Clamped reports when); values outside (0,1) are rejected.
	Epsilon float64
	// K, when positive, asks for the top-k most similar nodes: Response.Top
	// is populated. When nothing else can see the computed result — the
	// request is not cached (caching disabled, or NoCache) and no other
	// request joined its computation (an identical entry later in the same
	// batch joins too) — the engine computes into a pooled result, keeps
	// only the selection, and recycles the result (zero per-request result
	// allocation). K = 0 returns the full result; negative K yields an empty
	// Top.
	K int
	// NoCache makes this request bypass the result cache for both lookup and
	// insert. It still coalesces with identical in-flight requests.
	NoCache bool
	// Parallelism is the intra-query parallelism hint: how many worker slots
	// this query may use for its walk chunks. 0 = auto (borrow every idle
	// worker, capped at the query's chunk count); 1 pins the query serial;
	// larger values raise the cap, never past the pool size. Extra slots are
	// only ever taken when idle — a chunk is never queued behind another
	// query — so a busy pool degrades gracefully to serial. Results are
	// bit-identical at every level, which is why the hint is excluded from
	// cache keys and single-flight identity.
	Parallelism int
	// Adaptive selects the sampling execution mode: AdaptiveAuto (the zero
	// value) follows the engine's configured default, AdaptiveOn enables
	// variance-based early termination (the query stops as soon as an
	// empirical-Bernstein bound certifies the epsilon target, never past the
	// worst-case budget), AdaptiveOff pins the fixed budget — bit-identical
	// to the pre-adaptive engine. The resolved mode is part of cache and
	// single-flight identity; adaptive requests additionally accept any
	// cached or in-flight answer computed at a tighter epsilon (range
	// coalescing, reported via Response.ServedFromTighter).
	Adaptive AdaptiveMode
	// Class is the admission class: ClassInteractive (the zero value) jumps
	// ahead of queued ClassBatch work whenever a worker frees up, and the two
	// classes have separate bounded queues and service-time telemetry. The
	// class never changes results and is excluded from cache and
	// single-flight identity.
	Class Class
	// AllowPartial opts a scatter-gathered batch into graceful degradation:
	// when a shard is unavailable (remote replica down, circuit breaker
	// open), the router returns the surviving shards' answers flagged
	// Degraded instead of failing the whole batch. The engine itself ignores
	// the flag — a single local engine is never partial — and it is excluded
	// from cache and single-flight identity (it cannot change any per-source
	// result).
	AllowPartial bool
}

// Response is the answer to one Request, carrying the result (or top-k
// selection) plus the request-plane metadata serving layers surface.
type Response struct {
	// Result is the full query result; treat it as read-only — it may be
	// shared with concurrent callers through the cache or coalescing. Nil
	// when the engine answered a top-k request from a pooled result (K > 0,
	// not cached, no joiner; see Request.K).
	Result *core.Result
	// Top is the top-K selection in descending score order; set when K != 0.
	Top []core.ScoredNode
	// Graph is the graph the answering computation ran on — labels must
	// resolve against it, not against whichever index is current at render
	// time (a hot Swap can land mid-flight).
	Graph *graph.Graph
	// Epsilon is the effective additive error bound of the *request*
	// (post-clamping): what the caller asked for and is guaranteed. The
	// answering computation may have run tighter — see EpsilonServed.
	Epsilon float64
	// EpsilonServed is the epsilon the answering computation actually ran at:
	// equal to Epsilon except when range coalescing satisfied this request
	// from a tighter cached or in-flight computation, in which case
	// EpsilonServed < Epsilon (a strictly better answer than requested).
	EpsilonServed float64
	// ServedFromTighter reports that range coalescing answered this request
	// from a computation at a tighter epsilon (or a fixed-budget computation
	// at the same epsilon) instead of one with the request's exact identity.
	ServedFromTighter bool
	// Clamped reports that the requested epsilon was below the index's build
	// epsilon and was raised to it.
	Clamped bool
	// CacheHit reports the result came from the LRU cache.
	CacheHit bool
	// Coalesced reports the result was shared from an identical in-flight
	// request's computation rather than computed for this caller.
	Coalesced bool
}

// slot is one generation of the served index. Immutable once published.
type slot struct {
	idx *core.Index
	res Resource // nil for heap-backed indexes
	gen uint64
}

// acquire takes a query-scoped reference on the slot's backing.
func (s *slot) acquire() bool { return s.res == nil || s.res.Retain() }

// release drops the reference taken by acquire.
func (s *slot) release() {
	if s.res != nil {
		s.res.Release()
	}
}

// flight is one in-flight single-source computation that identical requests
// coalesce onto. The leader publishes res/err and closes done; joiners
// registered before the flight left the table read them after done.
type flight struct {
	done chan struct{}
	res  *core.Result
	err  error
	// joiners counts the callers sharing this computation besides the
	// leader; guarded by Engine.flightMu.
	joiners int
}

// Engine is a concurrent query front-end over one PRSim index. It is safe for
// use by multiple goroutines.
type Engine struct {
	cur             atomic.Pointer[slot]
	gen             atomic.Uint64
	workers         int
	maxQueue        int // -1 = unbounded
	adm             *admitter
	cache           *resultCache
	adaptiveDefault bool

	// flights is the single-flight table: one entry per distinct (generation,
	// source, effective epsilon, adaptive mode) currently being computed.
	// flightIdx is its per-(generation, source) secondary index — the range
	// lookup adaptive requests coalesce through; both are guarded by flightMu
	// and maintained together.
	flightMu  sync.Mutex
	flights   map[cacheKey]*flight
	flightIdx map[genSource][]cacheKey

	queries     atomic.Int64
	cacheHits   atomic.Int64
	coalesced   atomic.Int64
	pairs       atomic.Int64
	errors      atomic.Int64
	swaps       atomic.Int64
	cacheReuses atomic.Int64

	// Adaptive-execution telemetry: rangeCoalesced counts requests satisfied
	// by a tighter-than-requested cached or in-flight computation,
	// earlyStops counts computations that terminated before the worst-case
	// budget, and roundsExecuted/roundsBudget accumulate the per-computation
	// Monte Carlo round counts (their ratio is the fleet-wide fraction of
	// the worst-case sampling budget actually spent).
	rangeCoalesced atomic.Int64
	earlyStops     atomic.Int64
	roundsExecuted atomic.Int64
	roundsBudget   atomic.Int64

	// classQueries / classShed split the request and shed counts by admission
	// class (indexed by Class).
	classQueries [numClasses]atomic.Int64
	classShed    [numClasses]atomic.Int64

	parallelQueries atomic.Int64

	// chunksExecuted counts the walk chunks this engine's computations ran,
	// cancelled ones included, as core reports them per call; chunksMerged
	// sums the chunks of the results they returned. Counted here rather than
	// on the index, so shards sharing one index and generations swapped out
	// mid-query each count exactly the work they did.
	chunksExecuted atomic.Int64
	chunksMerged   atomic.Int64

	// resPool recycles core.Results for queries whose Result never escapes
	// the engine — top-k requests under the pooling rule of Request.K.
	// Pooled results are index-agnostic (core rebinds the graph and recycles
	// the score map), so the pool survives hot swaps: a result last used
	// against a swapped-out generation is safely reused against the new one.
	resPool sync.Pool
}

// New builds an engine over idx. opts.Resource, when non-nil, is retained
// around every query so the backing can be closed safely after a Swap.
func New(idx *core.Index, opts Options) (*Engine, error) {
	if idx == nil {
		return nil, fmt.Errorf("engine: nil index")
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	maxQueue := opts.MaxQueue
	switch {
	case maxQueue == 0:
		maxQueue = 4 * workers
		if maxQueue < 32 {
			maxQueue = 32
		}
	case maxQueue < 0:
		maxQueue = -1
	}
	e := &Engine{
		workers:         workers,
		maxQueue:        maxQueue,
		adm:             newAdmitter(workers, maxQueue),
		flights:         make(map[cacheKey]*flight),
		flightIdx:       make(map[genSource][]cacheKey),
		adaptiveDefault: opts.AdaptiveDefault,
	}
	if opts.CacheSize > 0 {
		e.cache = newResultCache(opts.CacheSize)
	}
	e.cur.Store(&slot{idx: idx, res: opts.Resource, gen: 0})
	return e, nil
}

// Index returns the currently served index.
func (e *Engine) Index() *core.Index { return e.cur.Load().idx }

// Generation returns the swap generation of the currently served index,
// starting at 0 and incremented by every Swap.
func (e *Engine) Generation() uint64 { return e.cur.Load().gen }

// Workers returns the concurrency bound.
func (e *Engine) Workers() int { return e.workers }

// MaxQueue returns the admission queue bound (-1 when shedding is disabled).
func (e *Engine) MaxQueue() int { return e.maxQueue }

// Swap atomically replaces the served index. In-flight queries finish against
// the old index (its resource stays retained until they drain); new queries
// see the new one immediately.
//
// The result cache is generation-keyed. When the incoming index provably
// serves the same results — identical graph checksum, query-equivalent build
// options, same hub count — the cached entries are re-keyed to the new
// generation (rebound to the new graph object, since the old one may alias a
// mapping about to be unmapped) and stay warm across the reload. Otherwise
// the cache is purged.
//
// The engine does not own the old backing: the caller closes it after Swap
// returns (a refcounted backing then defers its teardown until the drained
// queries release it).
func (e *Engine) Swap(idx *core.Index, res Resource) error {
	return e.swap(idx, res, nil)
}

// SwapWithImpact atomically replaces the served index with the successor of an
// incremental core.Index.ApplyUpdates, using the update's impact set to keep
// the cache warm across the swap. Swap keeps the cache only when the successor
// provably serves identical results; an incremental update changes results,
// but core.UpdateStats bounds the blast radius: only the recomputed hubs and
// the mutation endpoints carry new index state. A cached entry whose source
// and score support both avoid that impact set was computed entirely from
// carried hub state; it remains an ε-faithful answer for the successor — and
// is bit-identical to a fresh query when the source's reachable neighborhood
// avoids the mutation entirely (natural LRU turnover refreshes the rest).
// SwapWithImpact retains exactly those entries, rebound to the new
// generation's graph. Every other entry — and, when the successor does not
// descend from the served index's lineage or impact is nil, the whole cache —
// is dropped, exactly like Swap.
func (e *Engine) SwapWithImpact(idx *core.Index, res Resource, impact *core.UpdateStats) error {
	return e.swap(idx, res, impact)
}

// swap is the shared implementation of Swap and SwapWithImpact.
func (e *Engine) swap(idx *core.Index, res Resource, impact *core.UpdateStats) error {
	if idx == nil {
		return fmt.Errorf("engine: nil index")
	}
	old := e.cur.Load()
	gen := e.gen.Add(1)
	e.cur.Store(&slot{idx: idx, res: res, gen: gen})
	e.swaps.Add(1)
	if e.cache == nil {
		return nil
	}
	switch {
	case servingStateEquivalent(old.idx, idx):
		e.cache.rekeyFiltered(old.gen, gen, idx.Graph(), func(int, *core.Result) bool { return true })
		e.cacheReuses.Add(1)
	case impact != nil && updateCompatible(old.idx, idx):
		touched := make(map[int]bool, len(impact.RecomputedHubs)+len(impact.Endpoints))
		for _, w := range impact.RecomputedHubs {
			touched[w] = true
		}
		for _, v := range impact.Endpoints {
			touched[v] = true
		}
		kept := e.cache.rekeyFiltered(old.gen, gen, idx.Graph(), func(source int, res *core.Result) bool {
			if touched[source] {
				return false
			}
			for v := range res.Scores {
				if touched[v] {
					return false
				}
			}
			return true
		})
		if kept > 0 {
			e.cacheReuses.Add(1)
		}
	default:
		e.cache.purge()
	}
	return nil
}

// updateCompatible reports whether b descends from a's serving lineage through
// incremental ApplyUpdates steps, which is what makes impact-filtered cache
// retention sound: the generation lineage matches (same original graph, build
// options, and seed — carried by every update and synthesized identically for
// v3 snapshots), b's generation is strictly newer, and the query-relevant
// options and carried hub count agree.
func updateCompatible(a, b *core.Index) bool {
	ga, gb := a.Gens(), b.Gens()
	return ga.Lineage == gb.Lineage &&
		gb.Generation > ga.Generation &&
		a.Options().QueryEquivalent(b.Options()) &&
		a.NumHubs() == b.NumHubs()
}

// servingStateEquivalent reports whether an index swap preserves the validity
// of cached results: the new index must serve the same graph (equal
// structural checksum) with the same query-relevant options and the same
// realized hub count and entry volume. Reloading an unchanged (or re-saved)
// snapshot satisfies this; republishing a re-built or re-tuned index does
// not.
func servingStateEquivalent(a, b *core.Index) bool {
	if a == b {
		return true
	}
	return a.Options().QueryEquivalent(b.Options()) &&
		a.NumHubs() == b.NumHubs() &&
		a.SizeEntries() == b.SizeEntries() &&
		a.Graph().Checksum() == b.Graph().Checksum()
}

// acquire loads the current slot and retains its backing for one query. It
// retries across a concurrent Swap and fails only when the current backing
// has been closed without replacement.
func (e *Engine) acquire() (*slot, error) {
	for {
		s := e.cur.Load()
		if s.acquire() {
			return s, nil
		}
		if e.cur.Load() == s {
			// Nobody swapped a live index in; the backing was closed under
			// the engine (an operator error, but one that must surface as an
			// error, not a fault or a spin).
			e.errors.Add(1)
			return nil, ErrIndexClosed
		}
	}
}

// admit acquires a worker slot through the two-class admission queue. It
// returns *OverloadedError (unwrapping to ErrOverloaded, after counting the
// shed) when the class's queue is full or the request's deadline provably
// cannot be met — the caller has done no work yet, so shedding is free — and
// the context error when the caller gives up waiting.
func (e *Engine) admit(ctx context.Context, class Class) error {
	if !class.valid() {
		class = ClassInteractive
	}
	err := e.adm.acquire(ctx, class)
	if errors.Is(err, ErrOverloaded) {
		e.classShed[class].Add(1)
	}
	return err
}

// reserveParallelism resolves a request's intra-query parallelism hint
// (0 = auto) into a concrete worker count for the core computation, borrowing
// up to want-1 extra slots from the pool. The caller already holds one
// admitted slot; the borrow never waits — only idle capacity is taken, so one
// heavy computation cannot queue its chunks ahead of other requests — and is
// capped at useful, the computation's real fan-out (a solo query's chunk
// count, or a fused batch's leader count), so surplus workers are never
// reserved to idle. The extras count must be returned via releaseExtras
// after the computation.
func (e *Engine) reserveParallelism(hint, useful int) (p, extras int) {
	want := hint
	if want <= 0 || want > e.workers {
		want = e.workers
	}
	if want > useful {
		want = useful
	}
	if want > 1 {
		extras = e.grabExtras(want - 1)
	}
	return 1 + extras, extras
}

// grabExtras opportunistically takes up to n worker slots without waiting.
func (e *Engine) grabExtras(n int) int {
	got := 0
	for got < n && e.adm.tryAcquire() {
		got++
	}
	return got
}

// releaseExtras returns n slots taken by grabExtras.
func (e *Engine) releaseExtras(n int) {
	for ; n > 0; n-- {
		e.adm.release()
	}
}

// noteRounds folds one completed computation's Monte Carlo round counts into
// the adaptive telemetry.
func (e *Engine) noteRounds(st core.QueryStats) {
	e.roundsExecuted.Add(int64(st.RoundsExecuted))
	e.roundsBudget.Add(int64(st.RoundsBudget))
	if st.EarlyStopped {
		e.earlyStops.Add(1)
	}
}

// Do answers one Request through the request plane — validation, cache,
// single-flight coalescing, admission control, computation — as a one-entry
// DoBatchEach. See Request and Response for the knob and metadata semantics.
// The returned Response's Result may be shared with concurrent callers;
// treat it as read-only.
func (e *Engine) Do(ctx context.Context, req Request) (*Response, error) {
	resps, err := e.DoBatchEach(ctx, []Request{req})
	if err != nil {
		return nil, err
	}
	return resps[0], nil
}

// finishResponse binds res — the result of the computation en.served
// identifies — into the entry's response: the range-coalescing provenance
// when that is not the entry's own identity, then the top-k selection.
// Negative k yields an empty Top — HTTP handlers cannot be assumed to
// pre-validate, and slicing would panic.
func (e *Engine) finishResponse(en *entry, res *core.Result, k int) *Response {
	resp := &en.resp
	if en.served != en.key {
		e.rangeCoalesced.Add(1)
		resp.ServedFromTighter = true
		resp.EpsilonServed = en.served.epsilon
	}
	resp.Result = res
	resp.Graph = res.Graph()
	if k != 0 {
		if k < 0 {
			k = 0
		}
		resp.Top = res.TopK(k)
	}
	return resp
}

// isContextErr reports whether err is context-derived (the caller gave up)
// rather than a real query failure.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// DoBatch answers one request per source, in order; base supplies the shared
// per-request options (its Source is ignored). It is a shim over DoBatchEach
// with every entry carrying base's options; see DoBatchEach for the fused
// execution and coalescing semantics.
func (e *Engine) DoBatch(ctx context.Context, base Request, sources []int) ([]*Response, error) {
	// Validate the shared options up front so a bad base fails fast even when
	// the source list is empty.
	q := core.QueryOptions{Epsilon: base.Epsilon, Adaptive: e.resolveAdaptive(base.Adaptive)}
	if err := q.Validate(); err != nil {
		e.errors.Add(1)
		return nil, err
	}
	reqs := make([]Request, len(sources))
	for i, u := range sources {
		reqs[i] = base
		reqs[i].Source = u
	}
	return e.DoBatchEach(ctx, reqs)
}

// entry is one DoBatchEach request's response under construction, its
// resolved identity, and how it is being answered.
type entry struct {
	resp   Response
	q      core.QueryOptions
	key    cacheKey
	cached bool // the request reads and fills the result cache
	// served identifies the computation that answers the entry: key itself,
	// or a tighter cached or in-flight one (range coalescing).
	served cacheKey
	// f is the flight the entry leads or joined.
	f *flight
}

// DoBatchEach answers one arbitrary Request per entry, in order: entries may
// carry different epsilons, top-k selections, cache policies, and adaptive
// modes. It is the engine's one request path — Do and DoBatch call it.
//
// Each entry is answered from the cache (exactly or, for an adaptive entry,
// through range coalescing), joins a satisfying in-flight computation, or
// leads. Earlier entries of the same batch take part like any concurrent
// request: an entry repeating an earlier one's identity shares its Result
// through the cache or its flight (reported CacheHit or Coalesced), and an
// adaptive entry may join a tighter earlier entry's flight. The
// leaders run as ONE core computation that processes the sources in bounded
// waves, streaming each index level once per wave — not once per entry —
// into per-entry accumulators gated by each entry's own epsilon, with the
// walk phases (each stopping under its own entry's adaptive policy) fanned
// out over the group's worker slots; a lone leader runs the intra-query
// chunked path. The wave width (not the batch length) bounds how many O(n)
// per-entry states are live, so an arbitrarily long batch cannot balloon
// memory. Range-coalesced entries report ServedFromTighter. A joiner whose
// leader's caller gave up is classified again. Results stay bit-identical to
// issuing the same requests sequentially.
//
// The whole batch runs against one index generation (a concurrent Swap
// affects only later batches), shares the engine's cache and single-flight
// table, and its leaders admit once: as ClassBatch when every entry is
// ClassBatch, ClassInteractive otherwise.
//
// The batch fails on its first error — an invalid entry, a shed or failed
// computation, a failed flight it joined, or ctx ending — returned as is, so
// errors.Is and errors.As match it.
func (e *Engine) DoBatchEach(ctx context.Context, reqs []Request) ([]*Response, error) {
	s, err := e.acquire()
	if err != nil {
		return nil, err
	}
	defer s.release()

	results := make([]*Response, len(reqs))
	if len(reqs) == 0 {
		return results, nil
	}
	// Validate every entry up front so a bad request fails fast instead of
	// surfacing mid-batch.
	g := s.idx.Graph()
	ents := make([]entry, len(reqs))
	for i := range reqs {
		req := &reqs[i]
		q := core.QueryOptions{Epsilon: req.Epsilon, Adaptive: e.resolveAdaptive(req.Adaptive)}
		if err := q.Validate(); err != nil {
			e.errors.Add(1)
			return nil, err
		}
		if err := g.CheckNode(req.Source); err != nil {
			e.errors.Add(1)
			return nil, err
		}
		eff, clamped := s.idx.EffectiveOptions(q)
		key := cacheKey{gen: s.gen, source: req.Source, epsilon: eff.Epsilon, adaptive: q.Adaptive}
		ents[i] = entry{
			resp:   Response{Epsilon: eff.Epsilon, EpsilonServed: eff.Epsilon, Clamped: clamped},
			q:      q,
			key:    key,
			cached: e.cache != nil && !req.NoCache,
		}
	}
	class := ClassBatch
	for i := range reqs {
		c := reqs[i].Class
		if !c.valid() {
			c = ClassInteractive
		}
		e.classQueries[c].Add(1)
		if c != ClassBatch {
			class = ClassInteractive
		}
	}
	e.queries.Add(int64(len(reqs)))

	// Each pass classifies the unanswered entries in input order — cache
	// hit, joiner of a satisfying in-flight computation, or leader — runs
	// the leaders, then waits out the joined flights. An entry repeating an
	// earlier entry's identity finds that entry's cache hit or flight, so it
	// shares its Result. A joiner whose leader's caller gave up before
	// publishing goes round again: the next pass hits the cache, joins a
	// fresh flight, or leads.
	for again := true; again; {
		again = false
		var leaders, joins []int
		for i := range ents {
			en := &ents[i]
			if results[i] != nil {
				continue
			}
			if en.cached {
				if res, served, ok := e.cache.lookup(en.key, en.q.Adaptive); ok {
					e.cacheHits.Add(1)
					en.resp.CacheHit = true
					en.served = served
					results[i] = e.finishResponse(en, res, reqs[i].K)
					continue
				}
			}
			// The identical key, or (for adaptive requests) the tightest
			// computation at a smaller-or-equal epsilon; joiners wait on the
			// leader without consuming worker or queue slots.
			e.flightMu.Lock()
			if f, fkey, ok := e.lookupFlight(en.key, en.q.Adaptive); ok {
				f.joiners++
				e.flightMu.Unlock()
				e.coalesced.Add(1)
				en.f, en.served = f, fkey
				joins = append(joins, i)
				continue
			}
			en.f, en.served = &flight{done: make(chan struct{})}, en.key
			e.flights[en.key] = en.f
			e.addFlightKey(en.key)
			e.flightMu.Unlock()
			leaders = append(leaders, i)
		}
		if len(leaders) > 0 {
			if err := e.lead(ctx, s, class, reqs, ents, leaders, results); err != nil {
				e.errors.Add(1)
				return nil, err
			}
		}
		for _, i := range joins {
			en := &ents[i]
			f := en.f
			select {
			case <-f.done:
			case <-ctx.Done():
				e.errors.Add(1)
				return nil, ctx.Err()
			}
			if f.err != nil {
				if isContextErr(f.err) && ctx.Err() == nil {
					again = true
					continue
				}
				e.errors.Add(1)
				return nil, f.err
			}
			en.resp.Coalesced = true
			results[i] = e.finishResponse(en, f.res, reqs[i].K)
		}
	}
	return results, nil
}

// lead runs one pass's leaders as one computation — one admission slot for
// the group (plus whatever idle extras the parallelism hint lets it borrow),
// one core call — then publishes each leader's result to the cache and its
// flight. A leader whose result nothing outside the engine can observe (the
// pooling rule of Request.K: K > 0, not cached, and no joiner by the time its
// flight retires) computes into a pooled result, keeps only its top-k
// selection, and recycles the result.
func (e *Engine) lead(ctx context.Context, s *slot, class Class, reqs []Request, ents []entry, leaders []int, results []*Response) error {
	pooled := func(i int) bool { return reqs[i].K > 0 && !ents[i].cached }
	sources := make([]int, len(leaders))
	qs := make([]core.QueryOptions, len(leaders))
	res := make([]*core.Result, len(leaders))
	for t, i := range leaders {
		sources[t], qs[t] = reqs[i].Source, ents[i].q
		if pooled(i) {
			res[t], _ = e.resPool.Get().(*core.Result)
		}
		if res[t] == nil {
			res[t] = &core.Result{}
		}
	}
	// The group's parallelism hint: auto (0) from any leader opens the whole
	// pool, otherwise the largest explicit hint governs.
	hint := 0
	for _, i := range leaders {
		if p := reqs[i].Parallelism; p <= 0 {
			hint = 0
			break
		} else if p > hint {
			hint = p
		}
	}
	var svcElapsed time.Duration
	ran := 0
	err := func() error {
		if err := e.admit(ctx, class); err != nil {
			return err
		}
		defer e.adm.release()
		start := time.Now()
		defer func() { svcElapsed = time.Since(start) }()
		// The computation fans out across sources (each source's walk phase
		// runs serially on its worker), so the useful fan-out is the leader
		// count — except for a lone leader, which runs the intra-query
		// chunked path.
		useful := len(sources)
		if useful == 1 {
			useful = s.idx.QueryChunks(qs[0])
		}
		p, extras := e.reserveParallelism(hint, useful)
		defer e.releaseExtras(extras)
		for t := range qs {
			qs[t].Parallelism = p
		}
		var err error
		ran, err = s.idx.QueryBatchEachIntoOpts(ctx, sources, res, qs)
		return err
	}()
	e.chunksExecuted.Add(int64(ran))
	if err == nil {
		// Feed the per-class service-time telemetry with the per-source
		// cost: the group answers len(sources) sources in one admission slot,
		// so each source's share is the fair sample.
		e.adm.observe(class, svcElapsed/time.Duration(len(sources)))
		// One computation is one unit of engaged parallelism, however many
		// sources it answered: count it once when any wave fanned out. Round
		// telemetry is per leader — each walked (and possibly stopped) on its
		// own, and so is the chunk count merged into each result.
		merged, maxPar := 0, 0
		for _, r := range res {
			e.noteRounds(r.Stats)
			merged += r.Stats.Chunks
			if r.Stats.Parallelism > maxPar {
				maxPar = r.Stats.Parallelism
			}
		}
		e.chunksMerged.Add(int64(merged))
		if maxPar > 1 {
			e.parallelQueries.Add(1)
		}
	}
	// Publish to the cache before retiring each flight so no identical
	// request can slip between the two and recompute.
	for t, i := range leaders {
		en := &ents[i]
		var r *core.Result
		if err == nil {
			r = res[t]
			if en.cached {
				e.cache.put(en.key, r)
			}
		}
		e.flightMu.Lock()
		delete(e.flights, en.key)
		e.removeFlightKey(en.key)
		joiners := en.f.joiners
		e.flightMu.Unlock()
		en.f.res, en.f.err = r, err
		close(en.f.done)
		switch {
		case pooled(i) && (err != nil || joiners == 0):
			if err == nil {
				en.resp.Top = r.TopK(reqs[i].K)
				en.resp.Graph = r.Graph()
				results[i] = &en.resp
			}
			e.resPool.Put(res[t])
		case err == nil:
			results[i] = e.finishResponse(en, r, reqs[i].K)
		}
	}
	return err
}

// Pair estimates the single-pair SimRank s(u, v). Pair queries skip the cache
// and the single-flight table (they do not produce a Result) but go through
// the same admission gate and count toward engine statistics.
func (e *Engine) Pair(ctx context.Context, u, v int) (float64, error) {
	if err := e.admit(ctx, ClassInteractive); err != nil {
		e.errors.Add(1)
		return 0, err
	}
	defer e.adm.release()
	s, err := e.acquire()
	if err != nil {
		return 0, err
	}
	defer s.release()
	e.pairs.Add(1)
	score, err := s.idx.QueryPairCtx(ctx, u, v)
	if err != nil {
		e.errors.Add(1)
	}
	return score, err
}

// Stats is a snapshot of the engine's counters.
type Stats struct {
	// Workers is the concurrency bound.
	Workers int
	// MaxQueue is the admission queue bound (-1 when shedding is disabled).
	MaxQueue int
	// Generation is the swap generation of the served index (0 until the
	// first Swap).
	Generation uint64
	// Swaps counts index swaps performed.
	Swaps int64
	// CacheReuses counts swaps that kept (re-keyed) the result cache because
	// the incoming index serves an identical graph with identical options.
	CacheReuses int64
	// Queries counts valid single-source requests, including cache hits and
	// coalesced joiners; a request rejected by validation counts only in
	// Errors.
	Queries int64
	// CacheHits counts requests answered from the LRU cache.
	CacheHits int64
	// Coalesced counts requests that shared an identical in-flight
	// computation instead of running their own.
	Coalesced int64
	// RangeCoalesced counts adaptive requests satisfied by a cached or
	// in-flight computation at a *tighter* epsilon than requested (range
	// coalescing) — a subset of CacheHits + Coalesced.
	RangeCoalesced int64
	// EarlyStops counts computations that terminated before the worst-case
	// sampling budget under adaptive execution; RoundsExecuted and
	// RoundsBudget accumulate the Monte Carlo round counts of every
	// completed computation, so executed/budget is the fleet-wide fraction
	// of the worst-case sampling work actually performed.
	EarlyStops     int64
	RoundsExecuted int64
	RoundsBudget   int64
	// Shed counts requests rejected with ErrOverloaded by admission control,
	// summed over both classes.
	Shed int64
	// QueueDepth is the instantaneous number of requests waiting for a
	// worker slot, summed over both classes.
	QueueDepth int64
	// Interactive and Batch break admission activity down per class.
	Interactive ClassStats
	Batch       ClassStats
	// CacheEntries is the current number of cached results (0 when disabled).
	CacheEntries int
	// PairQueries counts single-pair queries.
	PairQueries int64
	// Errors counts failed, shed, or cancelled requests.
	Errors int64
	// ParallelQueries counts computations — solo queries or fused batches —
	// that engaged more than one worker (intra-query parallelism actually
	// used); a fused batch counts once however many sources it answered.
	ParallelQueries int64
	// ChunksExecuted counts intra-query walk chunks this engine's
	// computations ran, including chunks a cancelled computation executed and
	// then discarded before the merge; ChunksMerged counts chunks folded into
	// the results they returned. Both are added when a computation returns,
	// whichever index generation it ran on, so executed−merged is the work
	// thrown away by cancellation (plus computations returning at the
	// snapshot instant) — zero under healthy steady load, across hot swaps
	// too.
	ChunksExecuted int64
	ChunksMerged   int64
}

// ClassStats is the per-class slice of admission telemetry.
type ClassStats struct {
	// Queries counts single-source requests of this class.
	Queries int64
	// Shed counts requests of this class rejected by admission control.
	Shed int64
	// QueueDepth is the instantaneous number of waiting requests of this
	// class.
	QueueDepth int
	// AvgServiceNs is the EWMA of observed service time for this class in
	// nanoseconds (0 until the first completed computation). It is the same
	// telemetry deadline shedding and Retry-After hints derive from.
	AvgServiceNs int64
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	cur := e.cur.Load()
	// lead adds executed before merged, so loading merged first can show a
	// computation returning right now as a brief gap, never as a negative one.
	merged := e.chunksMerged.Load()
	depths := e.adm.depths()
	svc := e.adm.serviceTimes()
	s := Stats{
		Workers:     e.workers,
		MaxQueue:    e.maxQueue,
		Generation:  cur.gen,
		Swaps:       e.swaps.Load(),
		CacheReuses: e.cacheReuses.Load(),
		Queries:     e.queries.Load(),
		CacheHits:   e.cacheHits.Load(),
		Coalesced:   e.coalesced.Load(),

		RangeCoalesced: e.rangeCoalesced.Load(),
		EarlyStops:     e.earlyStops.Load(),
		RoundsExecuted: e.roundsExecuted.Load(),
		RoundsBudget:   e.roundsBudget.Load(),

		Shed:        e.classShed[ClassInteractive].Load() + e.classShed[ClassBatch].Load(),
		QueueDepth:  int64(depths[ClassInteractive] + depths[ClassBatch]),
		PairQueries: e.pairs.Load(),
		Errors:      e.errors.Load(),
		Interactive: ClassStats{
			Queries:      e.classQueries[ClassInteractive].Load(),
			Shed:         e.classShed[ClassInteractive].Load(),
			QueueDepth:   depths[ClassInteractive],
			AvgServiceNs: int64(svc[ClassInteractive]),
		},
		Batch: ClassStats{
			Queries:      e.classQueries[ClassBatch].Load(),
			Shed:         e.classShed[ClassBatch].Load(),
			QueueDepth:   depths[ClassBatch],
			AvgServiceNs: int64(svc[ClassBatch]),
		},

		ParallelQueries: e.parallelQueries.Load(),
		ChunksExecuted:  e.chunksExecuted.Load(),
		ChunksMerged:    merged,
	}
	if e.cache != nil {
		s.CacheEntries = e.cache.len()
	}
	return s
}

// cacheKey identifies one cached single-source result. Epsilon is the
// *effective* epsilon (post-clamping), so requests at different accuracy
// tiers never collide and redundant tiers (requested below build epsilon)
// share the build-epsilon entry; adaptive records the resolved execution
// mode, because adaptive and fixed-budget computations at the same epsilon
// produce different (both epsilon-faithful) bits; the generation guarantees
// results computed against a swapped-out index can never serve the new one,
// even if an in-flight query inserts after the swap's purge. The
// single-flight table shares this key, which is what makes "identical
// request" precise. Adaptive requests additionally accept any key that
// satisfies theirs (see satisfies) through the range lookups.
type cacheKey struct {
	gen      uint64
	source   int
	epsilon  float64
	adaptive bool
}

// resultCache is a small mutex-guarded LRU of query results. bySource
// indexes the resident keys by (generation, source) for the range lookups
// adaptive requests use; it is maintained by every mutation.
type resultCache struct {
	mu       sync.Mutex
	cap      int
	ll       *list.List // front = most recently used; element values are *cacheEntry
	items    map[cacheKey]*list.Element
	bySource map[genSource][]cacheKey
}

type cacheEntry struct {
	key cacheKey
	res *core.Result
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{
		cap:      capacity,
		ll:       list.New(),
		items:    make(map[cacheKey]*list.Element, capacity),
		bySource: make(map[genSource][]cacheKey),
	}
}

// lookup finds a cached result that answers key: the exact entry, or — for
// adaptive requests — the tightest satisfying entry at a smaller-or-equal
// epsilon (range coalescing). The returned key is the identity of the entry
// actually served; callers compare it against the request key to detect a
// tighter serve. Non-adaptive requests only ever match exactly, preserving
// bit-parity with the fixed path.
func (c *resultCache) lookup(key cacheKey, adaptive bool) (*core.Result, cacheKey, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry).res, key, true
	}
	if !adaptive {
		return nil, cacheKey{}, false
	}
	var best cacheKey
	found := false
	for _, k := range c.bySource[genSource{gen: key.gen, source: key.source}] {
		if !satisfies(k, key) {
			continue
		}
		if !found || tighterKey(k, best) {
			best, found = k, true
		}
	}
	if !found {
		return nil, cacheKey{}, false
	}
	el := c.items[best]
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).res, best, true
}

func (c *resultCache) put(key cacheKey, res *core.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).res = res
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, res: res})
	c.addKey(key)
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		old := oldest.Value.(*cacheEntry).key
		delete(c.items, old)
		c.dropKey(old)
	}
}

// addKey / dropKey maintain the (generation, source) range index; both
// require c.mu.
func (c *resultCache) addKey(key cacheKey) {
	gs := genSource{gen: key.gen, source: key.source}
	c.bySource[gs] = append(c.bySource[gs], key)
}

func (c *resultCache) dropKey(key cacheKey) {
	gs := genSource{gen: key.gen, source: key.source}
	ks := c.bySource[gs]
	for i, k := range ks {
		if k == key {
			ks[i] = ks[len(ks)-1]
			ks = ks[:len(ks)-1]
			break
		}
	}
	if len(ks) == 0 {
		delete(c.bySource, gs)
	} else {
		c.bySource[gs] = ks
	}
}

// rebuildIndex reconstructs the range index from the entry map after a
// swap-time rekey rewrote the resident generations (rare; O(entries)).
// Requires c.mu.
func (c *resultCache) rebuildIndex() {
	clear(c.bySource)
	for key := range c.items {
		c.addKey(key)
	}
}

// purge drops every cached result (hot-swap invalidation).
func (c *resultCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.items)
	clear(c.bySource)
}

// rekeyFiltered migrates the entries of generation oldGen that keep reports
// true for to newGen, rebinding their results to g (the new generation's
// graph object — the old object may alias a mapping about to be unmapped);
// entries keep rejects — and entries of any other stale generation (a racing
// insert against an even older slot) — are dropped. Entries already keyed
// newGen (a query that raced ahead of the swap) are kept as they are. LRU
// order is preserved; shared results are never mutated — rebinding produces
// shallow copies. It returns the number of entries migrated.
func (c *resultCache) rekeyFiltered(oldGen, newGen uint64, g *graph.Graph, keep func(source int, res *core.Result) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	kept := 0
	var el, next *list.Element
	for el = c.ll.Front(); el != nil; el = next {
		next = el.Next()
		ent := el.Value.(*cacheEntry)
		if ent.key.gen == newGen {
			continue
		}
		delete(c.items, ent.key)
		if ent.key.gen != oldGen || !keep(ent.key.source, ent.res) {
			c.ll.Remove(el)
			continue
		}
		ent.key.gen = newGen
		ent.res = ent.res.Rebound(g)
		c.items[ent.key] = el
		kept++
	}
	c.rebuildIndex()
	return kept
}

func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
