package prsim

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"prsim/internal/engine"
	"prsim/internal/router"
)

// DefaultGraph is the graph name a Registry routes requests to when
// Request.Graph is empty, and the name servers mount their boot-time graph
// under.
const DefaultGraph = "default"

// ErrUnknownGraph is returned by Registry lookups (and everything routed
// through them) when no graph is mounted under the requested name.
var ErrUnknownGraph = router.ErrUnknownGraph

// ErrShardUnavailable is the sentinel behind shard-unavailability failures:
// a remote shard could not be reached at all (every replica down, circuit
// breaker open, or retries exhausted on transport errors). Requests that
// set Request.AllowPartial degrade gracefully instead of failing with it.
// HTTP front-ends map it to 503 Service Unavailable.
var ErrShardUnavailable = router.ErrShardUnavailable

// UnavailableShards extracts the unreachable shard indexes from a
// shard-unavailability error (sorted ascending); ok is false when err is
// not one.
func UnavailableShards(err error) (shards []int, ok bool) {
	var su *router.ShardUnavailableError
	if errors.As(err, &su) {
		return su.Shards, true
	}
	return nil, false
}

// Class is the admission class of a request: ClassInteractive (the zero
// value) is dispatched ahead of queued ClassBatch work whenever an engine
// worker frees up, and the two classes have separate bounded queues and
// service-time telemetry. The class shapes queueing only — results are
// bit-identical either way.
type Class = engine.Class

const (
	// ClassInteractive marks latency-sensitive requests (the default).
	ClassInteractive = engine.ClassInteractive
	// ClassBatch marks throughput traffic: bulk scoring, offline jobs.
	ClassBatch = engine.ClassBatch
)

// ParseClass maps the wire name of an admission class ("interactive",
// "batch", or empty for the default) to its value.
func ParseClass(s string) (Class, error) {
	switch s {
	case "", "interactive":
		return ClassInteractive, nil
	case "batch":
		return ClassBatch, nil
	default:
		return ClassInteractive, fmt.Errorf("prsim: unknown admission class %q (want \"interactive\" or \"batch\")", s)
	}
}

// RetryAfter extracts the telemetry-derived backoff hint from an
// ErrOverloaded error: how long admission control predicts the shed
// request's class needs to drain, plus one service time. ok is false when
// err is not an overload shed; a zero duration with ok true means the engine
// had no service-time telemetry yet (callers fall back to a fixed hint).
func RetryAfter(err error) (d time.Duration, ok bool) {
	var oe *engine.OverloadedError
	if errors.As(err, &oe) {
		return oe.RetryAfter, true
	}
	return 0, false
}

// ClassStats is the per-class slice of an engine's admission telemetry.
type ClassStats struct {
	// Queries counts single-source requests of this class.
	Queries int64
	// Shed counts requests of this class rejected by admission control.
	Shed int64
	// QueueDepth is the instantaneous number of waiting requests of this
	// class.
	QueueDepth int
	// AvgServiceNs is the observed mean service time of this class in
	// nanoseconds (EWMA; 0 until the first completed computation) — the
	// telemetry deadline shedding and Retry-After hints derive from.
	AvgServiceNs int64
}

// GraphConfig configures one logical graph mounted in a Registry.
type GraphConfig struct {
	// Shards is the number of engine shards serving the graph; 0 means 1.
	// Shards share one index (one snapshot mapping) but have independent
	// worker pools, admission queues, and result caches: sources are hashed
	// to shards, so sharding multiplies serving capacity without changing a
	// bit of any answer.
	Shards int
	// Engine configures each shard's engine (per shard, so total workers are
	// Shards × Engine.Workers).
	Engine EngineOptions
}

// RemoteGraphConfig places a logical graph's shards on other prsimserve
// processes speaking the /v1 HTTP surface. Source→shard routing and result
// merging are identical to local sharding, so answers stay bit-identical to
// a single local engine as long as every shard host serves the same
// snapshot generation.
type RemoteGraphConfig struct {
	// Graph is the graph name on the shard hosts ("default" when empty).
	Graph string
	// Shards holds one replica endpoint list per shard slot (base URLs).
	// len(Shards) is the shard count; each shard needs at least one
	// endpoint, and hedged requests need at least two.
	Shards [][]string
	// Transport overrides the HTTP transport; nil uses a pooled default.
	// Tests inject loopback or fault-injecting transports here.
	Transport http.RoundTripper
	// Resilience tunes retries, hedging, circuit breakers, and health
	// checks; the zero value picks production defaults.
	Resilience ResilienceOptions
}

// ResilienceOptions tunes the remote shard call path; see the field docs on
// router.ResilienceOptions. Zero values mean production defaults.
type ResilienceOptions = router.ResilienceOptions

// ShardHealth is one shard's row in a graph's health map.
type ShardHealth = router.ShardHealth

// ReplicaHealth is one replica's row in a remote shard's health map.
type ReplicaHealth = router.ReplicaHealth

// ReplicaState is a replica's health state: up, degraded, or down.
type ReplicaState = router.ReplicaState

// Replica health states.
const (
	ReplicaUp       = router.ReplicaUp
	ReplicaDegraded = router.ReplicaDegraded
	ReplicaDown     = router.ReplicaDown
)

// RemoteShardStats are the client-side counters of one remote shard.
type RemoteShardStats = router.RemoteStats

func (c GraphConfig) toRouter(open router.Opener) router.Config {
	return router.Config{
		Shards: c.Shards,
		Engine: engine.Options{
			Workers:         c.Engine.Workers,
			CacheSize:       c.Engine.CacheSize,
			MaxQueue:        c.Engine.MaxQueue,
			AdaptiveDefault: c.Engine.AdaptiveDefault,
		},
		Open: open,
	}
}

// Registry is a set of independently mounted, named logical graphs — the
// multi-tenant serving tier. Graphs can be mounted, unmounted, and
// hot-reloaded at runtime; requests route by Request.Graph. Safe for
// concurrent use.
type Registry struct {
	r *router.Registry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{r: router.NewRegistry()}
}

// openerFor adapts a public index opener to the router's Opened contract:
// the router shards the internal index and retains the snapshot per query,
// and the public *Index rides along as the Tag so Served.Current can return
// it.
func openerFor(open func() (*Index, error)) router.Opener {
	return func() (router.Opened, error) {
		idx, err := open()
		if err != nil {
			return router.Opened{}, err
		}
		if idx == nil {
			return router.Opened{}, fmt.Errorf("prsim: opener returned a nil index")
		}
		return router.Opened{
			Index: idx.idx,
			Res:   idx.engineResource(),
			Close: idx.Close,
			Tag:   idx,
		}, nil
	}
}

// MountOpener mounts a logical graph whose backing is produced by open —
// called once now and once per Reload, so each call must return a fresh
// instance (reload closes the previous one after swapping). This is the
// general form behind MountSnapshot and MountIndex.
func (r *Registry) MountOpener(name string, cfg GraphConfig, open func() (*Index, error)) (*Served, error) {
	s, err := r.r.Mount(name, cfg.toRouter(openerFor(open)))
	if err != nil {
		return nil, err
	}
	return &Served{s: s}, nil
}

// MountSnapshot mounts a logical graph served from a snapshot file; Reload
// re-opens the file (picking up an atomically replaced snapshot) and swaps
// traffic over without dropping requests.
func (r *Registry) MountSnapshot(name, path string, cfg GraphConfig) (*Served, error) {
	return r.MountOpener(name, cfg, func() (*Index, error) {
		return OpenSnapshot(path, nil)
	})
}

// MountIndex mounts a logical graph over an existing index. The registry
// does not take ownership: unmounting never closes idx, and Reload re-serves
// the same index (mount with MountOpener to make reload meaningful).
func (r *Registry) MountIndex(name string, idx *Index, cfg GraphConfig) (*Served, error) {
	if idx == nil {
		return nil, fmt.Errorf("prsim: nil index")
	}
	s, err := r.r.Mount(name, cfg.toRouter(func() (router.Opened, error) {
		// No Close: the caller owns the index's lifecycle.
		return router.Opened{Index: idx.idx, Res: idx.engineResource(), Tag: idx}, nil
	}))
	if err != nil {
		return nil, err
	}
	return &Served{s: s}, nil
}

// MountRemote mounts a logical graph whose shards are served by remote
// prsimserve processes. The graph has no local index: queries scatter to
// the shard hosts through the resilience layer (health checks, retries,
// circuit breakers, hedged requests) and gather exactly like local shards.
// Reload and Current are host-side concepts for remote graphs — Reload
// errors, and Current returns nil.
func (r *Registry) MountRemote(name string, cfg RemoteGraphConfig) (*Served, error) {
	s, err := r.r.Mount(name, router.Config{
		Remote: &router.RemoteOptions{
			Graph:      cfg.Graph,
			Shards:     cfg.Shards,
			Transport:  cfg.Transport,
			Resilience: cfg.Resilience,
		},
	})
	if err != nil {
		return nil, err
	}
	return &Served{s: s}, nil
}

// Unmount removes the named graph and closes its backing (unless it was
// mounted with MountIndex, whose backing the caller owns). In-flight queries
// drain safely.
func (r *Registry) Unmount(name string) error { return r.r.Unmount(name) }

// Close unmounts every graph and releases its backing — the registry half
// of a graceful shutdown. In-flight queries drain safely.
func (r *Registry) Close() error { return r.r.Close() }

// Get returns the named graph's serving handle, or ErrUnknownGraph. An empty
// name means DefaultGraph.
func (r *Registry) Get(name string) (*Served, error) {
	if name == "" {
		name = DefaultGraph
	}
	s, err := r.r.Get(name)
	if err != nil {
		return nil, err
	}
	return &Served{s: s}, nil
}

// Names returns the mounted graph names, sorted.
func (r *Registry) Names() []string { return r.r.Names() }

// Do routes one request to the graph named by Request.Graph (empty =
// DefaultGraph) and answers it there.
func (r *Registry) Do(ctx context.Context, req Request) (*Response, error) {
	s, err := r.Get(req.Graph)
	if err != nil {
		return nil, err
	}
	return s.Do(ctx, req)
}

// Served is the serving handle of one mounted logical graph: requests route
// to the shard that owns their source, batches scatter-gather across shards,
// and answers are bit-identical to a single-engine run at any shard count.
// Safe for concurrent use.
type Served struct {
	s *router.Served
}

// currentGraph returns the public graph of the currently served index.
func (s *Served) currentGraph() *Graph {
	if idx, ok := s.s.Current().(*Index); ok {
		return idx.g
	}
	return nil
}

// Current returns the index the graph is serving right now (the instance the
// mount's opener produced most recently).
func (s *Served) Current() *Index {
	idx, _ := s.s.Current().(*Index)
	return idx
}

// Generation returns the reload generation: 0 at mount, incremented by every
// successful Reload.
func (s *Served) Generation() uint64 { return s.s.Generation() }

// NumShards returns the graph's shard count.
func (s *Served) NumShards() int { return s.s.NumShards() }

// Do answers one single-source request on the shard that owns the source.
// Request.Graph is ignored — routing to this graph already happened.
func (s *Served) Do(ctx context.Context, req Request) (*Response, error) {
	inner, err := s.s.Do(ctx, req.toEngine())
	if err != nil {
		return nil, err
	}
	return wrapResponse(s.currentGraph(), inner), nil
}

// BatchResponse is the outcome of one scatter-gathered batch. When every
// shard answered, Degraded is false and Responses has one entry per source
// in input order — bit-identical to a single-engine DoBatch. When
// Request.AllowPartial let the batch survive unreachable shards, Degraded
// is true, MissingShards lists them (sorted ascending), and entries of
// sources owned by a missing shard are nil.
type BatchResponse struct {
	// Responses holds one response per source, in input order; nil entries
	// mark sources whose owning shard was unavailable (only under
	// AllowPartial).
	Responses []*Response
	// Degraded reports that at least one shard did not answer.
	Degraded bool
	// MissingShards lists the unavailable shard indexes, sorted ascending.
	MissingShards []int
}

// TopKResponse is the outcome of one merged multi-source top-k query; see
// BatchResponse for the degradation semantics. The merge over the surviving
// shards is the same deterministic bounded-heap merge, so partial results
// are reproducible for a fixed set of missing shards.
type TopKResponse struct {
	Top []ScoredNode
	// Degraded reports that at least one shard did not answer.
	Degraded bool
	// MissingShards lists the unavailable shard indexes, sorted ascending.
	MissingShards []int
}

// DoBatch answers one request per source, in input order, scattering
// per-shard sub-batches (each runs the engine's fused multi-source
// execution) and gathering the responses. Bit-identical to a single-engine
// DoBatch. An unreachable remote shard fails the whole batch with an
// ErrShardUnavailable error unless base.AllowPartial is set, in which case
// the surviving shards' responses return flagged Degraded.
func (s *Served) DoBatch(ctx context.Context, base Request, sources []int) (*BatchResponse, error) {
	inner, err := s.s.DoBatch(ctx, base.toEngine(), sources)
	if err != nil {
		return nil, err
	}
	cur := s.currentGraph()
	out := make([]*Response, len(inner.Resps))
	for i, r := range inner.Resps {
		if r == nil {
			continue // source owned by a missing shard (AllowPartial)
		}
		out[i] = wrapResponse(cur, r)
	}
	return &BatchResponse{
		Responses:     out,
		Degraded:      inner.Degraded,
		MissingShards: inner.MissingShards,
	}, nil
}

// TopKMerged answers a multi-source top-k query: each source's top-k is
// computed on its owning shard and the per-source selections merge into one
// global top-k (a node reached from several sources keeps its maximum
// score), ordered by descending score with ties broken by ascending node id.
// The merge is deterministic and independent of shard count. Degradation
// follows DoBatch: under AllowPartial, missing shards' sources drop out of
// the merge and the result is flagged Degraded.
func (s *Served) TopKMerged(ctx context.Context, base Request, sources []int, k int) (*TopKResponse, error) {
	inner, err := s.s.TopKMerged(ctx, base.toEngine(), sources, k)
	if err != nil {
		return nil, err
	}
	pg := s.currentGraph()
	if inner.Graph != nil && (pg == nil || pg.g != inner.Graph) {
		pg = wrapGraph(inner.Graph)
	}
	out := make([]ScoredNode, len(inner.Top))
	for i, sn := range inner.Top {
		out[i] = ScoredNode{Node: sn.Node, Label: pg.Label(sn.Node), Score: sn.Score}
	}
	return &TopKResponse{
		Top:           out,
		Degraded:      inner.Degraded,
		MissingShards: inner.MissingShards,
	}, nil
}

// Pair estimates the single-pair SimRank s(u, v), routed to the shard that
// owns u.
func (s *Served) Pair(ctx context.Context, u, v int) (float64, error) {
	return s.s.Pair(ctx, u, v)
}

// Reload re-runs the mount's opener, optionally verifies the fresh backing,
// swaps every shard onto it without dropping in-flight requests, and closes
// the previous backing once traffic drains. A verify error aborts the reload
// with the old backing still serving. Reloads serialize.
func (s *Served) Reload(verify func(*Index) error) error {
	var rv func(router.Opened) error
	if verify != nil {
		rv = func(op router.Opened) error {
			idx, _ := op.Tag.(*Index)
			if idx == nil {
				return fmt.Errorf("prsim: reload produced no public index")
			}
			return verify(idx)
		}
	}
	return s.s.Reload(rv)
}

// Stats returns one engine stats snapshot per shard, in shard order.
func (s *Served) Stats() []EngineStats {
	inner := s.s.Stats()
	out := make([]EngineStats, len(inner))
	for i, st := range inner {
		out[i] = wrapEngineStats(st)
	}
	return out
}

// StatsAggregate folds the per-shard stats into one graph-level snapshot:
// counters and queue depths sum, Workers sums to the total serving capacity,
// and Generation/MaxQueue/service times come from shard 0 (shards are
// configured identically and swap in lockstep).
func (s *Served) StatsAggregate() EngineStats {
	return wrapEngineStats(router.Aggregate(s.s.Stats()))
}

// Remote reports whether the graph's shards are served by remote hosts.
func (s *Served) Remote() bool { return s.s.Remote() }

// Health returns the per-shard health map: local shards are always up;
// remote shards report one row per replica with breaker, probe, and
// latency state.
func (s *Served) Health() []ShardHealth { return s.s.Health() }

// RemoteStats returns shard i's client-side resilience counters (attempts,
// retries, hedges, failures); ok is false for local shards.
func (s *Served) RemoteStats(i int) (st RemoteShardStats, ok bool) {
	rs := s.s.RemoteShard(i)
	if rs == nil {
		return RemoteShardStats{}, false
	}
	return rs.RemoteStats(), true
}
