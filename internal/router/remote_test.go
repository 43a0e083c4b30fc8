package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"prsim/internal/core"
	"prsim/internal/engine"
	"prsim/internal/graph"
)

// stubHost is one fake prsimserve process: an engine plus the advertised
// snapshot generation its /v1 stats endpoint reports.
type stubHost struct {
	eng *engine.Engine
	gen atomic.Uint64
}

// stubCluster serves a minimal /v1 surface — query, pair, stats — for a set
// of named hosts, routing by the request URL's host. Together with
// HandlerTransport it stands in for a fleet of shard processes: the full
// client wire path (JSON encode, envelope decode, resilience layer) runs
// in-process and deterministic.
type stubCluster struct {
	hosts map[string]*stubHost
	mux   *http.ServeMux
}

func newStubCluster(t testing.TB, idx *core.Index, hosts ...string) *stubCluster {
	t.Helper()
	c := &stubCluster{hosts: make(map[string]*stubHost), mux: http.NewServeMux()}
	for _, h := range hosts {
		eng, err := engine.New(idx, engine.Options{Workers: 2, CacheSize: 0})
		if err != nil {
			t.Fatalf("engine.New(%s): %v", h, err)
		}
		c.hosts[h] = &stubHost{eng: eng}
	}
	c.mux.HandleFunc("POST /v1/graphs/{graph}/query", c.handleQuery)
	c.mux.HandleFunc("GET /v1/graphs/{graph}/pair", c.handlePair)
	c.mux.HandleFunc("GET /v1/graphs/{graph}/stats", c.handleStats)
	return c
}

func (c *stubCluster) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if _, ok := c.hosts[r.URL.Host]; !ok {
		stubError(w, http.StatusBadGateway, "internal", "unknown host "+r.URL.Host)
		return
	}
	c.mux.ServeHTTP(w, r)
}

func (c *stubCluster) host(r *http.Request) *stubHost { return c.hosts[r.URL.Host] }

func stubError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]any{
		"error": map[string]any{"code": code, "message": msg},
	})
}

// stubQueryError maps engine errors onto the /v1 envelope the way prsimserve
// does — the subset the client classifies.
func stubQueryError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, engine.ErrOverloaded):
		stubError(w, http.StatusTooManyRequests, "overloaded", err.Error())
	case errors.Is(err, graph.ErrInvalidNode):
		stubError(w, http.StatusNotFound, "invalid_node", err.Error())
	case errors.Is(err, core.ErrInvalidEpsilon):
		stubError(w, http.StatusBadRequest, "invalid_epsilon", err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		stubError(w, http.StatusGatewayTimeout, "deadline_exceeded", err.Error())
	default:
		stubError(w, http.StatusInternalServerError, "internal", err.Error())
	}
}

func scoresJSON(res *core.Result) []map[string]any {
	out := make([]map[string]any, 0, len(res.Scores))
	for node, score := range res.Scores {
		out = append(out, map[string]any{"node": node, "score": score})
	}
	return out
}

func (c *stubCluster) handleQuery(w http.ResponseWriter, r *http.Request) {
	h := c.host(r)
	var body struct {
		Sources     []int   `json:"sources"`
		Epsilon     float64 `json:"epsilon"`
		NoCache     bool    `json:"no_cache"`
		Parallelism int     `json:"parallelism"`
		Class       string  `json:"class"`
		TimeoutMS   int64   `json:"timeout_ms"`
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		stubError(w, http.StatusBadRequest, "invalid_argument", err.Error())
		return
	}
	req := engine.Request{Epsilon: body.Epsilon, NoCache: body.NoCache, Parallelism: body.Parallelism}
	if body.Class == "batch" {
		req.Class = engine.ClassBatch
	}
	ctx := r.Context()
	if body.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(body.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	resps, err := h.eng.DoBatch(ctx, req, body.Sources)
	if err != nil {
		stubQueryError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if len(resps) == 1 {
		resp := resps[0]
		json.NewEncoder(w).Encode(map[string]any{
			"source":          resp.Result.Source,
			"scores":          scoresJSON(resp.Result),
			"epsilon":         resp.Epsilon,
			"epsilon_clamped": resp.Clamped,
			"cached":          resp.CacheHit,
			"coalesced":       resp.Coalesced,
		})
		return
	}
	results := make([]map[string]any, len(resps))
	for i, resp := range resps {
		results[i] = map[string]any{"source": resp.Result.Source, "scores": scoresJSON(resp.Result)}
	}
	var epsilon float64
	var clamped bool
	if len(resps) > 0 {
		epsilon, clamped = resps[0].Epsilon, resps[0].Clamped
	}
	json.NewEncoder(w).Encode(map[string]any{
		"results":         results,
		"epsilon":         epsilon,
		"epsilon_clamped": clamped,
	})
}

func (c *stubCluster) handlePair(w http.ResponseWriter, r *http.Request) {
	h := c.host(r)
	var u, v int
	if _, err := fmt.Sscan(r.URL.Query().Get("u"), &u); err != nil {
		stubError(w, http.StatusBadRequest, "invalid_argument", "bad u")
		return
	}
	if _, err := fmt.Sscan(r.URL.Query().Get("v"), &v); err != nil {
		stubError(w, http.StatusBadRequest, "invalid_argument", "bad v")
		return
	}
	score, err := h.eng.Pair(r.Context(), u, v)
	if err != nil {
		stubQueryError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"score": score})
}

func (c *stubCluster) handleStats(w http.ResponseWriter, r *http.Request) {
	h := c.host(r)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"generation": h.gen.Load()})
}

// mountRemoteShards mounts a remote graph whose shard i is served by
// endpoints[i], all over the given transport.
func mountRemoteShards(t testing.TB, tr http.RoundTripper, shards [][]string, res ResilienceOptions) *Served {
	t.Helper()
	s, err := newServed(Config{Remote: &RemoteOptions{Shards: shards, Transport: tr, Resilience: res}})
	if err != nil {
		t.Fatalf("newServed(remote): %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// fastResilience keeps chaos tests quick: no hedging (single replica per
// shard anyway), tight budgets, short cooldowns. Its attempt timeout is half
// the time left before the test's deadline (a minute without one): a
// healthy shard computing under the race detector, with other packages'
// tests competing for the CPUs, never times out, and only an injected fault
// is slow (see blackholeCap).
func fastResilience(t *testing.T) ResilienceOptions {
	attempt := time.Minute
	if dl, ok := t.Deadline(); ok {
		attempt = time.Until(dl) / 2
	}
	return ResilienceOptions{
		MaxAttempts:      2,
		RetryBackoff:     time.Millisecond,
		AttemptTimeout:   attempt,
		DisableHedge:     true,
		BreakerThreshold: 2,
		BreakerCooldown:  100 * time.Millisecond,
	}
}

// blackholeCap ends each request to the host it caps after d. Layered over
// a FaultTransport that blackholes the same host, it gives every blackholed
// attempt the fixed cost a production attempt timeout would, while calls to
// other hosts keep fastResilience's deadline.
type blackholeCap struct {
	next http.RoundTripper
	d    time.Duration
	host atomic.Pointer[string] // nil caps nothing
}

func (c *blackholeCap) RoundTrip(req *http.Request) (*http.Response, error) {
	if h := c.host.Load(); h != nil && strings.Contains(req.URL.Host, *h) {
		ctx, cancel := context.WithTimeout(req.Context(), c.d)
		defer cancel()
		req = req.WithContext(ctx)
	}
	return c.next.RoundTrip(req)
}

// shardHosts names one single-replica endpoint per shard: s0, s1, ...
func shardHosts(n int) ([]string, [][]string) {
	hosts := make([]string, n)
	shards := make([][]string, n)
	for i := range hosts {
		hosts[i] = fmt.Sprintf("s%d", i)
		shards[i] = []string{"http://" + hosts[i]}
	}
	return hosts, shards
}

// spreadSources returns sources covering every shard of s at least min times.
func spreadSources(s *Served, min int) []int {
	per := make(map[int]int)
	var out []int
	for u := 0; ; u++ {
		sh := s.ShardFor(u)
		if per[sh] < min {
			per[sh]++
			out = append(out, u)
		}
		done := true
		for i := 0; i < s.NumShards(); i++ {
			if per[i] < min {
				done = false
				break
			}
		}
		if done {
			return out
		}
	}
}

// sameResponses asserts got matches want bit-exactly: full score maps (when
// the reference carries one — a local engine answering top-k only from
// pooled storage has a nil Result) and top-k selections.
func sameResponses(t *testing.T, label string, want, got *engine.Response) {
	t.Helper()
	if want.Result != nil {
		if got.Result == nil {
			t.Fatalf("%s: nil result, want %d scores", label, len(want.Result.Scores))
		}
		if want.Result.Source != got.Result.Source {
			t.Fatalf("%s: source %d, want %d", label, got.Result.Source, want.Result.Source)
		}
		if len(want.Result.Scores) != len(got.Result.Scores) {
			t.Fatalf("%s: %d scores, want %d", label, len(got.Result.Scores), len(want.Result.Scores))
		}
		for v, ws := range want.Result.Scores {
			if gs, ok := got.Result.Scores[v]; !ok || gs != ws {
				t.Fatalf("%s: score[%d] = %v, want %v (bit-exact)", label, v, gs, ws)
			}
		}
	}
	if want.Epsilon != got.Epsilon || want.Clamped != got.Clamped {
		t.Fatalf("%s: epsilon %v/%v, want %v/%v", label, got.Epsilon, got.Clamped, want.Epsilon, want.Clamped)
	}
	sameScored(t, label+" top", want.Top, got.Top)
}

// TestRemoteBitParity is the cross-machine acceptance matrix: single-source,
// batch, merged top-k, and pair answers through 1-, 2-, and 4-shard remote
// placements are bit-identical to a single local engine over the same index.
// Run under -race in CI.
func TestRemoteBitParity(t *testing.T) {
	idx := testIndex(t, 300)
	ctx := context.Background()
	ref := mountShards(t, idx, 1)
	sources := []int{0, 1, 7, 42, 99, 150, 151, 152, 299, 42}
	const k = 10

	refBatch, err := ref.DoBatch(ctx, Request{K: k}, sources)
	if err != nil {
		t.Fatalf("reference DoBatch: %v", err)
	}
	refTop, err := ref.TopKMerged(ctx, Request{}, sources, k)
	if err != nil {
		t.Fatalf("reference TopKMerged: %v", err)
	}
	refPair, err := ref.Pair(ctx, 3, 9)
	if err != nil {
		t.Fatalf("reference Pair: %v", err)
	}

	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			hosts, endpoints := shardHosts(shards)
			cluster := newStubCluster(t, idx, hosts...)
			s := mountRemoteShards(t, &HandlerTransport{Handler: cluster}, endpoints, fastResilience(t))
			if !s.Remote() {
				t.Fatal("Remote() = false for a remote graph")
			}
			// Single-source, point-to-point.
			for i, u := range sources {
				resp, err := s.Do(ctx, Request{Source: u, K: k})
				if err != nil {
					t.Fatalf("Do(%d): %v", u, err)
				}
				sameResponses(t, fmt.Sprintf("Do(%d)", u), refBatch.Resps[i], resp)
			}
			// Batch scatter-gather in input order.
			batch, err := s.DoBatch(ctx, Request{K: k}, sources)
			if err != nil {
				t.Fatalf("DoBatch: %v", err)
			}
			if batch.Degraded || len(batch.MissingShards) != 0 {
				t.Fatalf("healthy batch flagged degraded (missing %v)", batch.MissingShards)
			}
			for i := range sources {
				sameResponses(t, fmt.Sprintf("DoBatch[%d]", i), refBatch.Resps[i], batch.Resps[i])
			}
			// Merged top-k: deterministic at any shard count and distance.
			top, err := s.TopKMerged(ctx, Request{}, sources, k)
			if err != nil {
				t.Fatalf("TopKMerged: %v", err)
			}
			sameScored(t, "TopKMerged", refTop.Top, top.Top)
			// Pair routes to the owner of u.
			score, err := s.Pair(ctx, 3, 9)
			if err != nil {
				t.Fatalf("Pair: %v", err)
			}
			if score != refPair {
				t.Fatalf("Pair = %v, want %v (bit-exact)", score, refPair)
			}
		})
	}
}

// failFirstN fails the first n round trips with a transport error, then
// passes everything through — the deterministic "transient blip" injector.
type failFirstN struct {
	next      http.RoundTripper
	remaining atomic.Int64
}

func (f *failFirstN) RoundTrip(req *http.Request) (*http.Response, error) {
	if f.remaining.Add(-1) >= 0 {
		return nil, fmt.Errorf("transient fault: %s", req.URL.Host)
	}
	return f.next.RoundTrip(req)
}

// TestRemoteRetriesTransientError pins the retry loop: a single transport
// blip is absorbed by the attempt budget and the caller sees a bit-exact
// answer plus one retry in the stats.
func TestRemoteRetriesTransientError(t *testing.T) {
	idx := testIndex(t, 200)
	ctx := context.Background()
	ref := mountShards(t, idx, 1)
	refResp, err := ref.Do(ctx, Request{Source: 5, K: 5})
	if err != nil {
		t.Fatalf("reference Do: %v", err)
	}

	cluster := newStubCluster(t, idx, "s0")
	flaky := &failFirstN{next: &HandlerTransport{Handler: cluster}}
	flaky.remaining.Store(1)
	res := fastResilience(t)
	res.BreakerThreshold = 3 // the blip must not trip the breaker
	s := mountRemoteShards(t, flaky, [][]string{{"http://s0"}}, res)

	resp, err := s.Do(ctx, Request{Source: 5, K: 5})
	if err != nil {
		t.Fatalf("Do through transient fault: %v", err)
	}
	sameResponses(t, "retried Do", refResp, resp)
	st := s.RemoteShard(0).RemoteStats()
	if st.Calls != 1 || st.Attempts != 2 || st.Retries != 1 || st.Failures != 0 {
		t.Fatalf("stats = %+v, want 1 call, 2 attempts, 1 retry, 0 failures", st)
	}
	health := s.Health()[0]
	if !health.Remote || health.State != ReplicaUp {
		t.Fatalf("shard health = %+v, want remote up after recovery", health)
	}
}

// TestRemoteBreakerOpensAndRecovers walks the breaker through its full
// lifecycle: consecutive failures open it (calls then fail fast without
// touching the wire), the cooldown admits one half-open probe, and a
// successful probe closes it with answers back to bit-parity.
func TestRemoteBreakerOpensAndRecovers(t *testing.T) {
	idx := testIndex(t, 200)
	ctx := context.Background()
	ref := mountShards(t, idx, 1)
	refResp, err := ref.Do(ctx, Request{Source: 7, K: 5})
	if err != nil {
		t.Fatalf("reference Do: %v", err)
	}

	cluster := newStubCluster(t, idx, "s0")
	fault := NewFaultTransport(&HandlerTransport{Handler: cluster}, 1)
	res := fastResilience(t)
	res.MaxAttempts = 1 // one attempt per call makes the failure count explicit
	s := mountRemoteShards(t, fault, [][]string{{"http://s0"}}, res)

	fault.SetErrorRate(1)
	for i := 0; i < res.BreakerThreshold; i++ {
		if _, err := s.Do(ctx, Request{Source: 7}); !errors.Is(err, ErrShardUnavailable) {
			t.Fatalf("Do %d under fault = %v, want ErrShardUnavailable", i, err)
		}
	}
	health := s.Health()[0]
	if health.State != ReplicaDown {
		t.Fatalf("state after %d failures = %v, want down", res.BreakerThreshold, health.State)
	}
	rep := health.Replicas[0]
	if !rep.BreakerOpen || rep.BreakerOpens != 1 || rep.ConsecutiveFailures != res.BreakerThreshold {
		t.Fatalf("replica = %+v, want breaker open once with %d failures", rep, res.BreakerThreshold)
	}

	// Open breaker: the next call fails fast without an HTTP attempt.
	attemptsBefore := s.RemoteShard(0).RemoteStats().Attempts
	if _, err := s.Do(ctx, Request{Source: 7}); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("Do with open breaker = %v, want ErrShardUnavailable", err)
	}
	if got := s.RemoteShard(0).RemoteStats().Attempts; got != attemptsBefore {
		t.Fatalf("open breaker still attempted the wire: %d -> %d attempts", attemptsBefore, got)
	}

	// Fault clears; after the cooldown one half-open probe closes the breaker.
	fault.Clear()
	time.Sleep(res.BreakerCooldown + 20*time.Millisecond)
	resp, err := s.Do(ctx, Request{Source: 7, K: 5})
	if err != nil {
		t.Fatalf("Do after recovery: %v", err)
	}
	sameResponses(t, "recovered Do", refResp, resp)
	if health := s.Health()[0]; health.State != ReplicaUp || health.Replicas[0].BreakerOpen {
		t.Fatalf("health after recovery = %+v, want up and closed", health)
	}
}

// TestBlackholedShardDegradesGracefully is the headline chaos acceptance: 4
// remote shards, one blackholed (no error, no answer — the worst failure
// mode). The default batch fails fast with the typed error naming the shard;
// AllowPartial returns the 3 surviving shards' answers flagged Degraded with
// a deterministic merge; clearing the fault closes the breaker and answers
// return to bit-parity with a single local engine. Run under -race in CI.
func TestBlackholedShardDegradesGracefully(t *testing.T) {
	idx := testIndex(t, 300)
	ctx := context.Background()
	ref := mountShards(t, idx, 1)

	const shards = 4
	hosts, endpoints := shardHosts(shards)
	cluster := newStubCluster(t, idx, hosts...)
	fault := NewFaultTransport(&HandlerTransport{Handler: cluster}, 1)
	hang := &blackholeCap{next: fault, d: 200 * time.Millisecond}
	res := fastResilience(t)
	s := mountRemoteShards(t, hang, endpoints, res)

	sources := spreadSources(s, 2)
	const k = 8
	refBatch, err := ref.DoBatch(ctx, Request{K: k}, sources)
	if err != nil {
		t.Fatalf("reference DoBatch: %v", err)
	}

	const deadShard = 1
	fault.Blackhole(hosts[deadShard])
	hang.host.Store(&hosts[deadShard])

	// Default: fail fast with the unreachable shard named.
	_, err = s.DoBatch(ctx, Request{K: k}, sources)
	if !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("DoBatch with blackholed shard = %v, want ErrShardUnavailable", err)
	}
	var su *ShardUnavailableError
	if !errors.As(err, &su) {
		t.Fatalf("error %v is not a *ShardUnavailableError", err)
	}
	if len(su.Shards) != 1 || su.Shards[0] != deadShard {
		t.Fatalf("unavailable shards = %v, want [%d]", su.Shards, deadShard)
	}

	// AllowPartial: the survivors answer, flagged Degraded, in input order.
	batch, err := s.DoBatch(ctx, Request{K: k, AllowPartial: true}, sources)
	if err != nil {
		t.Fatalf("AllowPartial DoBatch: %v", err)
	}
	if !batch.Degraded || len(batch.MissingShards) != 1 || batch.MissingShards[0] != deadShard {
		t.Fatalf("degraded = %v, missing = %v, want degraded with [%d]", batch.Degraded, batch.MissingShards, deadShard)
	}
	for i, u := range sources {
		if s.ShardFor(u) == deadShard {
			if batch.Resps[i] != nil {
				t.Fatalf("source %d on the dead shard got a response", u)
			}
			continue
		}
		if batch.Resps[i] == nil {
			t.Fatalf("surviving source %d missing from the partial batch", u)
		}
		sameResponses(t, fmt.Sprintf("partial[%d]", i), refBatch.Resps[i], batch.Resps[i])
	}

	// Partial merged top-k: deterministic merge over the surviving sources.
	var lists [][]core.ScoredNode
	for i, u := range sources {
		if s.ShardFor(u) != deadShard {
			lists = append(lists, refBatch.Resps[i].Top)
		}
	}
	wantTop := MergeTopK(k, lists...)
	top, err := s.TopKMerged(ctx, Request{AllowPartial: true}, sources, k)
	if err != nil {
		t.Fatalf("AllowPartial TopKMerged: %v", err)
	}
	if !top.Degraded || len(top.MissingShards) != 1 || top.MissingShards[0] != deadShard {
		t.Fatalf("TopKMerged degraded = %v missing %v", top.Degraded, top.MissingShards)
	}
	sameScored(t, "partial TopKMerged", wantTop, top.Top)
	if health := s.Health()[deadShard]; health.State != ReplicaDown {
		t.Fatalf("dead shard health = %v, want down", health.State)
	}

	// The fault clears: the breaker cooldown expires, a half-open probe
	// succeeds, and the full batch is bit-identical to the local reference.
	fault.Clear()
	hang.host.Store(nil)
	time.Sleep(res.BreakerCooldown + 20*time.Millisecond)
	batch, err = s.DoBatch(ctx, Request{K: k}, sources)
	if err != nil {
		t.Fatalf("DoBatch after recovery: %v", err)
	}
	if batch.Degraded {
		t.Fatal("recovered batch still flagged degraded")
	}
	for i := range sources {
		sameResponses(t, fmt.Sprintf("recovered[%d]", i), refBatch.Resps[i], batch.Resps[i])
	}
	if health := s.Health()[deadShard]; health.State != ReplicaUp {
		t.Fatalf("recovered shard health = %v, want up", health.State)
	}
}

// TestAllowPartialKeepsAppErrorsFatal pins the degradation boundary: only
// shard unavailability degrades — an application error (invalid node) fails
// an AllowPartial batch outright, because a partial answer would mask a
// caller bug.
func TestAllowPartialKeepsAppErrorsFatal(t *testing.T) {
	idx := testIndex(t, 200)
	cluster := newStubCluster(t, idx, "s0", "s1")
	s := mountRemoteShards(t, &HandlerTransport{Handler: cluster},
		[][]string{{"http://s0"}, {"http://s1"}}, fastResilience(t))

	sources := append(spreadSources(s, 1), 1_000_000) // far past NumNodes
	_, err := s.DoBatch(context.Background(), Request{AllowPartial: true}, sources)
	if err == nil {
		t.Fatal("AllowPartial batch with an invalid node succeeded")
	}
	if !errors.Is(err, graph.ErrInvalidNode) {
		t.Fatalf("error = %v, want ErrInvalidNode through the envelope", err)
	}
	if errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("app error classified as shard unavailability: %v", err)
	}
}

// TestRemoteAppErrorsNotRetried pins the retry classifier: an application
// rejection proves the replica alive — no retry, no breaker damage, typed
// error restored from the envelope.
func TestRemoteAppErrorsNotRetried(t *testing.T) {
	idx := testIndex(t, 200)
	cluster := newStubCluster(t, idx, "s0")
	s := mountRemoteShards(t, &HandlerTransport{Handler: cluster},
		[][]string{{"http://s0"}}, fastResilience(t))

	_, err := s.Do(context.Background(), Request{Source: 1_000_000})
	if !errors.Is(err, graph.ErrInvalidNode) {
		t.Fatalf("Do(invalid) = %v, want ErrInvalidNode", err)
	}
	st := s.RemoteShard(0).RemoteStats()
	if st.Attempts != 1 || st.Retries != 0 {
		t.Fatalf("stats = %+v, want exactly one attempt and no retries", st)
	}
	if health := s.Health()[0]; health.State != ReplicaUp {
		t.Fatalf("replica state after app error = %v, want up", health.State)
	}
}

// TestRemoteOverloadMapsToTypedError pins the 429 mapping: an overload shed
// on the shard host surfaces as the engine's typed overload error, with the
// Retry-After hint intact and no retry burned.
func TestRemoteOverloadMapsToTypedError(t *testing.T) {
	rs, err := NewRemoteShard(0, "default", []string{"http://s0"},
		roundTripBody(http.StatusTooManyRequests,
			`{"error":{"code":"overloaded","message":"shed","retry_after_ms":40}}`),
		fastResilience(t))
	if err != nil {
		t.Fatalf("NewRemoteShard: %v", err)
	}
	defer rs.Close()
	_, err = rs.Do(context.Background(), Request{Source: 1})
	if !errors.Is(err, engine.ErrOverloaded) {
		t.Fatalf("Do = %v, want ErrOverloaded", err)
	}
	var oe *engine.OverloadedError
	if !errors.As(err, &oe) || oe.RetryAfter != 40*time.Millisecond {
		t.Fatalf("overload error = %v, want RetryAfter 40ms", err)
	}
	if st := rs.RemoteStats(); st.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (shed is not retryable)", st.Attempts)
	}
}

// roundTripBody is a RoundTripper answering a fixed status and body.
func roundTripBody(status int, body string) http.RoundTripper {
	return &staticTransport{status: status, body: body}
}

type staticTransport struct {
	status int
	body   string
}

func (s *staticTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	h := &HandlerTransport{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(s.status)
		w.Write([]byte(s.body))
	})}
	return h.RoundTrip(req)
}

// TestHedgingCutsTailLatency is the hedging acceptance: with a 1-in-16
// injected slow tail, hedged calls cut the observed p99 by at least 2x over
// the unhedged baseline while staying within 2 attempts per call.
func TestHedgingCutsTailLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("tail-latency measurement; skipped in -short")
	}
	idx := testIndex(t, 200)
	ctx := context.Background()
	const (
		calls  = 160
		slowBy = 400 * time.Millisecond
	)

	run := func(disableHedge bool) (p99 time.Duration, st RemoteStats) {
		cluster := newStubCluster(t, idx, "r0", "r1")
		fault := NewFaultTransport(&HandlerTransport{Handler: cluster}, 1)
		fault.SetSlowTail(16, slowBy)
		res := ResilienceOptions{
			MaxAttempts:      2,
			RetryBackoff:     time.Millisecond,
			HedgeDelay:       5 * time.Millisecond,
			DisableHedge:     disableHedge,
			BreakerThreshold: 1000, // cancelled hedge losers must not trip it
			BreakerCooldown:  time.Second,
		}
		s := mountRemoteShards(t, fault, [][]string{{"http://r0", "http://r1"}}, res)
		lat := make([]time.Duration, calls)
		for i := range lat {
			start := time.Now()
			if _, err := s.Do(ctx, Request{Source: i % 200, NoCache: true}); err != nil {
				t.Fatalf("Do(%d): %v", i, err)
			}
			lat[i] = time.Since(start)
		}
		sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
		return lat[calls*99/100], s.RemoteShard(0).RemoteStats()
	}

	p99Hedged, st := run(false)
	p99Baseline, _ := run(true)

	if st.Hedges == 0 {
		t.Fatal("hedging run fired no hedges")
	}
	if st.Attempts > 2*st.Calls {
		t.Fatalf("attempts %d exceed 2 per call (%d calls)", st.Attempts, st.Calls)
	}
	if p99Hedged*2 > p99Baseline {
		t.Fatalf("hedged p99 %v not 2x better than baseline %v (hedges %d, wins %d)",
			p99Hedged, p99Baseline, st.Hedges, st.HedgeWins)
	}
	t.Logf("p99: hedged %v vs baseline %v; %d hedges, %d wins, %d attempts / %d calls",
		p99Hedged, p99Baseline, st.Hedges, st.HedgeWins, st.Attempts, st.Calls)
}

// TestHealthProbeTracksGeneration pins the active health loop: probes mark
// replicas up, carry the shard host's snapshot generation into
// Served.Generation, and a dead endpoint flips the map to down — then back
// up once it heals.
func TestHealthProbeTracksGeneration(t *testing.T) {
	idx := testIndex(t, 100)
	cluster := newStubCluster(t, idx, "s0")
	cluster.hosts["s0"].gen.Store(7)
	fault := NewFaultTransport(&HandlerTransport{Handler: cluster}, 1)
	res := fastResilience(t)
	res.HealthInterval = 5 * time.Millisecond
	res.BreakerCooldown = 30 * time.Millisecond
	s := mountRemoteShards(t, fault, [][]string{{"http://s0"}}, res)

	waitFor := func(label string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", label)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	waitFor("generation probe", func() bool { return s.Generation() == 7 })
	health := s.Health()[0]
	if health.State != ReplicaUp || health.Replicas[0].Probes == 0 {
		t.Fatalf("health after probes = %+v, want up with probes counted", health)
	}

	fault.SetErrorRate(1)
	waitFor("down detection", func() bool { return s.Health()[0].State == ReplicaDown })

	fault.Clear()
	waitFor("recovery", func() bool { return s.Health()[0].State == ReplicaUp })
	if rep := s.Health()[0].Replicas[0]; rep.ProbeFailures == 0 {
		t.Fatalf("probe failures not counted: %+v", rep)
	}
}

// TestRemoteConfigValidation pins the mount-time contract for remote graphs:
// endpoint lists are required and bounded, Open and Remote are mutually
// exclusive, and mutation paths (Reload, Update) stay local-only.
func TestRemoteConfigValidation(t *testing.T) {
	idx := testIndex(t, 100)
	tr := &HandlerTransport{Handler: http.NotFoundHandler()}
	if _, err := newServed(Config{Remote: &RemoteOptions{Transport: tr}}); err == nil {
		t.Fatal("remote mount with no shards succeeded")
	}
	if _, err := newServed(Config{Remote: &RemoteOptions{Shards: [][]string{{}}, Transport: tr}}); err == nil {
		t.Fatal("remote mount with an empty endpoint list succeeded")
	}
	big := make([][]string, MaxShards+1)
	for i := range big {
		big[i] = []string{"http://x"}
	}
	if _, err := newServed(Config{Remote: &RemoteOptions{Shards: big, Transport: tr}}); err == nil {
		t.Fatalf("remote mount with %d shards succeeded", len(big))
	}
	if _, err := newServed(Config{
		Open:   indexOpener(idx),
		Remote: &RemoteOptions{Shards: [][]string{{"http://x"}}, Transport: tr},
	}); err == nil {
		t.Fatal("mount with both Open and Remote succeeded")
	}

	s := mountRemoteShards(t, tr, [][]string{{"http://s0"}}, fastResilience(t))
	if s.Engine(0) != nil {
		t.Fatal("remote shard exposes a local engine")
	}
	if s.Current() != nil {
		t.Fatal("remote graph has a Current tag")
	}
	if err := s.Reload(nil); err == nil {
		t.Fatal("Reload on a remote graph succeeded")
	}
	if err := s.Update(Opened{Index: idx}, nil); err == nil {
		t.Fatal("Update on a remote graph succeeded")
	}
}

// TestRegistryCloseClosesRemotes pins Registry.Close as the shutdown hook:
// every mounted graph, local and remote, is closed and forgotten.
func TestRegistryCloseClosesRemotes(t *testing.T) {
	idx := testIndex(t, 100)
	r := NewRegistry()
	var closed atomic.Int32
	open := func() (Opened, error) {
		return Opened{Index: idx, Close: func() error { closed.Add(1); return nil }}, nil
	}
	if _, err := r.Mount("local", Config{Engine: engine.Options{Workers: 1}, Open: open}); err != nil {
		t.Fatalf("Mount local: %v", err)
	}
	remote, err := r.Mount("remote", Config{Remote: &RemoteOptions{
		Shards:    [][]string{{"http://s0"}},
		Transport: &HandlerTransport{Handler: http.NotFoundHandler()},
	}})
	if err != nil {
		t.Fatalf("Mount remote: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Registry.Close: %v", err)
	}
	if closed.Load() != 1 {
		t.Fatalf("local backing closed %d times, want 1", closed.Load())
	}
	if len(r.Names()) != 0 {
		t.Fatalf("names after Close = %v, want none", r.Names())
	}
	// Closing an already-closed remote graph is a no-op, not a panic.
	if err := remote.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

// BenchmarkRemoteShardOverhead measures the loopback remote-call path — JSON
// encode, resilience layer, envelope decode, full-score transfer, local
// top-k — against the same engine called directly, isolating the remote
// tax. Tracked by the CI bench-trend gate.
func BenchmarkRemoteShardOverhead(b *testing.B) {
	idx := testIndex(b, 2000)
	eng, err := engine.New(idx, engine.Options{Workers: 2, CacheSize: 0})
	if err != nil {
		b.Fatalf("engine.New: %v", err)
	}
	cluster := newStubCluster(b, idx, "s0")
	res := ResilienceOptions{
		MaxAttempts:      2,
		RetryBackoff:     time.Millisecond,
		DisableHedge:     true,
		BreakerThreshold: 2,
		BreakerCooldown:  100 * time.Millisecond,
	}
	rs, err := NewRemoteShard(0, "default", []string{"http://s0"},
		&HandlerTransport{Handler: cluster}, res)
	if err != nil {
		b.Fatalf("NewRemoteShard: %v", err)
	}
	defer rs.Close()
	ctx := context.Background()

	b.Run("local", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eng.Do(ctx, Request{Source: i % 2000, K: 10, NoCache: true}); err != nil {
				b.Fatalf("Do: %v", err)
			}
		}
	})
	b.Run("remote", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rs.Do(ctx, Request{Source: i % 2000, K: 10, NoCache: true}); err != nil {
				b.Fatalf("Do: %v", err)
			}
		}
	})
}
