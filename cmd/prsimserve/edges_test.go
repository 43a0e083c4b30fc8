package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prsim"
)

// newEdgesServer boots a self-contained server with custom mutation-related
// config on top of the standard test snapshot.
func newEdgesServer(t *testing.T, mutate func(*config)) (*server, *httptest.Server, *prsim.Graph, string) {
	t.Helper()
	g, err := prsim.GeneratePowerLawGraph(150, 6, 2.5, true, 5)
	if err != nil {
		t.Fatalf("GeneratePowerLawGraph: %v", err)
	}
	path := t.TempDir() + "/idx.prsim"
	writeSnapshot(t, g, path, 1)
	cfg := config{
		loadIndex: path,
		shards:    2,
		workers:   2,
		cacheSize: 16,
		timeout:   10 * time.Second,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := buildServer(cfg)
	if err != nil {
		t.Fatalf("buildServer: %v", err)
	}
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { close(srv.stop) })
	return srv, ts, g, path
}

// TestV1EdgesApplyPublishReload drives the full mutation pipeline: a batch is
// applied incrementally, published as a delta next to the snapshot, served
// immediately, survives a reload (the reload re-opens base+delta), and the
// published pair opens to a state bit-identical to what the server serves.
func TestV1EdgesApplyPublishReload(t *testing.T) {
	// On a 150-node graph a batch can perturb every hub, making the delta
	// nearly base-sized; a large ratio keeps the publish on the delta path
	// (the rewrite path has its own test below).
	srv, ts, g, path := newEdgesServer(t, func(c *config) { c.rewriteRatio = 100 })

	// Deleting demands an existing edge; pick one from the seed graph.
	delFrom := -1
	var delTo int32
	for u := 0; u < g.NumNodes(); u++ {
		if nbrs := g.Internal().OutNeighbors(u); len(nbrs) > 0 {
			delFrom, delTo = u, nbrs[0]
			break
		}
	}
	if delFrom < 0 {
		t.Fatal("seed graph has no edges")
	}

	var applied struct {
		Status         string  `json:"status"`
		Generation     uint64  `json:"generation"`
		Updates        int     `json:"updates"`
		HubsTotal      int     `json:"hubs_total"`
		HubsRecomputed int     `json:"hubs_recomputed"`
		FractionHubs   float64 `json:"fraction_hubs"`
		Published      string  `json:"published"`
		DeltaBytes     uint64  `json:"delta_bytes"`
	}
	body := fmt.Sprintf(`{"updates": [{"from": 3, "to": 140}, {"from": 7, "to": 11}, {"from": %d, "to": %d, "delete": true}]}`, delFrom, delTo)
	resp := postJSON(t, ts.URL+"/v1/graphs/default/edges", body, &applied)
	if resp.StatusCode != http.StatusOK || applied.Status != "applied" {
		t.Fatalf("edges = %d %+v", resp.StatusCode, applied)
	}
	if applied.Generation != 2 || applied.Updates != 3 {
		t.Errorf("generation/updates = %d/%d, want 2/3", applied.Generation, applied.Updates)
	}
	if applied.Published != "delta" || applied.DeltaBytes == 0 {
		t.Errorf("published = %q (%d bytes), want a delta", applied.Published, applied.DeltaBytes)
	}
	if applied.HubsRecomputed <= 0 || applied.HubsRecomputed > applied.HubsTotal {
		t.Errorf("hubs recomputed = %d of %d, want within (0, total]", applied.HubsRecomputed, applied.HubsTotal)
	}
	st, err := os.Stat(path + deltaSuffix)
	if err != nil {
		t.Fatalf("published delta missing: %v", err)
	}
	if uint64(st.Size()) != applied.DeltaBytes {
		t.Errorf("delta on disk is %d bytes, response said %d", st.Size(), applied.DeltaBytes)
	}

	// The published base+delta pair must open to exactly the serving state.
	pub, err := prsim.OpenSnapshotDelta(path, path+deltaSuffix)
	if err != nil {
		t.Fatalf("OpenSnapshotDelta: %v", err)
	}
	defer pub.Close()
	for _, u := range []int{0, 3, 7, 42, 140} {
		var served queryResultJSON
		if r := getJSON(t, fmt.Sprintf("%s/v1/graphs/default/query?u=%d&nocache=1", ts.URL, u), &served); r.StatusCode != http.StatusOK {
			t.Fatalf("query u=%d: %d", u, r.StatusCode)
		}
		want, err := pub.Do(context.Background(), prsim.Request{Source: u})
		if err != nil {
			t.Fatalf("Do(%d): %v", u, err)
		}
		if served.Support != len(want.Result.Scores()) {
			t.Errorf("u=%d: served support %d, published snapshot has %d", u, served.Support, len(want.Result.Scores()))
		}
	}

	// A second batch accumulates into the (rewritten) delta against the same
	// base generation.
	resp = postJSON(t, ts.URL+"/v1/graphs/default/edges", `{"updates": [{"from": 20, "to": 21}]}`, &applied)
	if resp.StatusCode != http.StatusOK || applied.Generation != 3 || applied.Published != "delta" {
		t.Fatalf("second batch = %d %+v", resp.StatusCode, applied)
	}

	// Reload re-opens base+delta: the updated state survives, and the stats
	// surface both the update generation and the mutation counters.
	var reload map[string]any
	if r := postJSON(t, ts.URL+"/v1/graphs/default/reload", "", &reload); r.StatusCode != http.StatusOK {
		t.Fatalf("reload = %d %v", r.StatusCode, reload)
	}
	if gen := srv.def.Current().Generation(); gen != 3 {
		t.Errorf("update generation after reload = %d, want 3 (delta not layered on reload)", gen)
	}
	var stats struct {
		Index     map[string]any `json:"index"`
		Mutations map[string]any `json:"mutations"`
	}
	getJSON(t, ts.URL+"/v1/graphs/default/stats", &stats)
	if stats.Index["update_generation"] != float64(3) {
		t.Errorf("stats update_generation = %v, want 3", stats.Index["update_generation"])
	}
	if stats.Mutations["batches"] != float64(2) || stats.Mutations["updates"] != float64(4) {
		t.Errorf("mutation counters = %v", stats.Mutations)
	}
	if stats.Mutations["deltas_published"] != float64(2) {
		t.Errorf("deltas_published = %v, want 2", stats.Mutations["deltas_published"])
	}
}

// TestV1EdgesFullRewrite forces the rewrite path with a tiny -rewriteratio:
// the snapshot file itself is republished (becoming the next delta base), the
// stale delta is removed, and the on-disk generation advances.
func TestV1EdgesFullRewrite(t *testing.T) {
	_, ts, _, path := newEdgesServer(t, func(c *config) { c.rewriteRatio = 1e-12 })

	var applied struct {
		Published  string `json:"published"`
		Generation uint64 `json:"generation"`
	}
	resp := postJSON(t, ts.URL+"/v1/graphs/default/edges", `{"updates": [{"from": 5, "to": 99}]}`, &applied)
	if resp.StatusCode != http.StatusOK || applied.Published != "rewrite" {
		t.Fatalf("edges = %d %+v, want a full rewrite", resp.StatusCode, applied)
	}
	if _, err := os.Stat(path + deltaSuffix); !os.IsNotExist(err) {
		t.Errorf("delta file still present after full rewrite (err=%v)", err)
	}
	gens, ok, err := prsim.SnapshotFileGens(path)
	if err != nil || !ok {
		t.Fatalf("SnapshotFileGens: ok=%v err=%v", ok, err)
	}
	if gens.Generation() != 2 {
		t.Errorf("rewritten base generation = %d, want 2", gens.Generation())
	}

	// The next batch deltas against the rewritten base.
	resp = postJSON(t, ts.URL+"/v1/graphs/default/edges", `{"updates": [{"from": 6, "to": 100}]}`, &applied)
	if resp.StatusCode != http.StatusOK || applied.Generation != 3 {
		t.Fatalf("post-rewrite batch = %d %+v", resp.StatusCode, applied)
	}
}

// TestV1EdgesValidation covers the client-error paths: empty batch, malformed
// JSON, out-of-range endpoints, unknown graph.
func TestV1EdgesValidation(t *testing.T) {
	_, ts, _, _ := newEdgesServer(t, nil)

	var env struct {
		Error errorJSON `json:"error"`
	}
	if r := postJSON(t, ts.URL+"/v1/graphs/default/edges", `{"updates": []}`, &env); r.StatusCode != http.StatusBadRequest || env.Error.Code != codeInvalidArgument {
		t.Errorf("empty batch = %d %+v", r.StatusCode, env.Error)
	}
	if r := postJSON(t, ts.URL+"/v1/graphs/default/edges", `{"updates": [{"frm": 1}]}`, &env); r.StatusCode != http.StatusBadRequest || env.Error.Code != codeInvalidArgument {
		t.Errorf("unknown field = %d %+v", r.StatusCode, env.Error)
	}
	if r := postJSON(t, ts.URL+"/v1/graphs/default/edges", `{"updates": [{"from": 0, "to": 99999}]}`, &env); r.StatusCode != http.StatusBadRequest || env.Error.Code != codeInvalidNode {
		t.Errorf("out-of-range endpoint = %d %+v", r.StatusCode, env.Error)
	}
	if r := postJSON(t, ts.URL+"/v1/graphs/nope/edges", `{"updates": [{"from": 0, "to": 1}]}`, &env); r.StatusCode != http.StatusNotFound || env.Error.Code != codeUnknownGraph {
		t.Errorf("unknown graph = %d %+v", r.StatusCode, env.Error)
	}
}

// TestV1AdminToken pins the -admintoken gate: admin endpoints demand the
// bearer token (constant 401 envelope without it), the query plane stays
// open, and the right token passes.
func TestV1AdminToken(t *testing.T) {
	_, ts, _, _ := newEdgesServer(t, func(c *config) { c.adminToken = "sesame" })

	do := func(method, url, body, token string) *http.Response {
		var r io.Reader
		if body != "" {
			r = strings.NewReader(body)
		}
		req, err := http.NewRequest(method, url, r)
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	edgesBody := `{"updates": [{"from": 1, "to": 2}]}`
	for _, tc := range []struct{ method, path, body string }{
		{http.MethodPost, "/v1/graphs/default/edges", edgesBody},
		{http.MethodPost, "/v1/graphs/default/reload", ""},
		{http.MethodPut, "/v1/graphs/extra", `{"snapshot": "x"}`},
		{http.MethodDelete, "/v1/graphs/extra", ""},
	} {
		if resp := do(tc.method, ts.URL+tc.path, tc.body, ""); resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("%s %s without token = %d, want 401", tc.method, tc.path, resp.StatusCode)
		} else if wa := resp.Header.Get("WWW-Authenticate"); !strings.Contains(wa, "Bearer") {
			t.Errorf("%s %s WWW-Authenticate = %q", tc.method, tc.path, wa)
		}
		if resp := do(tc.method, ts.URL+tc.path, tc.body, "wrong"); resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("%s %s with wrong token = %d, want 401", tc.method, tc.path, resp.StatusCode)
		}
	}

	// The query plane needs no token.
	var res queryResultJSON
	if r := getJSON(t, ts.URL+"/v1/graphs/default/query?u=3", &res); r.StatusCode != http.StatusOK {
		t.Errorf("query without token = %d, want 200", r.StatusCode)
	}
	// The right token passes (and actually applies).
	if resp := do(http.MethodPost, ts.URL+"/v1/graphs/default/edges", edgesBody, "sesame"); resp.StatusCode != http.StatusOK {
		t.Errorf("edges with token = %d, want 200", resp.StatusCode)
	}
	if resp := do(http.MethodPost, ts.URL+"/v1/graphs/default/reload", "", "sesame"); resp.StatusCode != http.StatusOK {
		t.Errorf("reload with token = %d, want 200", resp.StatusCode)
	}
}

// TestServeEdgesReloadUnderLoad is the dynamic-graph zero-downtime guarantee:
// clients hammer queries while edge mutations and hot reloads interleave on
// the same graph; not a single request may fail, and the final serving state
// is the expected update generation. Run under -race in CI.
func TestServeEdgesReloadUnderLoad(t *testing.T) {
	srv, ts, _, _ := newEdgesServer(t, nil)

	const clients = 4
	var failures, requests atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				u := (c*37 + i*11) % 150
				resp, err := http.Get(ts.URL + "/v1/graphs/default/query?u=" + strconv.Itoa(u))
				if err != nil {
					failures.Add(1)
					t.Errorf("client %d: %v", c, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				requests.Add(1)
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
					t.Errorf("client %d: status %d", c, resp.StatusCode)
				}
			}
		}(c)
	}

	const batches = 3
	for b := 1; b <= batches; b++ {
		body := fmt.Sprintf(`{"updates": [{"from": %d, "to": %d}, {"from": %d, "to": %d, "delete": true}]}`,
			b*13%150, (b*29+7)%150, b*13%150, (b*29+7)%150)
		var applied struct {
			Generation uint64 `json:"generation"`
		}
		if r := postJSON(t, ts.URL+"/v1/graphs/default/edges", body, &applied); r.StatusCode != http.StatusOK {
			t.Fatalf("edges batch %d = %d", b, r.StatusCode)
		}
		if applied.Generation != uint64(b+1) {
			t.Fatalf("batch %d generation = %d, want %d", b, applied.Generation, b+1)
		}
		// A reload mid-stream must pick the published base+delta back up.
		resp, err := http.Post(ts.URL+"/v1/graphs/default/reload", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reload after batch %d = %d", b, resp.StatusCode)
		}
	}
	close(done)
	wg.Wait()

	if f := failures.Load(); f != 0 {
		t.Fatalf("%d of %d requests failed across %d mutate+reload rounds", f, requests.Load(), batches)
	}
	if requests.Load() == 0 {
		t.Fatal("no requests completed; load generator never ran")
	}
	if gen := srv.def.Current().Generation(); gen != batches+1 {
		t.Errorf("final update generation = %d, want %d", gen, batches+1)
	}
}
