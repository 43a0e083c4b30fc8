package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prsim"
)

// newTestServer saves an index to disk, then boots the server on it through
// the same buildServer path main uses, exercising the load-index-at-startup
// flow end to end.
func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	g, err := prsim.GeneratePowerLawGraph(150, 6, 2.5, true, 5)
	if err != nil {
		t.Fatalf("GeneratePowerLawGraph: %v", err)
	}
	idx, err := prsim.BuildIndex(g, prsim.Options{Epsilon: 0.25, Seed: 3, SampleScale: 0.05})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	indexPath := filepath.Join(t.TempDir(), "idx.prsim")
	if err := idx.SaveFile(indexPath); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}

	srv, err := buildServer(config{
		loadIndex: indexPath,
		workers:   4,
		cacheSize: 16,
		timeout:   10 * time.Second,
	})
	if err != nil {
		t.Fatalf("buildServer: %v", err)
	}
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return ts
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("GET %s: Content-Type = %q, want application/json", url, ct)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decoding body: %v", url, err)
		}
	}
	return resp
}

func TestServeQuery(t *testing.T) {
	ts := newTestServer(t)
	var res queryResultJSON
	resp := getJSON(t, ts.URL+"/v1/graphs/default/query?u=3", &res)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if res.Source != 3 {
		t.Errorf("source = %d, want 3", res.Source)
	}
	if res.Support == 0 || len(res.Scores) == 0 {
		t.Fatalf("empty result: %+v", res)
	}
	// Source leads with self-similarity 1, and scores are sorted descending.
	if res.Scores[0].Node != 3 || res.Scores[0].Score != 1 {
		t.Errorf("first score = %+v, want node 3 score 1", res.Scores[0])
	}
	for i := 1; i < len(res.Scores); i++ {
		if res.Scores[i].Score > res.Scores[i-1].Score {
			t.Errorf("scores not sorted at %d: %+v", i, res.Scores)
		}
	}

	// limit caps the rendered nodes but Support still reports the full count.
	var limited queryResultJSON
	getJSON(t, ts.URL+"/v1/graphs/default/query?u=3&limit=2", &limited)
	if len(limited.Scores) != 2 {
		t.Errorf("limit=2 returned %d scores", len(limited.Scores))
	}
	if limited.Support != res.Support {
		t.Errorf("limited support %d, want %d", limited.Support, res.Support)
	}
}

func TestServeQueryBatch(t *testing.T) {
	ts := newTestServer(t)
	var batch struct {
		Results []queryResultJSON `json:"results"`
	}
	resp := getJSON(t, ts.URL+"/v1/graphs/default/query?u=1&u=7&u=1", &batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(batch.Results) != 3 {
		t.Fatalf("batch returned %d results, want 3", len(batch.Results))
	}
	if batch.Results[0].Source != 1 || batch.Results[1].Source != 7 || batch.Results[2].Source != 1 {
		t.Errorf("batch sources wrong: %+v", batch.Results)
	}
	// Identical sources must produce identical (deterministic) renderings.
	a, _ := json.Marshal(batch.Results[0])
	b, _ := json.Marshal(batch.Results[2])
	if string(a) != string(b) {
		t.Errorf("same source diverged across a batch:\n%s\n%s", a, b)
	}
}

func TestServeTopK(t *testing.T) {
	ts := newTestServer(t)
	var res struct {
		Source int              `json:"source"`
		K      int              `json:"k"`
		Top    []scoredNodeJSON `json:"top"`
	}
	resp := getJSON(t, ts.URL+"/v1/graphs/default/topk?u=5&k=7", &res)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if res.Source != 5 || res.K != 7 {
		t.Errorf("echo fields wrong: %+v", res)
	}
	if len(res.Top) > 7 {
		t.Errorf("topk returned %d items", len(res.Top))
	}
	for _, s := range res.Top {
		if s.Node == 5 {
			t.Errorf("topk must exclude the source: %+v", res.Top)
		}
	}
}

func TestServePair(t *testing.T) {
	ts := newTestServer(t)
	var res struct {
		U     int     `json:"u"`
		V     int     `json:"v"`
		Score float64 `json:"score"`
	}
	resp := getJSON(t, ts.URL+"/v1/graphs/default/pair?u=4&v=4", &res)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if res.Score != 1 {
		t.Errorf("s(4,4) = %v, want 1", res.Score)
	}
}

func TestServeHealthzAndStats(t *testing.T) {
	ts := newTestServer(t)
	var health map[string]any
	resp := getJSON(t, ts.URL+"/healthz", &health)
	if resp.StatusCode != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz = %d %v", resp.StatusCode, health)
	}

	// Serve a couple of queries so the counters move.
	getJSON(t, ts.URL+"/v1/graphs/default/query?u=2", nil)
	getJSON(t, ts.URL+"/v1/graphs/default/query?u=2", nil)

	var stats struct {
		Graph    map[string]any     `json:"graph"`
		Index    map[string]any     `json:"index"`
		Snapshot map[string]any     `json:"snapshot"`
		Engine   map[string]float64 `json:"engine"`
	}
	resp = getJSON(t, ts.URL+"/v1/graphs/default/stats", &stats)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status = %d", resp.StatusCode)
	}
	if stats.Graph["nodes"] != float64(150) {
		t.Errorf("stats nodes = %v, want 150", stats.Graph["nodes"])
	}
	// Graph and index come out of one snapshot open, so they share a backing.
	if gb, ib := stats.Graph["backing"], stats.Index["backing"]; gb != ib || (gb != "mmap" && gb != "heap") {
		t.Errorf("stats backings: graph %v, index %v; want both mmap or both heap", gb, ib)
	}
	if gen := stats.Snapshot["generation"]; gen != float64(0) {
		t.Errorf("stats generation = %v, want 0 before any reload", gen)
	}
	if hubs, _ := stats.Index["hubs"].(float64); hubs <= 0 {
		t.Errorf("stats hubs = %v, want > 0", stats.Index["hubs"])
	}
	if stats.Engine["queries"] < 2 {
		t.Errorf("stats queries = %v, want >= 2", stats.Engine["queries"])
	}
	if stats.Engine["cache_hits"] < 1 {
		t.Errorf("stats cache_hits = %v, want >= 1 after repeated query", stats.Engine["cache_hits"])
	}
}

// TestServeMmapBacking checks that -loadindex serves graph and index zero-copy
// out of the snapshot mapping: queries work and /stats reports the backing
// prsim.OpenSnapshot gives the same file (mmap, or heap on platforms without
// zero-copy support).
func TestServeMmapBacking(t *testing.T) {
	_, ts, _, path := newSelfContainedServer(t)
	var res queryResultJSON
	if resp := getJSON(t, ts.URL+"/v1/graphs/default/query?u=2", &res); resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d", resp.StatusCode)
	}
	if res.Source != 2 {
		t.Errorf("query source = %d, want 2", res.Source)
	}
	direct, err := prsim.OpenSnapshot(path, nil)
	if err != nil {
		t.Fatalf("OpenSnapshot: %v", err)
	}
	defer direct.Close()
	var stats struct {
		Graph map[string]any `json:"graph"`
		Index map[string]any `json:"index"`
	}
	getJSON(t, ts.URL+"/v1/graphs/default/stats", &stats)
	if b := stats.Index["backing"]; b != direct.Backing() {
		t.Errorf("stats index backing = %v, want %s", b, direct.Backing())
	}
	if b := stats.Graph["backing"]; b != direct.GraphBacking() {
		t.Errorf("stats graph backing = %v, want %s", b, direct.GraphBacking())
	}
}

func TestServeErrors(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct {
		path string
		want int
	}{
		{"/v1/graphs/default/query", http.StatusBadRequest},              // missing u
		{"/v1/graphs/default/query?u=abc", http.StatusBadRequest},        // non-integer
		{"/v1/graphs/default/query?u=99999", http.StatusBadRequest},      // out of range
		{"/v1/graphs/default/query?u=1&limit=-2", http.StatusBadRequest}, // bad limit
		{"/v1/graphs/default/topk?u=1&k=0", http.StatusBadRequest},       // bad k
		{"/v1/graphs/default/pair?u=1", http.StatusBadRequest},           // missing v
		{"/v1/graphs/default/pair?u=1&v=99999", http.StatusBadRequest},   // out of range
	}
	for _, c := range cases {
		var body struct {
			Error errorJSON `json:"error"`
		}
		resp := getJSON(t, ts.URL+c.path, &body)
		if resp.StatusCode != c.want {
			t.Errorf("GET %s: status %d, want %d", c.path, resp.StatusCode, c.want)
		}
		if body.Error.Code == "" || body.Error.Message == "" {
			t.Errorf("GET %s: incomplete error envelope %+v", c.path, body.Error)
		}
	}
}

// TestServeIndexGraphMismatch checks the startup path never serves a snapshot
// against a graph other than the one embedded in it: -loadindex combined with
// -graph or -dataset is refused, whether the supplied graph is a different one
// (an 80-node edge list or the DB stand-in against a 50-node index) or the
// snapshot's own.
func TestServeIndexGraphMismatch(t *testing.T) {
	dir := t.TempDir()
	small, err := prsim.GeneratePowerLawGraph(50, 4, 2.5, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	big, err := prsim.GeneratePowerLawGraph(80, 4, 2.5, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := prsim.BuildIndex(small, prsim.Options{Epsilon: 0.3, SampleScale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	indexPath := filepath.Join(dir, "idx.prsim")
	if err := idx.SaveFile(indexPath); err != nil {
		t.Fatal(err)
	}
	writeGraph := func(name string, g *prsim.Graph) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.WriteEdgeList(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for _, cfg := range []config{
		{graphPath: writeGraph("big.txt", big), loadIndex: indexPath},
		{graphPath: writeGraph("small.txt", small), loadIndex: indexPath},
		{dataset: "DB", loadIndex: indexPath},
	} {
		if _, err := buildServer(cfg); err == nil || !strings.Contains(err.Error(), "carry their own graph") {
			t.Errorf("buildServer(graph %q, dataset %q, loadindex) = %v, want a refusal", cfg.graphPath, cfg.dataset, err)
		}
	}
}

func TestBuildServerNoGraph(t *testing.T) {
	if _, err := buildServer(config{}); err == nil {
		t.Fatal("expected error when none of -loadindex, -graph and -dataset is given")
	}
}

// writeSnapshot builds an index over g and atomically publishes it at path
// (write to temp + rename, the pattern the hot-reload runbook prescribes:
// truncating a file that is currently mapped would fault the readers).
func writeSnapshot(t testing.TB, g *prsim.Graph, path string, seed uint64) {
	t.Helper()
	idx, err := prsim.BuildIndex(g, prsim.Options{Epsilon: 0.3, Seed: seed, SampleScale: 0.05})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	tmp := path + ".tmp"
	if err := idx.SaveFile(tmp); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatalf("Rename: %v", err)
	}
}

// newSelfContainedServer boots the server from a snapshot alone — no graph
// flag — and returns the server plus the snapshot path for reloads.
func newSelfContainedServer(t *testing.T) (*server, *httptest.Server, *prsim.Graph, string) {
	t.Helper()
	g, err := prsim.GeneratePowerLawGraph(150, 6, 2.5, true, 5)
	if err != nil {
		t.Fatalf("GeneratePowerLawGraph: %v", err)
	}
	path := filepath.Join(t.TempDir(), "idx.prsim")
	writeSnapshot(t, g, path, 1)
	srv, err := buildServer(config{
		loadIndex: path,
		workers:   4,
		cacheSize: 16,
		timeout:   10 * time.Second,
	})
	if err != nil {
		t.Fatalf("buildServer (self-contained): %v", err)
	}
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { close(srv.stop) })
	return srv, ts, g, path
}

// TestServeSelfContained starts the server from a snapshot with no edge-list
// file at all and checks queries and the reported backings.
func TestServeSelfContained(t *testing.T) {
	_, ts, _, _ := newSelfContainedServer(t)
	var res queryResultJSON
	if resp := getJSON(t, ts.URL+"/v1/graphs/default/query?u=3", &res); resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d", resp.StatusCode)
	}
	if res.Source != 3 || res.Support == 0 {
		t.Fatalf("bad result: %+v", res)
	}
	var stats struct {
		Graph    map[string]any `json:"graph"`
		Index    map[string]any `json:"index"`
		Snapshot map[string]any `json:"snapshot"`
	}
	getJSON(t, ts.URL+"/v1/graphs/default/stats", &stats)
	if stats.Graph["nodes"] != float64(150) {
		t.Errorf("stats nodes = %v, want 150", stats.Graph["nodes"])
	}
	if sc := stats.Snapshot["self_contained"]; sc != true {
		t.Errorf("stats self_contained = %v, want true", sc)
	}
	// mmap where supported, heap on fallback platforms; either way the graph
	// came out of the snapshot, and both backings must agree with the API.
	if b := stats.Graph["backing"]; b != "mmap" && b != "heap" {
		t.Errorf("graph backing = %v, want mmap or heap", b)
	}
	if b := stats.Index["backing"]; b != "mmap" && b != "heap" {
		t.Errorf("index backing = %v, want mmap or heap", b)
	}
}

// TestServeReload drives POST /v1/graphs/default/reload: the generation
// increments, queries keep working, and a server whose index was built at
// startup (no snapshot file) refuses with 409.
func TestServeReload(t *testing.T) {
	_, ts, g, path := newSelfContainedServer(t)

	// Publish a new snapshot (different seed → genuinely different index).
	writeSnapshot(t, g, path, 2)
	resp, err := http.Post(ts.URL+"/v1/graphs/default/reload", "", nil)
	if err != nil {
		t.Fatalf("POST /v1/graphs/default/reload: %v", err)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decoding reload body: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status = %d (%v)", resp.StatusCode, body)
	}
	if body["generation"] != float64(1) {
		t.Errorf("reload generation = %v, want 1", body["generation"])
	}
	var res queryResultJSON
	if qr := getJSON(t, ts.URL+"/v1/graphs/default/query?u=3", &res); qr.StatusCode != http.StatusOK {
		t.Fatalf("query after reload = %d", qr.StatusCode)
	}

	// GET on reload must not trigger one (admin mutation is POST-only).
	if getResp, err := http.Get(ts.URL + "/v1/graphs/default/reload"); err != nil {
		t.Fatalf("GET /v1/graphs/default/reload: %v", err)
	} else {
		getResp.Body.Close()
		if getResp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /v1/graphs/default/reload status = %d, want 405", getResp.StatusCode)
		}
	}

	// A built-at-startup server has nothing to reload.
	built, err := buildServer(config{dataset: "DB", timeout: time.Second, epsilon: 0.3, scale: 0.05})
	if err != nil {
		t.Fatalf("buildServer (dataset): %v", err)
	}
	bts := httptest.NewServer(built.handler())
	defer bts.Close()
	resp, err = http.Post(bts.URL+"/v1/graphs/default/reload", "", nil)
	if err != nil {
		t.Fatalf("POST /v1/graphs/default/reload (built): %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("reload of built index status = %d, want 409", resp.StatusCode)
	}
}

// TestServeReloadUnderLoad is the zero-downtime guarantee: query traffic
// hammers the server while snapshots are republished and reloaded, and not a
// single in-flight request may fail. Run under -race in CI; the swapped-out
// snapshot being unmapped under a live query would also fault outright.
func TestServeReloadUnderLoad(t *testing.T) {
	srv, ts, g, path := newSelfContainedServer(t)

	const clients = 4
	var failures atomic.Int64
	var requests atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			urls := []string{
				ts.URL + "/v1/graphs/default/query?u=" + strconv.Itoa(c*17%150),
				ts.URL + "/v1/graphs/default/topk?u=" + strconv.Itoa(c*31%150) + "&k=5",
			}
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(urls[i%len(urls)])
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

	const reloads = 3
	for r := 1; r <= reloads; r++ {
		writeSnapshot(t, g, path, uint64(r+1))
		resp, err := http.Post(ts.URL+"/v1/graphs/default/reload", "", nil)
		if err != nil {
			t.Fatalf("POST /v1/graphs/default/reload %d: %v", r, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reload %d status = %d", r, resp.StatusCode)
		}
	}
	close(done)
	wg.Wait()

	if f := failures.Load(); f != 0 {
		t.Fatalf("%d of %d requests failed across %d reloads", f, requests.Load(), reloads)
	}
	if requests.Load() == 0 {
		t.Fatal("no requests completed; load generator never ran")
	}
	if gen := srv.def.Generation(); gen != reloads {
		t.Errorf("generation = %d, want %d", gen, reloads)
	}
}

// TestServeWatchReload exercises the mtime watcher: publishing a new snapshot
// triggers a hot swap without any /reload call.
func TestServeWatchReload(t *testing.T) {
	g, err := prsim.GeneratePowerLawGraph(120, 5, 2.5, true, 9)
	if err != nil {
		t.Fatalf("GeneratePowerLawGraph: %v", err)
	}
	path := filepath.Join(t.TempDir(), "watched.prsim")
	writeSnapshot(t, g, path, 1)
	srv, err := buildServer(config{
		loadIndex: path,
		watch:     20 * time.Millisecond,
		timeout:   10 * time.Second,
	})
	if err != nil {
		t.Fatalf("buildServer: %v", err)
	}
	go srv.watch(srv.cfg.watch)
	defer close(srv.stop)

	// Rename alone bumps the mtime; give the file a distinct identity too.
	time.Sleep(5 * time.Millisecond)
	writeSnapshot(t, g, path, 2)

	deadline := time.Now().Add(5 * time.Second)
	for srv.def.Generation() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("watcher never picked up the republished snapshot")
		}
		time.Sleep(10 * time.Millisecond)
	}
	idx := srv.def.Current()
	if _, err := idx.Do(context.Background(), prsim.Request{Source: 1}); err != nil {
		t.Fatalf("query after watched reload: %v", err)
	}
}

// TestWatchRequiresLoadIndex checks -watch without -loadindex is rejected.
func TestWatchRequiresLoadIndex(t *testing.T) {
	if _, err := buildServer(config{dataset: "DB", watch: time.Second}); err == nil {
		t.Fatal("expected -watch without -loadindex to fail")
	}
}

// TestRenderResultSharedCacheConcurrent locks in the "cached results are
// shared, treat as read-only" contract at the HTTP layer: many goroutines
// render the same cached *Result (plus its TopK and AsSlice views)
// concurrently under -race.
func TestRenderResultSharedCacheConcurrent(t *testing.T) {
	g, err := prsim.GeneratePowerLawGraph(150, 6, 2.5, true, 5)
	if err != nil {
		t.Fatalf("GeneratePowerLawGraph: %v", err)
	}
	idx, err := prsim.BuildIndex(g, prsim.Options{Epsilon: 0.25, Seed: 3, SampleScale: 0.05})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	reg := prsim.NewRegistry()
	defer reg.Close()
	eng, err := reg.MountIndex(prsim.DefaultGraph, idx, prsim.GraphConfig{Engine: prsim.EngineOptions{Workers: 4, CacheSize: 8}})
	if err != nil {
		t.Fatalf("MountIndex: %v", err)
	}
	ctx := context.Background()
	resp, err := eng.Do(ctx, prsim.Request{Source: 7})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	shared := resp.Result
	again, err := eng.Do(ctx, prsim.Request{Source: 7})
	if err != nil {
		t.Fatalf("Do (cached): %v", err)
	}
	if shared.Scores() == nil || again.Result.Scores() == nil {
		t.Fatal("results missing scores")
	}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(limit int) {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				out := renderResult(shared, limit)
				if out.Source != 7 {
					t.Errorf("rendered source = %d, want 7", out.Source)
				}
				_ = shared.TopK(5)
				_ = shared.AsSlice()
			}
		}(i % 3)
	}
	// Concurrent cache hits on the same key, racing the renders above.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 10; r++ {
				if _, err := eng.Do(ctx, prsim.Request{Source: 7}); err != nil {
					t.Errorf("cached query: %v", err)
				}
			}
		}()
	}
	wg.Wait()
}

// postJSON posts a JSON body and decodes the JSON response.
func postJSON(t *testing.T, url, body string, out any) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decoding body: %v", url, err)
		}
	}
	return resp
}

// TestServeRequestPlane drives the per-request knobs over both transports:
// JSON bodies and URL parameters, epsilon echo and clamping, top-k, and
// cache observability.
func TestServeRequestPlane(t *testing.T) {
	ts := newTestServer(t) // build epsilon 0.25
	var def struct {
		queryResultJSON
		Epsilon float64 `json:"epsilon"`
		Clamped bool    `json:"epsilon_clamped"`
		Cached  bool    `json:"cached"`
	}
	resp := postJSON(t, ts.URL+"/v1/graphs/default/query", `{"u": 3}`, &def)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /query status = %d", resp.StatusCode)
	}
	if def.Source != 3 || def.Epsilon != 0.25 || def.Clamped {
		t.Fatalf("default POST query = source %d epsilon %v clamped %v", def.Source, def.Epsilon, def.Clamped)
	}

	// Coarser per-request epsilon via JSON body.
	var coarse struct {
		queryResultJSON
		Epsilon float64 `json:"epsilon"`
	}
	postJSON(t, ts.URL+"/v1/graphs/default/query", `{"u": 3, "epsilon": 0.75}`, &coarse)
	if coarse.Epsilon != 0.75 {
		t.Fatalf("coarse epsilon echoed as %v, want 0.75", coarse.Epsilon)
	}
	if coarse.Support == 0 {
		t.Fatal("coarse query returned no scores")
	}

	// Clamped request (below build epsilon) over GET parameters.
	var clamped struct {
		Epsilon float64 `json:"epsilon"`
		Clamped bool    `json:"epsilon_clamped"`
	}
	getJSON(t, ts.URL+"/v1/graphs/default/query?u=3&epsilon=0.05", &clamped)
	if !clamped.Clamped || clamped.Epsilon != 0.25 {
		t.Fatalf("clamped GET = epsilon %v clamped %v, want 0.25/true", clamped.Epsilon, clamped.Clamped)
	}

	// Repeating the default request hits the cache and says so.
	var cached struct {
		Cached bool `json:"cached"`
	}
	postJSON(t, ts.URL+"/v1/graphs/default/query", `{"u": 3}`, &cached)
	if !cached.Cached {
		t.Fatal("repeated identical request not served from cache")
	}

	// POST /topk with body knobs.
	var top struct {
		Source  int              `json:"source"`
		K       int              `json:"k"`
		Epsilon float64          `json:"epsilon"`
		Top     []scoredNodeJSON `json:"top"`
	}
	resp = postJSON(t, ts.URL+"/v1/graphs/default/topk", `{"u": 5, "k": 4, "epsilon": 0.5, "timeout_ms": 5000}`, &top)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /topk status = %d", resp.StatusCode)
	}
	if top.Source != 5 || top.K != 4 || top.Epsilon != 0.5 {
		t.Fatalf("topk envelope = %+v", top)
	}
	if len(top.Top) == 0 || len(top.Top) > 4 {
		t.Fatalf("topk returned %d entries", len(top.Top))
	}

	// Batch over JSON body with a shared epsilon.
	var batch struct {
		Results []queryResultJSON `json:"results"`
		Epsilon float64           `json:"epsilon"`
	}
	postJSON(t, ts.URL+"/v1/graphs/default/query", `{"sources": [1, 2], "epsilon": 0.5, "limit": 3}`, &batch)
	if len(batch.Results) != 2 || batch.Epsilon != 0.5 {
		t.Fatalf("batch = %d results epsilon %v", len(batch.Results), batch.Epsilon)
	}
	for _, r := range batch.Results {
		if len(r.Scores) > 3 {
			t.Fatalf("limit not applied: %d scores", len(r.Scores))
		}
	}

	// Bad requests: invalid epsilon (400), malformed body (400), unknown
	// field (400).
	for _, tc := range []struct{ url, body string }{
		{"/v1/graphs/default/query", `{"u": 3, "epsilon": 2}`},
		{"/v1/graphs/default/query", `{"u": 3,`},
		{"/v1/graphs/default/query", `{"u": 3, "epsilom": 0.5}`},
	} {
		resp, err := http.Post(ts.URL+tc.url, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %q status = %d, want 400", tc.url, tc.body, resp.StatusCode)
		}
	}
}

// TestWriteQueryErrorOverloaded pins the HTTP contract of load shedding: the
// sentinel maps to 429 with a Retry-After hint. (Deterministic shedding
// itself is exercised at the engine layer, where the worker can be parked.)
func TestWriteQueryErrorOverloaded(t *testing.T) {
	rec := httptest.NewRecorder()
	writeQueryError(rec, fmt.Errorf("engine: query from source 3: %w", prsim.ErrOverloaded))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}
	var body struct {
		Error errorJSON `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error.Code != codeOverloaded {
		t.Fatalf("error body = %q (%v)", rec.Body.String(), err)
	}
	if body.Error.RetryAfterMS <= 0 {
		t.Fatalf("retry_after_ms = %d, want positive fallback", body.Error.RetryAfterMS)
	}
}

// TestServeStatsRequestPlane checks /stats exposes the admission and
// coalescing counters plus the background-verify block.
func TestServeStatsRequestPlane(t *testing.T) {
	ts := newTestServer(t)
	getJSON(t, ts.URL+"/v1/graphs/default/query?u=1", nil)
	var stats struct {
		Engine struct {
			Workers    int   `json:"workers"`
			MaxQueue   int   `json:"max_queue"`
			QueueDepth int64 `json:"queue_depth"`
			Queries    int64 `json:"queries"`
			Coalesced  int64 `json:"coalesced"`
			Shed       int64 `json:"shed"`
		} `json:"engine"`
		Verify struct {
			Runs int64 `json:"runs"`
		} `json:"verify"`
	}
	getJSON(t, ts.URL+"/v1/graphs/default/stats", &stats)
	if stats.Engine.MaxQueue <= 0 {
		t.Fatalf("max_queue = %d, want positive default", stats.Engine.MaxQueue)
	}
	if stats.Engine.Queries == 0 {
		t.Fatal("queries counter missing")
	}
	if stats.Engine.Shed != 0 || stats.Engine.QueueDepth != 0 {
		t.Fatalf("idle server shows shed=%d depth=%d", stats.Engine.Shed, stats.Engine.QueueDepth)
	}
	if stats.Verify.Runs != 0 {
		t.Fatalf("verify runs = %d before any verify", stats.Verify.Runs)
	}
}

// TestServeBackgroundVerify runs the -verifyevery verification against a
// real snapshot — success first, then after corrupting the file on disk the
// periodic check must record (and expose) the failure while the server keeps
// serving off the already-validated mapping.
func TestServeBackgroundVerify(t *testing.T) {
	dir := t.TempDir()
	g, err := prsim.GeneratePowerLawGraph(120, 6, 2.5, true, 5)
	if err != nil {
		t.Fatalf("GeneratePowerLawGraph: %v", err)
	}
	idx, err := prsim.BuildIndex(g, prsim.Options{Epsilon: 0.25, Seed: 3, SampleScale: 0.05})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	indexPath := filepath.Join(dir, "idx.prsim")
	if err := idx.SaveFile(indexPath); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	srv, err := buildServer(config{
		loadIndex:   indexPath, // self-contained open: graph from the file
		workers:     2,
		cacheSize:   4,
		timeout:     10 * time.Second,
		verifyEvery: time.Hour, // loop not started in tests; we tick by hand
	})
	if err != nil {
		t.Fatalf("buildServer: %v", err)
	}
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)

	srv.verifySnapshot()
	var stats struct {
		Verify struct {
			Runs       int64   `json:"runs"`
			RolledBack int64   `json:"rolled_back"`
			LastOK     bool    `json:"last_ok"`
			LastError  string  `json:"last_error"`
			Every      float64 `json:"every_seconds"`
		} `json:"verify"`
	}
	getJSON(t, ts.URL+"/v1/graphs/default/stats", &stats)
	if stats.Verify.Runs != 1 || !stats.Verify.LastOK {
		t.Fatalf("after clean verify: %+v", stats.Verify)
	}
	if stats.Verify.Every != 3600 {
		t.Fatalf("every_seconds = %v, want 3600", stats.Verify.Every)
	}

	// Flip one byte in the middle of the section payload; for mmap-backed
	// snapshots the next verify reads the mutated page, for stream-backed
	// ones Verify is a no-op and the rest of this test does not apply.
	if srv.def.Current().Backing() != "mmap" {
		t.Skip("platform lacks zero-copy snapshots; background verify has nothing to re-check")
	}
	raw, err := os.ReadFile(indexPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(indexPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	srv.verifySnapshot()
	getJSON(t, ts.URL+"/v1/graphs/default/stats", &stats)
	if stats.Verify.Runs != 2 || stats.Verify.LastOK {
		t.Fatalf("after corruption: %+v", stats.Verify)
	}
	if stats.Verify.LastError == "" {
		t.Fatal("corruption not reported in last_error")
	}
	// The file is corrupt in place, so the automatic rollback's re-open finds
	// the same bad bytes and must NOT swap: keep serving the last-good pages.
	if stats.Verify.RolledBack != 0 {
		t.Fatalf("rolled_back = %d, want 0 (re-opened file is still corrupt)", stats.Verify.RolledBack)
	}
	// Queries still answer off the mapping (the flipped byte may perturb
	// scores but the structural validation done at open keeps them safe).
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after corruption = %d", resp.StatusCode)
	}
}

// TestServeReloadKeepsWarmCache pins the reload-aware cache seam end to end:
// reloading an unchanged snapshot re-keys the result cache instead of
// purging it, so the first post-reload repeat of a cached query is still a
// cache hit.
func TestServeReloadKeepsWarmCache(t *testing.T) {
	ts := newTestServer(t)
	var first struct {
		Cached bool `json:"cached"`
	}
	getJSON(t, ts.URL+"/v1/graphs/default/query?u=3", &first)
	if first.Cached {
		t.Fatal("first query claims to be cached")
	}
	resp, err := http.Post(ts.URL+"/v1/graphs/default/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status = %d", resp.StatusCode)
	}
	var stats struct {
		Engine struct {
			CacheReuses  int64 `json:"cache_reuses"`
			CacheEntries int   `json:"cache_entries"`
		} `json:"engine"`
	}
	getJSON(t, ts.URL+"/v1/graphs/default/stats", &stats)
	if stats.Engine.CacheReuses != 1 {
		t.Fatalf("cache_reuses = %d after same-file reload, want 1", stats.Engine.CacheReuses)
	}
	if stats.Engine.CacheEntries == 0 {
		t.Fatal("cache purged despite unchanged snapshot")
	}
	var again struct {
		Cached bool `json:"cached"`
	}
	getJSON(t, ts.URL+"/v1/graphs/default/query?u=3", &again)
	if !again.Cached {
		t.Fatal("post-reload repeat of a cached query missed the kept cache")
	}
}

// TestServeParallelKnob exercises the intra-query parallelism request knob on
// both transports and the determinism contract through HTTP: answers must be
// identical at every parallelism level (scores are bit-identical, and JSON
// float64 encoding round-trips exactly).
func TestServeParallelKnob(t *testing.T) {
	ts := newTestServer(t)
	type queryResp struct {
		Support int              `json:"support"`
		Scores  []scoredNodeJSON `json:"scores"`
	}
	var serial, parallel queryResp
	getJSON(t, ts.URL+"/v1/graphs/default/query?u=3&parallel=1&nocache=1", &serial)
	getJSON(t, ts.URL+"/v1/graphs/default/query?u=3&parallel=4&nocache=1", &parallel)
	if serial.Support == 0 || serial.Support != parallel.Support {
		t.Fatalf("support %d vs %d", serial.Support, parallel.Support)
	}
	for i := range serial.Scores {
		if serial.Scores[i] != parallel.Scores[i] {
			t.Fatalf("entry %d differs across parallelism: %+v vs %+v", i, serial.Scores[i], parallel.Scores[i])
		}
	}

	body := strings.NewReader(`{"u": 3, "parallelism": 4, "no_cache": true}`)
	resp, err := http.Post(ts.URL+"/v1/graphs/default/query", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	var post queryResp
	if err := json.NewDecoder(resp.Body).Decode(&post); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || post.Support != serial.Support {
		t.Fatalf("POST parallelism: status %d support %d", resp.StatusCode, post.Support)
	}

	resp, err = http.Get(ts.URL + "/v1/graphs/default/query?u=3&parallel=x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad parallel value: status %d, want 400", resp.StatusCode)
	}

	var stats struct {
		Engine struct {
			ParallelDefault int   `json:"parallel_default"`
			ChunksExecuted  int64 `json:"chunks_executed"`
			ChunksMerged    int64 `json:"chunks_merged"`
		} `json:"engine"`
	}
	getJSON(t, ts.URL+"/v1/graphs/default/stats", &stats)
	if stats.Engine.ChunksExecuted == 0 || stats.Engine.ChunksExecuted != stats.Engine.ChunksMerged {
		t.Fatalf("chunk counters executed=%d merged=%d", stats.Engine.ChunksExecuted, stats.Engine.ChunksMerged)
	}
}

// TestServeVerifyRollback drives the automatic-recovery path: the serving
// mapping is corrupted in place, but the good bytes are republished at the
// path (write + rename, so the path and the mapped inode diverge). The next
// background verification must detect the corruption, re-open the path,
// verify the fresh mapping, and swap it in — bumping the generation and the
// rolled_back counter — after which verification is clean again.
func TestServeVerifyRollback(t *testing.T) {
	dir := t.TempDir()
	g, err := prsim.GeneratePowerLawGraph(120, 6, 2.5, true, 5)
	if err != nil {
		t.Fatalf("GeneratePowerLawGraph: %v", err)
	}
	idx, err := prsim.BuildIndex(g, prsim.Options{Epsilon: 0.25, Seed: 3, SampleScale: 0.05})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	indexPath := filepath.Join(dir, "idx.prsim")
	if err := idx.SaveFile(indexPath); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	srv, err := buildServer(config{
		loadIndex:   indexPath,
		workers:     2,
		cacheSize:   4,
		timeout:     10 * time.Second,
		verifyEvery: time.Hour,
	})
	if err != nil {
		t.Fatalf("buildServer: %v", err)
	}
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	if srv.def.Current().Backing() != "mmap" {
		t.Skip("platform lacks zero-copy snapshots; nothing to corrupt in place")
	}
	genBefore := srv.def.Generation()

	good, err := os.ReadFile(indexPath)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the mapped inode in place (no truncation: the pages are live),
	// then republish the good bytes atomically. The path now holds a healthy
	// file while the serving mapping reads the flipped byte.
	f, err := os.OpenFile(indexPath, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{good[len(good)/2] ^ 0xff}, int64(len(good)/2)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	tmp := indexPath + ".tmp"
	if err := os.WriteFile(tmp, good, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, indexPath); err != nil {
		t.Fatal(err)
	}

	srv.verifySnapshot()
	var stats struct {
		Verify struct {
			Runs       int64 `json:"runs"`
			RolledBack int64 `json:"rolled_back"`
			LastOK     bool  `json:"last_ok"`
		} `json:"verify"`
		Snapshot struct {
			Generation uint64 `json:"generation"`
		} `json:"snapshot"`
	}
	getJSON(t, ts.URL+"/v1/graphs/default/stats", &stats)
	if stats.Verify.LastOK {
		t.Fatal("corrupted mapping passed verification")
	}
	if stats.Verify.RolledBack != 1 {
		t.Fatalf("rolled_back = %d, want 1", stats.Verify.RolledBack)
	}
	if stats.Snapshot.Generation != genBefore+1 {
		t.Fatalf("generation = %d, want %d (rollback must swap)", stats.Snapshot.Generation, genBefore+1)
	}

	// The rolled-back snapshot serves queries and verifies clean.
	var q struct {
		Support int `json:"support"`
	}
	getJSON(t, ts.URL+"/v1/graphs/default/query?u=3", &q)
	if q.Support == 0 {
		t.Fatal("query against rolled-back snapshot returned nothing")
	}
	srv.verifySnapshot()
	getJSON(t, ts.URL+"/v1/graphs/default/stats", &stats)
	if !stats.Verify.LastOK {
		t.Fatal("rolled-back snapshot failed verification")
	}
	if stats.Verify.RolledBack != 1 {
		t.Fatalf("rolled_back moved to %d after clean verify", stats.Verify.RolledBack)
	}
}
