package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prsim"
)

// newV1Server boots a self-contained server with the given shard count and
// returns it with its snapshot path (for mounting more graphs and reloading).
func newV1Server(t testing.TB, shards int) (*server, *httptest.Server, *prsim.Graph, string) {
	t.Helper()
	g, err := prsim.GeneratePowerLawGraph(150, 6, 2.5, true, 5)
	if err != nil {
		t.Fatalf("GeneratePowerLawGraph: %v", err)
	}
	path := filepath.Join(t.TempDir(), "idx.prsim")
	writeSnapshot(t, g, path, 1)
	srv, err := buildServer(config{
		loadIndex: path,
		shards:    shards,
		workers:   2,
		cacheSize: 16,
		timeout:   10 * time.Second,
	})
	if err != nil {
		t.Fatalf("buildServer: %v", err)
	}
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { close(srv.stop) })
	return srv, ts, g, path
}

// TestV1Routes drives the graph-scoped /v1 surface end to end.
func TestV1Routes(t *testing.T) {
	_, ts, _, _ := newV1Server(t, 2)

	var res queryResultJSON
	resp := getJSON(t, ts.URL+"/v1/graphs/default/query?u=3", &res)
	if resp.StatusCode != http.StatusOK || res.Source != 3 || res.Support == 0 {
		t.Fatalf("v1 query = %d %+v", resp.StatusCode, res)
	}

	// Batch, top-k, pair, stats, list, healthz.
	var batch struct {
		Results []queryResultJSON `json:"results"`
	}
	if r := getJSON(t, ts.URL+"/v1/graphs/default/query?u=1&u=7", &batch); r.StatusCode != http.StatusOK || len(batch.Results) != 2 {
		t.Fatalf("v1 batch = %d %d results", r.StatusCode, len(batch.Results))
	}
	var top struct {
		Source int              `json:"source"`
		Top    []scoredNodeJSON `json:"top"`
	}
	if r := getJSON(t, ts.URL+"/v1/graphs/default/topk?u=5&k=4", &top); r.StatusCode != http.StatusOK || top.Source != 5 || len(top.Top) == 0 {
		t.Fatalf("v1 topk = %d %+v", r.StatusCode, top)
	}
	var pair struct {
		Score float64 `json:"score"`
	}
	if r := getJSON(t, ts.URL+"/v1/graphs/default/pair?u=4&v=4", &pair); r.StatusCode != http.StatusOK || pair.Score != 1 {
		t.Fatalf("v1 pair = %d %+v", r.StatusCode, pair)
	}
	var stats struct {
		Name   string         `json:"name"`
		Engine map[string]any `json:"engine"`
		Shards []map[string]any
	}
	if r := getJSON(t, ts.URL+"/v1/graphs/default/stats", &stats); r.StatusCode != http.StatusOK || stats.Name != "default" {
		t.Fatalf("v1 stats = %d %+v", r.StatusCode, stats)
	}
	if stats.Engine["shards"] != float64(2) {
		t.Errorf("stats shards = %v, want 2", stats.Engine["shards"])
	}
	var list struct {
		Graphs []map[string]any `json:"graphs"`
	}
	if r := getJSON(t, ts.URL+"/v1/graphs", &list); r.StatusCode != http.StatusOK || len(list.Graphs) != 1 {
		t.Fatalf("v1 list = %d %+v", r.StatusCode, list)
	}
	if list.Graphs[0]["name"] != "default" || list.Graphs[0]["shards"] != float64(2) {
		t.Errorf("v1 list entry = %+v", list.Graphs[0])
	}
	var health map[string]any
	if r := getJSON(t, ts.URL+"/v1/healthz", &health); r.StatusCode != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("v1 healthz = %d %v", r.StatusCode, health)
	}
	var server struct {
		Graphs map[string]any `json:"graphs"`
	}
	if r := getJSON(t, ts.URL+"/v1/stats", &server); r.StatusCode != http.StatusOK || len(server.Graphs) != 1 {
		t.Fatalf("v1 server stats = %d %+v", r.StatusCode, server)
	}
}

// TestV1MultiSourceTopK checks the scatter-gather merge endpoint: several
// sources, one global top-k, deterministic across shard counts.
func TestV1MultiSourceTopK(t *testing.T) {
	bodies := make(map[int]string)
	for _, shards := range []int{1, 4} {
		_, ts, _, _ := newV1Server(t, shards)
		resp, err := http.Get(ts.URL + "/v1/graphs/default/topk?u=5&u=9&u=17&k=6")
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%d shards: status %d (%s)", shards, resp.StatusCode, raw)
		}
		bodies[shards] = string(raw)

		var out struct {
			Sources []int            `json:"sources"`
			K       int              `json:"k"`
			Top     []scoredNodeJSON `json:"top"`
		}
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		if len(out.Sources) != 3 || out.K != 6 || len(out.Top) == 0 || len(out.Top) > 6 {
			t.Fatalf("%d shards: merged topk = %+v", shards, out)
		}
		for i := 1; i < len(out.Top); i++ {
			prev, cur := out.Top[i-1], out.Top[i]
			if cur.Score > prev.Score || (cur.Score == prev.Score && cur.Node < prev.Node) {
				t.Fatalf("%d shards: merged topk out of order at %d: %+v", shards, i, out.Top)
			}
		}
	}
	// Same snapshot seed, same sources: the merged answer must be
	// byte-identical regardless of how many shards computed it.
	if bodies[1] != bodies[4] {
		t.Errorf("merged topk differs across shard counts:\n%s\n%s", bodies[1], bodies[4])
	}
}

// TestV1ShardedBatchParity pins the bit-transparency of sharding at the HTTP
// layer: the same batch query against 1-shard and 4-shard servers over the
// same snapshot must render byte-identically.
func TestV1ShardedBatchParity(t *testing.T) {
	const path = "/v1/graphs/default/query?u=0&u=1&u=42&u=99&u=149&u=42&epsilon=0.5&nocache=1"
	bodies := make(map[int]string)
	for _, shards := range []int{1, 4} {
		_, ts, _, _ := newV1Server(t, shards)
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%d shards: status %d (%s)", shards, resp.StatusCode, raw)
		}
		bodies[shards] = string(raw)
	}
	if bodies[1] != bodies[4] {
		t.Errorf("batch answers differ across shard counts:\n%s\n%s", bodies[1], bodies[4])
	}
}

// TestV1GraphResolution covers the routing errors: unknown graph names 404
// with the typed code, and a body graph contradicting the path is a client
// error.
func TestV1GraphResolution(t *testing.T) {
	_, ts, _, _ := newV1Server(t, 1)

	var envelope struct {
		Error errorJSON `json:"error"`
	}
	resp := getJSON(t, ts.URL+"/v1/graphs/nope/query?u=1", &envelope)
	if resp.StatusCode != http.StatusNotFound || envelope.Error.Code != codeUnknownGraph {
		t.Fatalf("unknown graph = %d %+v", resp.StatusCode, envelope.Error)
	}
	resp = getJSON(t, ts.URL+"/v1/graphs/nope/stats", &envelope)
	if resp.StatusCode != http.StatusNotFound || envelope.Error.Code != codeUnknownGraph {
		t.Fatalf("unknown graph stats = %d %+v", resp.StatusCode, envelope.Error)
	}

	r := postJSON(t, ts.URL+"/v1/graphs/default/query", `{"u": 1, "graph": "other"}`, &envelope)
	if r.StatusCode != http.StatusBadRequest || envelope.Error.Code != codeInvalidArgument {
		t.Fatalf("graph mismatch = %d %+v", r.StatusCode, envelope.Error)
	}

	resp = getJSON(t, ts.URL+"/v1/graphs/default/query?u=1&graph=other", &envelope)
	if resp.StatusCode != http.StatusBadRequest || envelope.Error.Code != codeInvalidArgument {
		t.Fatalf("graph parameter mismatch = %d %+v", resp.StatusCode, envelope.Error)
	}

	// A graph knob that repeats the path is accepted.
	var res queryResultJSON
	if r := postJSON(t, ts.URL+"/v1/graphs/default/query", `{"u": 1, "graph": "default"}`, &res); r.StatusCode != http.StatusOK || res.Source != 1 {
		t.Fatalf("body graph matching the path = %d %+v", r.StatusCode, res)
	}
}

// TestV1ClassKnob checks the admission-class knob on both transports and its
// per-class stats accounting; an unknown class is a client error.
func TestV1ClassKnob(t *testing.T) {
	_, ts, _, _ := newV1Server(t, 1)

	var res queryResultJSON
	if r := getJSON(t, ts.URL+"/v1/graphs/default/query?u=3&class=batch", &res); r.StatusCode != http.StatusOK {
		t.Fatalf("class=batch query = %d", r.StatusCode)
	}
	if r := postJSON(t, ts.URL+"/v1/graphs/default/query", `{"u": 4, "class": "interactive"}`, &res); r.StatusCode != http.StatusOK {
		t.Fatalf("class=interactive POST = %d", r.StatusCode)
	}

	var stats struct {
		Classes struct {
			Interactive map[string]float64 `json:"interactive"`
			Batch       map[string]float64 `json:"batch"`
		} `json:"classes"`
	}
	getJSON(t, ts.URL+"/v1/graphs/default/stats", &stats)
	if stats.Classes.Batch["queries"] < 1 {
		t.Errorf("batch queries = %v, want >= 1", stats.Classes.Batch["queries"])
	}
	if stats.Classes.Interactive["queries"] < 1 {
		t.Errorf("interactive queries = %v, want >= 1", stats.Classes.Interactive["queries"])
	}

	var envelope struct {
		Error errorJSON `json:"error"`
	}
	resp := getJSON(t, ts.URL+"/v1/graphs/default/query?u=3&class=bulk", &envelope)
	if resp.StatusCode != http.StatusBadRequest || envelope.Error.Code != codeInvalidArgument {
		t.Fatalf("bad class = %d %+v", resp.StatusCode, envelope.Error)
	}
}

// TestV1MountUnmount drives the admin plane: mount a second graph from a
// snapshot, query and reload it, then unmount it; the default graph is
// protected, and admin mistakes get typed errors.
func TestV1MountUnmount(t *testing.T) {
	_, ts, _, _ := newV1Server(t, 1)

	// A second, structurally different graph published as a snapshot.
	g2, err := prsim.GeneratePowerLawGraph(90, 5, 2.5, true, 7)
	if err != nil {
		t.Fatal(err)
	}
	path2 := filepath.Join(t.TempDir(), "second.prsim")
	writeSnapshot(t, g2, path2, 3)

	put := func(url, body string) (*http.Response, map[string]any) {
		req, err := http.NewRequest(http.MethodPut, url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var out map[string]any
		json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		return resp, out
	}

	resp, body := put(ts.URL+"/v1/graphs/second", fmt.Sprintf(`{"snapshot": %q, "shards": 2}`, path2))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("mount = %d %v", resp.StatusCode, body)
	}
	if body["nodes"] != float64(90) || body["shards"] != float64(2) {
		t.Errorf("mount body = %v", body)
	}

	var list struct {
		Graphs []map[string]any `json:"graphs"`
	}
	getJSON(t, ts.URL+"/v1/graphs", &list)
	if len(list.Graphs) != 2 {
		t.Fatalf("list after mount = %+v", list.Graphs)
	}

	var res queryResultJSON
	if r := getJSON(t, ts.URL+"/v1/graphs/second/query?u=3", &res); r.StatusCode != http.StatusOK || res.Support == 0 {
		t.Fatalf("query on mounted graph = %d %+v", r.StatusCode, res)
	}

	// Reload the runtime-mounted graph: republish and POST reload.
	writeSnapshot(t, g2, path2, 4)
	var reload map[string]any
	if r := postJSON(t, ts.URL+"/v1/graphs/second/reload", "", &reload); r.StatusCode != http.StatusOK || reload["generation"] != float64(1) {
		t.Fatalf("reload mounted graph = %d %v", r.StatusCode, reload)
	}

	// Admin mistakes: duplicate mount, bad name, missing snapshot, unmounting
	// the default graph.
	if resp, _ := put(ts.URL+"/v1/graphs/second", fmt.Sprintf(`{"snapshot": %q}`, path2)); resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate mount = %d, want 409", resp.StatusCode)
	}
	if resp, _ := put(ts.URL+"/v1/graphs/bad%2Fname", `{"snapshot": "x"}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad name mount = %d, want 400", resp.StatusCode)
	}
	if resp, _ := put(ts.URL+"/v1/graphs/third", `{}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing snapshot mount = %d, want 400", resp.StatusCode)
	}
	del := func(url string) *http.Response {
		req, _ := http.NewRequest(http.MethodDelete, url, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	if resp := del(ts.URL + "/v1/graphs/default"); resp.StatusCode != http.StatusConflict {
		t.Errorf("unmount default = %d, want 409", resp.StatusCode)
	}
	if resp := del(ts.URL + "/v1/graphs/second"); resp.StatusCode != http.StatusOK {
		t.Errorf("unmount second = %d, want 200", resp.StatusCode)
	}
	if resp := del(ts.URL + "/v1/graphs/second"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("double unmount = %d, want 404", resp.StatusCode)
	}
	var env struct {
		Error errorJSON `json:"error"`
	}
	if r := getJSON(t, ts.URL+"/v1/graphs/second/query?u=1", &env); r.StatusCode != http.StatusNotFound || env.Error.Code != codeUnknownGraph {
		t.Fatalf("query after unmount = %d %+v", r.StatusCode, env.Error)
	}
}

// TestServeMultiGraphReloadUnderLoad is the multi-tenant zero-downtime
// guarantee: clients hammer two independently mounted graphs while both are
// republished and reloaded; not a single request may fail, and each graph
// ends at the expected generation. Run under -race in CI.
func TestServeMultiGraphReloadUnderLoad(t *testing.T) {
	srv, ts, g, path := newV1Server(t, 2)

	g2, err := prsim.GeneratePowerLawGraph(90, 5, 2.5, true, 7)
	if err != nil {
		t.Fatal(err)
	}
	path2 := filepath.Join(t.TempDir(), "second.prsim")
	writeSnapshot(t, g2, path2, 3)
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/graphs/second",
		strings.NewReader(fmt.Sprintf(`{"snapshot": %q, "shards": 2}`, path2)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("mount second = %d", resp.StatusCode)
	}

	const clients = 4
	var failures, requests atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			urls := []string{
				ts.URL + "/v1/graphs/default/query?u=" + strconv.Itoa(c*17%150),
				ts.URL + "/v1/graphs/second/topk?u=" + strconv.Itoa(c*31%90) + "&k=5",
				ts.URL + "/v1/graphs/second/query?u=" + strconv.Itoa(c*13%90) + "&class=batch",
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

	const reloads = 2
	for r := 1; r <= reloads; r++ {
		writeSnapshot(t, g, path, uint64(r+10))
		writeSnapshot(t, g2, path2, uint64(r+20))
		for _, target := range []string{"/v1/graphs/default/reload", "/v1/graphs/second/reload"} {
			resp, err := http.Post(ts.URL+target, "", nil)
			if err != nil {
				t.Fatalf("POST %s: %v", target, err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("POST %s status = %d", target, resp.StatusCode)
			}
		}
	}
	close(done)
	wg.Wait()

	if f := failures.Load(); f != 0 {
		t.Fatalf("%d of %d requests failed across %d dual reloads", f, requests.Load(), reloads)
	}
	if requests.Load() == 0 {
		t.Fatal("no requests completed; load generator never ran")
	}
	if gen := srv.def.Generation(); gen != reloads {
		t.Errorf("default generation = %d, want %d", gen, reloads)
	}
	second, err := srv.reg.Get("second")
	if err != nil {
		t.Fatal(err)
	}
	if gen := second.Generation(); gen != reloads {
		t.Errorf("second generation = %d, want %d", gen, reloads)
	}
}

// TestHTTPSurfaceSnapshot pins the HTTP surface: the exact route patterns and
// the error-code vocabulary. Adding a route
// or code is fine — update the snapshot deliberately; changing or removing
// one is an API break this test is meant to catch.
func TestHTTPSurfaceSnapshot(t *testing.T) {
	srv, _, _, _ := newV1Server(t, 1)

	want := []string{
		"GET /v1/graphs/{graph}/query",
		"POST /v1/graphs/{graph}/query",
		"GET /v1/graphs/{graph}/topk",
		"POST /v1/graphs/{graph}/topk",
		"GET /v1/graphs/{graph}/pair",
		"GET /v1/graphs/{graph}/stats",
		"GET /v1/graphs/{graph}/health",
		"POST /v1/graphs/{graph}/edges",
		"POST /v1/graphs/{graph}/reload",
		"GET /v1/graphs",
		"PUT /v1/graphs/{graph}",
		"DELETE /v1/graphs/{graph}",
		"GET /v1/stats",
		"GET /v1/healthz",
		"GET /healthz",
	}
	var got []string
	for _, rt := range srv.routes() {
		got = append(got, rt.pattern)
	}
	if len(got) != len(want) {
		t.Fatalf("route table has %d entries, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("route %d = %q, want %q", i, got[i], want[i])
		}
	}

	codes := []string{
		codeOverloaded, codeInvalidNode, codeInvalidEpsilon, codeInvalidArgument,
		codeDeadlineExceeded, codeUnknownGraph, codeConflict, codeInternal,
		codeUnauthorized, codeShardUnavailable,
	}
	wantCodes := []string{
		"overloaded", "invalid_node", "invalid_epsilon", "invalid_argument",
		"deadline_exceeded", "unknown_graph", "conflict", "internal",
		"unauthorized", "shard_unavailable",
	}
	for i, c := range codes {
		if c != wantCodes[i] {
			t.Errorf("error code %d = %q, want %q", i, c, wantCodes[i])
		}
	}
}

// adaptiveEnvelope is the single-source /query envelope with the adaptive
// metadata fields.
type adaptiveEnvelope struct {
	queryResultJSON
	Epsilon           float64 `json:"epsilon"`
	EpsilonEffective  float64 `json:"epsilon_effective"`
	Cached            bool    `json:"cached"`
	Coalesced         bool    `json:"coalesced"`
	ServedFromTighter bool    `json:"served_from_tighter"`
}

// TestV1Adaptive drives the adaptive request knob over HTTP: per-request
// on/off over both transports, bit-parity of adaptive=off with the default
// path, range coalescing serving a looser request from a tighter cached
// answer (echoing the requested epsilon, reporting the served one), the
// adaptive counters in graph stats, and rejection of bad spellings.
func TestV1Adaptive(t *testing.T) {
	_, ts, _, _ := newV1Server(t, 1) // build epsilon 0.3

	// adaptive=off must be byte-identical to the default path (the server
	// boots with no -adaptive flag, so auto resolves to off).
	var def, off adaptiveEnvelope
	if r := getJSON(t, ts.URL+"/v1/graphs/default/query?u=3&nocache=1", &def); r.StatusCode != http.StatusOK {
		t.Fatalf("default query = %d", r.StatusCode)
	}
	if r := getJSON(t, ts.URL+"/v1/graphs/default/query?u=3&nocache=1&adaptive=off", &off); r.StatusCode != http.StatusOK {
		t.Fatalf("adaptive=off query = %d", r.StatusCode)
	}
	a, _ := json.Marshal(def.Scores)
	b, _ := json.Marshal(off.Scores)
	if string(a) != string(b) {
		t.Errorf("adaptive=off diverges from default:\n%s\n%s", a, b)
	}

	// Adaptive on, tight epsilon: computed and cached at 0.5.
	var tight adaptiveEnvelope
	if r := postJSON(t, ts.URL+"/v1/graphs/default/query", `{"u": 3, "epsilon": 0.5, "adaptive": "on"}`, &tight); r.StatusCode != http.StatusOK {
		t.Fatalf("adaptive tight query = %d", r.StatusCode)
	}
	if tight.Epsilon != 0.5 || tight.EpsilonEffective != 0.5 || tight.ServedFromTighter {
		t.Fatalf("tight envelope = %+v", tight)
	}

	// A looser adaptive request for the same source is served from the
	// tighter cached answer: requested epsilon echoed, served one reported.
	var loose adaptiveEnvelope
	if r := postJSON(t, ts.URL+"/v1/graphs/default/query", `{"u": 3, "epsilon": 0.8, "adaptive": "on"}`, &loose); r.StatusCode != http.StatusOK {
		t.Fatalf("adaptive loose query = %d", r.StatusCode)
	}
	if !loose.Cached || !loose.ServedFromTighter || loose.Epsilon != 0.8 || loose.EpsilonEffective != 0.5 {
		t.Fatalf("loose envelope = %+v", loose)
	}
	la, _ := json.Marshal(loose.Scores)
	ta, _ := json.Marshal(tight.Scores)
	if string(la) != string(ta) {
		t.Errorf("range-coalesced answer diverges from the tight one")
	}

	// The adaptive counters surface in graph stats.
	var stats struct {
		Engine map[string]any `json:"engine"`
	}
	if r := getJSON(t, ts.URL+"/v1/graphs/default/stats", &stats); r.StatusCode != http.StatusOK {
		t.Fatalf("stats = %d", r.StatusCode)
	}
	if stats.Engine["range_coalesced"] != float64(1) {
		t.Errorf("range_coalesced = %v, want 1", stats.Engine["range_coalesced"])
	}
	if rb, re := stats.Engine["rounds_budget"].(float64), stats.Engine["rounds_executed"].(float64); rb <= 0 || re <= 0 || re > rb {
		t.Errorf("rounds executed/budget = %v/%v", re, rb)
	}
	// Whether the stop rule fires on this tiny test snapshot depends on its
	// per-round sample counts (early stopping itself is pinned by the core
	// and engine suites); here only the counter's presence is contractual.
	if _, ok := stats.Engine["early_stops"].(float64); !ok {
		t.Errorf("early_stops missing from engine stats: %v", stats.Engine["early_stops"])
	}

	// topk carries the adaptive metadata too.
	var top struct {
		EpsilonEffective  float64 `json:"epsilon_effective"`
		ServedFromTighter bool    `json:"served_from_tighter"`
	}
	if r := getJSON(t, ts.URL+"/v1/graphs/default/topk?u=3&k=4&epsilon=0.9&adaptive=on", &top); r.StatusCode != http.StatusOK {
		t.Fatalf("adaptive topk = %d", r.StatusCode)
	}
	if !top.ServedFromTighter || top.EpsilonEffective != 0.5 {
		t.Errorf("adaptive topk envelope = %+v", top)
	}

	// Bad spellings are rejected on both transports.
	if r := getJSON(t, ts.URL+"/v1/graphs/default/query?u=3&adaptive=bogus", nil); r.StatusCode != http.StatusBadRequest {
		t.Errorf("adaptive=bogus GET = %d, want 400", r.StatusCode)
	}
	if r := postJSON(t, ts.URL+"/v1/graphs/default/query", `{"u": 3, "adaptive": "maybe"}`, nil); r.StatusCode != http.StatusBadRequest {
		t.Errorf("adaptive=maybe POST = %d, want 400", r.StatusCode)
	}
}
