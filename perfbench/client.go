package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// requestTimeout is the client deadline of every request.
const requestTimeout = 60 * time.Second

// httpTarget drives a prsimserve over /v1, checking the shape of every
// answer. It never holds more than two connections.
type httpTarget struct {
	base   string
	n      int // node count, for range checks
	client *http.Client
}

func newHTTPTarget(base string, n int) *httpTarget {
	tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}
	return &httpTarget{base: base, n: n, client: &http.Client{Transport: tr}}
}

func (h *httpTarget) close() { h.client.CloseIdleConnections() }

// do sends one request with the client deadline and returns the body of a
// 200 answer.
func (h *httpTarget) do(ctx context.Context, method, path string, body any) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, h.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// topkPath is the /topk request of one interactive read.
func topkPath(u int, kind reqKind, noCache bool) string {
	q := url.Values{}
	q.Set("u", strconv.Itoa(u))
	q.Set("k", strconv.Itoa(topK))
	q.Set("epsilon", strconv.FormatFloat(kind.epsilon(), 'g', -1, 64))
	q.Set("adaptive", map[bool]string{true: "on", false: "off"}[kind.adaptive()])
	if noCache {
		q.Set("nocache", "1")
	}
	return "/v1/graphs/default/topk?" + q.Encode()
}

// batchBody is the POST /query body of one batch read.
func batchBody(sources []int) map[string]any {
	return map[string]any{
		"sources": sources, "epsilon": batchEps, "adaptive": "off",
		"no_cache": true, "class": "batch", "limit": batchLimit,
	}
}

func (h *httpTarget) read(ctx context.Context, _ int, r read) (outcome, error) {
	if r.kind == kindBatch {
		body, err := h.do(ctx, http.MethodPost, "/v1/graphs/default/query", batchBody(r.sources))
		if err != nil {
			return outcome{}, err
		}
		_, err = checkBatch(body, r.sources, h.n)
		return outcome{bytes: len(body)}, err
	}
	u := r.sources[0]
	body, err := h.do(ctx, http.MethodGet, topkPath(u, r.kind, false), nil)
	if err != nil {
		return outcome{}, err
	}
	ans, err := checkTopK(body, u, h.n)
	return outcome{hit: ans.Cached || ans.Coalesced, bytes: len(body)}, err
}

func (h *httpTarget) update(ctx context.Context, _ int, e [2]int) error {
	body, err := h.do(ctx, http.MethodPost, "/v1/graphs/default/edges",
		map[string]any{"updates": []map[string]int{{"from": e[0], "to": e[1]}}})
	if err != nil {
		return err
	}
	var r struct {
		Status  string `json:"status"`
		Updates int    `json:"updates"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("edges: %v", err)
	}
	if r.Status != "applied" || r.Updates != 1 {
		return fmt.Errorf("edges: status %q with %d updates, want applied 1", r.Status, r.Updates)
	}
	return nil
}

// graphStats is the part of GET /v1/graphs/default/stats the benchmark
// reads.
type graphStats struct {
	Graph struct {
		Nodes int `json:"nodes"`
		Edges int `json:"edges"`
	} `json:"graph"`
	Index struct {
		Hubs             int    `json:"hubs"`
		Entries          int    `json:"entries"`
		UpdateGeneration uint64 `json:"update_generation"`
	} `json:"index"`
	Engine    map[string]float64 `json:"engine"`
	Mutations map[string]float64 `json:"mutations"`
}

func (h *httpTarget) stats(ctx context.Context) (*graphStats, error) {
	body, err := h.do(ctx, http.MethodGet, "/v1/graphs/default/stats", nil)
	if err != nil {
		return nil, err
	}
	var st graphStats
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, fmt.Errorf("stats: %v", err)
	}
	return &st, nil
}
