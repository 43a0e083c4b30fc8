package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzV1QueryBody posts arbitrary bytes as the JSON body of the /v1 query and
// topk routes of a 2-shard server over a 150-node snapshot. Whatever the
// body, the handler must not panic or answer 500, and every 200 must carry a
// body that decodes as a JSON object. The seeds are the bodies the /v1 tests
// send, valid and invalid.
func FuzzV1QueryBody(f *testing.F) {
	srv, _, _, _ := newV1Server(f, 2)
	h := srv.handler()
	for _, body := range []string{
		`{"u": 3}`,
		`{"u": 3, "epsilon": 0.75}`,
		`{"u": 5, "k": 4, "epsilon": 0.5, "timeout_ms": 5000}`,
		`{"sources": [1, 2], "epsilon": 0.5, "limit": 3}`,
		`{"sources": [0, 7, 42], "k": 5, "allow_partial": true}`,
		`{"u": 3, "parallelism": 4, "no_cache": true}`,
		`{"u": 1, "graph": "default"}`,
		`{"u": 1, "graph": "other"}`,
		`{"u": 4, "class": "interactive"}`,
		`{"u": 3, "epsilon": 0.5, "adaptive": "on"}`,
		`{"u": 3, "adaptive": "maybe"}`,
		`{"u": 3, "epsilon": 2}`,
		`{"u": 3, "epsilom": 0.5}`,
		`{"u": 3,`,
		``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, route := range []string{"/v1/graphs/default/query", "/v1/graphs/default/topk"} {
			req := httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			switch rec.Code {
			case http.StatusInternalServerError:
				t.Fatalf("POST %s %q: 500: %s", route, body, rec.Body.Bytes())
			case http.StatusOK:
				var out map[string]any
				if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
					t.Fatalf("POST %s %q: 200 with undecodable body %q: %v", route, body, rec.Body.Bytes(), err)
				}
			}
		}
	})
}
