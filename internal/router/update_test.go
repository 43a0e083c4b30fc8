package router

import (
	"context"
	"testing"

	"prsim/internal/core"
	"prsim/internal/engine"
	"prsim/internal/graph"
)

// TestServedUpdateSwapsAllShards pins the in-memory mutation seam: Update
// installs an ApplyUpdates successor on every shard without an Opener round
// trip, answers are bit-identical to direct queries on the successor, and the
// generation advances in lockstep.
func TestServedUpdateSwapsAllShards(t *testing.T) {
	idx := testIndex(t, 200)
	ctx := context.Background()
	closed := 0
	s, err := newServed(Config{
		Shards: 3,
		Engine: engine.Options{Workers: 2, CacheSize: 16},
		Open: func() (Opened, error) {
			return Opened{Index: idx, Close: func() error { closed++; return nil }, Tag: "base"}, nil
		},
	})
	if err != nil {
		t.Fatalf("newServed: %v", err)
	}
	defer s.Close()

	sources := []int{0, 3, 42, 150, 199}
	for _, u := range sources {
		if _, err := s.Do(ctx, Request{Source: u}); err != nil {
			t.Fatalf("Do(%d): %v", u, err)
		}
	}

	nidx, st, err := idx.ApplyUpdates([]graph.EdgeUpdate{{From: 10, To: 180}})
	if err != nil {
		t.Fatalf("ApplyUpdates: %v", err)
	}
	if err := s.Update(Opened{Index: nidx, Tag: "updated"}, st); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if closed != 1 {
		t.Errorf("previous backing closed %d times, want 1", closed)
	}
	if tag := s.Current(); tag != "updated" {
		t.Errorf("Current tag = %v, want %q", tag, "updated")
	}
	if gen := s.Generation(); gen != 1 {
		t.Errorf("generation = %d, want 1", gen)
	}
	for i := 0; i < s.NumShards(); i++ {
		if got := s.Engine(i).Index(); got != nidx {
			t.Fatalf("shard %d serves a stale index after Update", i)
		}
	}
	// Bit-parity of fresh computations against the successor; NoCache skips
	// any entries the impact filter retained (those are the predecessor's
	// ε-faithful answers, pinned by the engine's own tests).
	for _, u := range sources {
		resp, err := s.Do(ctx, Request{Source: u, NoCache: true})
		if err != nil {
			t.Fatalf("Do(%d) after update: %v", u, err)
		}
		var want core.Result
		if err := nidx.QueryIntoOpts(ctx, u, &want, core.QueryOptions{}); err != nil {
			t.Fatalf("QueryIntoOpts(%d): %v", u, err)
		}
		if len(resp.Result.Scores) != len(want.Scores) {
			t.Fatalf("source %d: support %d, want %d", u, len(resp.Result.Scores), len(want.Scores))
		}
		for v, sc := range want.Scores {
			if resp.Result.Scores[v] != sc {
				t.Fatalf("source %d node %d: %v, want %v", u, v, resp.Result.Scores[v], sc)
			}
		}
	}

	// Updating a closed graph fails and closes the offered backing.
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	offered := 0
	err = s.Update(Opened{Index: nidx, Close: func() error { offered++; return nil }}, nil)
	if err == nil {
		t.Fatalf("Update on a closed graph succeeded")
	}
	if offered != 1 {
		t.Errorf("offered backing closed %d times, want 1", offered)
	}
}
