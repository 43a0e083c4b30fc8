package core

import (
	"context"
	"math"
	"testing"

	"prsim/internal/powermethod"
)

func TestQueryPairMatchesExact(t *testing.T) {
	g := fixtureGraph()
	exact, err := powermethod.Compute(g, powermethod.Options{C: 0.6})
	if err != nil {
		t.Fatalf("powermethod: %v", err)
	}
	idx, err := BuildIndex(g, Options{Epsilon: 0.05, Delta: 0.01, NumHubs: 2, Seed: 9})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	pairs := [][2]int{{0, 1}, {1, 4}, {2, 5}, {3, 0}}
	for _, p := range pairs {
		got, err := idx.QueryPairCtx(context.Background(), p[0], p[1])
		if err != nil {
			t.Fatalf("QueryPairCtx(%d,%d): %v", p[0], p[1], err)
		}
		want := exact.At(p[0], p[1])
		if math.Abs(got-want) > 0.05 {
			t.Errorf("s(%d,%d): pair query %v, exact %v", p[0], p[1], got, want)
		}
	}
}

func TestQueryPairIdentityAndValidation(t *testing.T) {
	g := fixtureGraph()
	idx, err := BuildIndex(g, Options{Epsilon: 0.3, NumHubs: 1})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	if s, err := idx.QueryPairCtx(context.Background(), 2, 2); err != nil || s != 1 {
		t.Errorf("QueryPairCtx(v,v) = %v, %v; want 1, nil", s, err)
	}
	if _, err := idx.QueryPairCtx(context.Background(), -1, 0); err == nil {
		t.Errorf("invalid u should be an error")
	}
	if _, err := idx.QueryPairCtx(context.Background(), 0, 99); err == nil {
		t.Errorf("invalid v should be an error")
	}
}

func TestBuildIndexParallelMatchesSerial(t *testing.T) {
	g := largerTestGraph(300, 4, 11)
	serial, err := BuildIndex(g, Options{Epsilon: 0.05, NumHubs: 30, Parallelism: 1})
	if err != nil {
		t.Fatalf("serial build: %v", err)
	}
	parallel, err := BuildIndex(g, Options{Epsilon: 0.05, NumHubs: 30, Parallelism: 4})
	if err != nil {
		t.Fatalf("parallel build: %v", err)
	}
	if serial.SizeEntries() != parallel.SizeEntries() {
		t.Fatalf("entry counts differ: serial %d vs parallel %d",
			serial.SizeEntries(), parallel.SizeEntries())
	}
	if serial.Stats().Pushes != parallel.Stats().Pushes {
		t.Errorf("push counts differ: %d vs %d", serial.Stats().Pushes, parallel.Stats().Pushes)
	}
	for _, w := range serial.Hubs() {
		for level := 0; level < 20; level++ {
			a := serial.HubEntries(w, level)
			b := parallel.HubEntries(w, level)
			if len(a) != len(b) {
				t.Fatalf("hub %d level %d: %d vs %d entries", w, level, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Errorf("hub %d level %d entry %d: %+v vs %+v", w, level, i, a[i], b[i])
				}
			}
		}
	}
}
