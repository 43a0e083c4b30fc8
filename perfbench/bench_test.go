package main

import (
	"context"
	"encoding/json"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"

	"prsim/internal/core"
	"prsim/internal/gen"
)

// serverBin is a prsimserve built from this checkout for the tests.
var serverBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		panic(err)
	}
	serverBin = filepath.Join(dir, "prsimserve")
	out, err := exec.Command("go", "build", "-o", serverBin, "prsim/cmd/prsimserve").CombinedOutput()
	if err != nil {
		os.RemoveAll(dir)
		panic("build prsimserve: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func quick(t *testing.T, name string, trace bool) config {
	t.Helper()
	return config{workload: workloads[name], seed: 7, seconds: 1, trace: trace, scale: quickScale,
		server: serverBin, workdir: t.TempDir()}
}

// benchmarkSpec is the part of BENCHMARK.json the tests hold the output to.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestWorkloads runs every workload of BENCHMARK.json at quick scale, timed
// and traced. Each run must finish with zero failed operations, print
// exactly the metrics BENCHMARK.json names with their units, mark every
// per-layer metric as a count or a timing, and leave no server or
// temporary directory behind.
func TestWorkloads(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for _, wl := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			cfg := quick(t, wl.Name, trace)
			rp, res, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed %d of %d: %v", wl.Name, trace, res.Correct, res.Failed, res.Attempted, rp.Failures)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", wl.Name, trace, m.Name, got, m.Unit)
				}
			}
			if trace {
				kinds, _ := rp.Details["metric_kinds"].(map[string]string)
				for _, m := range want {
					if k := kinds[m.Name]; k != "count" && k != "timing" {
						t.Errorf("%s: per-layer metric %s marked %q, want count or timing", wl.Name, m.Name, k)
					}
				}
			}
			if len(running) != 0 {
				t.Errorf("%s trace=%v: %d servers still running", wl.Name, trace, len(running))
			}
			if left, _ := filepath.Glob(filepath.Join(cfg.workdir, "run-*")); len(left) != 0 {
				t.Errorf("%s trace=%v: temporary directories left: %v", wl.Name, trace, left)
			}
		}
	}
}

// TestReplayCountsRepeat checks that a single-caller traced replay of a
// fixed request count does the same work twice: the core layer's walks,
// backward-walk cost, index reads and rounds, and the hubs each update
// recomputes.
func TestReplayCountsRepeat(t *testing.T) {
	for _, c := range []struct {
		workload string
		counts   []string
	}{
		{"interactive", []string{"core.walks", "core.bw_cost", "core.index_entries", "core.rounds_ratio", "engine.computed_ratio"}},
		{"mixed", []string{"update.hubs_ratio", "update.entries_ratio"}},
	} {
		var first map[string]metric
		for i := 0; i < 2; i++ {
			cfg := quick(t, c.workload, true)
			cfg.callers, cfg.requests = 1, 400
			_, res, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				first = res.Metrics
				continue
			}
			for _, name := range c.counts {
				if a, b := first[name].Value, res.Metrics[name].Value; a != b || a == 0 {
					t.Errorf("%s %s: %v then %v, want the same nonzero count", c.workload, name, a, b)
				}
			}
		}
	}
}

// TestCheckerRejectsCorruptAnswers checks the oracle check on real answers
// and on two corruptions of them: all-zero estimates, which pass |error| ≤ ε
// because true scores are far below ε, and answers whose node ids are
// shuffled.
func TestCheckerRejectsCorruptAnswers(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawOptions{N: quickScale.nodes, AvgDegree: avgDegree, Gamma: gamma, Directed: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := core.BuildIndex(g.Clone(), indexOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	var real, zeroed, shuffled []answer
	rng := rand.New(rand.NewPCG(3, 3))
	for u := 0; len(real) < 6; u++ {
		if g.InDegree(u) == 0 {
			continue
		}
		var res core.Result
		if err := idx.QueryIntoOpts(context.Background(), u, &res, core.QueryOptions{}); err != nil {
			t.Fatal(err)
		}
		var top []scoredJSON
		for _, s := range res.TopK(topK) {
			top = append(top, scoredJSON{Node: s.Node, Score: s.Score})
		}
		if err := checkRanked(top, u, g.N()); err != nil {
			t.Fatalf("real answer for %d: %v", u, err)
		}
		real = append(real, answer{kind: "real", u: u, eps: buildEps, top: top})

		zero := make([]scoredJSON, len(top))
		for i, e := range top {
			zero[i] = scoredJSON{Node: e.Node}
		}
		if checkRanked(zero, u, g.N()) == nil {
			t.Errorf("shape check accepted zero scores for %d", u)
		}
		// All-zero estimates render as an empty ranking.
		zeroed = append(zeroed, answer{kind: "zeroed", u: u, eps: buildEps})

		mixed := make([]scoredJSON, len(top))
		for i, e := range top {
			v := rng.IntN(g.N())
			for v == u {
				v = rng.IntN(g.N())
			}
			mixed[i] = scoredJSON{Node: v, Score: e.Score}
		}
		sort.Slice(mixed, func(i, j int) bool {
			if mixed[i].Score != mixed[j].Score {
				return mixed[i].Score > mixed[j].Score
			}
			return mixed[i].Node < mixed[j].Node
		})
		shuffled = append(shuffled, answer{kind: "shuffled", u: u, eps: buildEps, top: mixed})
	}
	for _, c := range []struct {
		name    string
		answers []answer
		pass    bool
	}{{"real", real, true}, {"zeroed", zeroed, false}, {"shuffled", shuffled, false}} {
		acc, err := checkAccuracy(g, 3, c.answers)
		if err != nil {
			t.Fatal(err)
		}
		passed := len(acc.failures) == 0 && acc.precisionFailure == ""
		if passed != c.pass {
			t.Errorf("%s answers: passed=%v (precision %.2f, failures %v %q), want %v",
				c.name, passed, acc.precision, acc.failures, acc.precisionFailure, c.pass)
		}
	}
}
