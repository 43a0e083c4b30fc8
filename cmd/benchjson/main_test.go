package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: prsim
cpu: AMD EPYC 7B13
BenchmarkQueryThroughput-8   	     100	  10563000 ns/op	  760000 B/op	      82 allocs/op
BenchmarkQueryInto-8         	     150	   9800000 ns/op
PASS
ok  	prsim	3.210s
pkg: prsim/internal/core
BenchmarkLoadIndex-8         	       5	 240000000 ns/op	36.50 MB/s
PASS
ok  	prsim/internal/core	2.110s
`

func TestParse(t *testing.T) {
	report, err := parse(strings.NewReader(sample), false)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(report.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(report.Benchmarks))
	}
	b := report.Benchmarks[0]
	if b.Name != "BenchmarkQueryThroughput-8" || b.Pkg != "prsim" {
		t.Errorf("first benchmark = %q pkg %q", b.Name, b.Pkg)
	}
	if b.Runs != 100 || b.NsPerOp != 10563000 {
		t.Errorf("first benchmark runs/ns = %d/%v", b.Runs, b.NsPerOp)
	}
	if b.Metrics["B/op"] != 760000 || b.Metrics["allocs/op"] != 82 {
		t.Errorf("first benchmark metrics = %v", b.Metrics)
	}
	if report.Benchmarks[1].Metrics != nil {
		t.Errorf("ns/op-only line should have no extra metrics: %v", report.Benchmarks[1].Metrics)
	}
	last := report.Benchmarks[2]
	if last.Pkg != "prsim/internal/core" {
		t.Errorf("pkg tracking across blocks: got %q", last.Pkg)
	}
	if last.Metrics["MB/s"] != 36.50 {
		t.Errorf("custom metric MB/s = %v", last.Metrics["MB/s"])
	}
	if report.GoVersion == "" || report.GOOS == "" || report.GOARCH == "" {
		t.Errorf("environment fields missing: %+v", report)
	}
}

// TestParseFoldsCount: the lines one benchmark prints under -count fold
// into one result holding the median of every column and the sample count,
// in first-appearance order; a benchmark of the same name in another
// package stays separate.
func TestParseFoldsCount(t *testing.T) {
	const counted = `pkg: prsim
BenchmarkRangeCoalescing-2   	 4000000	       300 ns/op	      64 B/op	       2 allocs/op
BenchmarkQueryInto-2         	     100	  10000000 ns/op
BenchmarkRangeCoalescing-2   	 3000000	       462 ns/op	      64 B/op	       2 allocs/op
BenchmarkQueryInto-2         	     120	   9000000 ns/op
BenchmarkRangeCoalescing-2   	 5000000	       249 ns/op	      64 B/op	       3 allocs/op
BenchmarkRangeCoalescing-2   	 4000000	       310 ns/op	      64 B/op	       2 allocs/op
BenchmarkRangeCoalescing-2   	 4000000	       305 ns/op	      64 B/op	       2 allocs/op
pkg: prsim/internal/engine
BenchmarkQueryInto-2         	      50	  20000000 ns/op
`
	report, err := parse(strings.NewReader(counted), false)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(report.Benchmarks) != 3 {
		t.Fatalf("folded into %d benchmarks, want 3: %+v", len(report.Benchmarks), report.Benchmarks)
	}
	rc := report.Benchmarks[0]
	if rc.Name != "BenchmarkRangeCoalescing-2" || rc.Samples != 5 || rc.NsPerOp != 305 || rc.Runs != 4000000 {
		t.Errorf("RangeCoalescing = %+v, want 5 samples, median 305 ns/op over 4000000 runs", rc)
	}
	if rc.Metrics["B/op"] != 64 || rc.Metrics["allocs/op"] != 2 {
		t.Errorf("RangeCoalescing metrics = %v, want medians 64 B/op, 2 allocs/op", rc.Metrics)
	}
	qi := report.Benchmarks[1]
	if qi.Pkg != "prsim" || qi.Samples != 2 || qi.NsPerOp != 9500000 || qi.Runs != 110 || qi.Metrics != nil {
		t.Errorf("QueryInto = %+v, want 2 samples with median 9500000 ns/op over 110 runs", qi)
	}
	if eq := report.Benchmarks[2]; eq.Pkg != "prsim/internal/engine" || eq.Samples != 1 || eq.NsPerOp != 20000000 {
		t.Errorf("engine QueryInto = %+v, want its own single sample", eq)
	}
}

func TestParseIgnoresNoise(t *testing.T) {
	noise := `Benchmark
BenchmarkBroken-8 notanumber 5 ns/op
BenchmarkOdd-8 10 5
--- FAIL: TestSomething
FAIL
`
	report, err := parse(strings.NewReader(noise), false)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(report.Benchmarks) != 0 {
		t.Fatalf("noise lines produced %d benchmarks: %+v", len(report.Benchmarks), report.Benchmarks)
	}
}

func reportOf(rs ...Result) *Report { return &Report{Benchmarks: rs} }

func TestCompareReports(t *testing.T) {
	base := reportOf(
		Result{Pkg: "prsim", Name: "BenchmarkSingleSourceQuery-8", NsPerOp: 1000},
		Result{Pkg: "prsim", Name: "BenchmarkOpenSnapshotMmap-8", NsPerOp: 500},
		Result{Pkg: "prsim", Name: "BenchmarkIndexBuild-8", NsPerOp: 100},
		Result{Pkg: "prsim", Name: "BenchmarkRemoved-8", NsPerOp: 10},
	)
	head := reportOf(
		Result{Pkg: "prsim", Name: "BenchmarkSingleSourceQuery-8", NsPerOp: 1100}, // +10%, under gate
		Result{Pkg: "prsim", Name: "BenchmarkOpenSnapshotMmap-8", NsPerOp: 900},   // +80%, over gate
		Result{Pkg: "prsim", Name: "BenchmarkIndexBuild-8", NsPerOp: 1000},        // +900% but not matched
		Result{Pkg: "prsim", Name: "BenchmarkNew-8", NsPerOp: 42},                 // new, never gated
	)
	gate := regexp.MustCompile(`Query|Snapshot`)
	rows := compareReports(base, head, 20, gate)
	byName := map[string]comparison{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	if c := byName["prsim BenchmarkSingleSourceQuery-8"]; c.Regressed || !c.Gated {
		t.Errorf("query +10%% should pass the 20%% gate: %+v", c)
	}
	if c := byName["prsim BenchmarkOpenSnapshotMmap-8"]; !c.Regressed {
		t.Errorf("snapshot open +80%% should fail the gate: %+v", c)
	}
	if c := byName["prsim BenchmarkIndexBuild-8"]; c.Regressed || c.Gated {
		t.Errorf("unmatched benchmark must not be gated: %+v", c)
	}
	if c := byName["prsim BenchmarkNew-8"]; c.onlyIn != "head" {
		t.Errorf("new benchmark should report only-in-head: %+v", c)
	}
	if c := byName["prsim BenchmarkRemoved-8"]; c.onlyIn != "base" {
		t.Errorf("removed benchmark should report only-in-base: %+v", c)
	}
	if !rows[0].Regressed {
		t.Errorf("regressions must sort first, got %+v", rows[0])
	}
}

func TestRunCompareExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, r *Report) string {
		p := filepath.Join(dir, name)
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("base.json", reportOf(Result{Pkg: "prsim", Name: "BenchmarkSingleSourceQuery-8", NsPerOp: 1000}))
	good := write("good.json", reportOf(Result{Pkg: "prsim", Name: "BenchmarkSingleSourceQuery-8", NsPerOp: 1100}))
	bad := write("bad.json", reportOf(Result{Pkg: "prsim", Name: "BenchmarkSingleSourceQuery-8", NsPerOp: 2000}))

	var out strings.Builder
	code, err := runCompare(&out, base, good, 20, "Query")
	if err != nil || code != 0 {
		t.Fatalf("good compare = code %d err %v\n%s", code, err, out.String())
	}
	out.Reset()
	code, err = runCompare(&out, base, bad, 20, "Query")
	if err != nil || code != 1 {
		t.Fatalf("bad compare = code %d err %v\n%s", code, err, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("verdict table missing REGRESSION marker:\n%s", out.String())
	}
	if _, err := runCompare(&out, filepath.Join(dir, "missing.json"), good, 20, ""); err == nil {
		t.Error("missing base file should error")
	}
}
