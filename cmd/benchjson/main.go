// Command benchjson converts `go test -bench` output into a machine-readable
// JSON report, so CI can archive one benchmark artifact per commit and the
// performance trajectory of the repo stays diffable — and compares two such
// reports so CI can fail on regressions.
//
// Usage:
//
//	go test -bench . -benchtime 50ms -count 5 -timeout 30m -run '^$' ./... | benchjson -o BENCH_ci.json
//	go test -bench . ./... | benchjson          # JSON to stdout
//	benchjson -compare -max-regress 20 -match 'Query|Snapshot' base.json head.json
//
// It parses the standard benchmark result lines, e.g.
//
//	pkg: prsim
//	BenchmarkQueryThroughput-8   	 100	  10563000 ns/op	  760000 B/op	      82 allocs/op
//
// keeping every extra metric column (B/op, allocs/op, and any custom
// ReportMetric units) in a per-benchmark metrics map. The lines one
// benchmark prints under -count N are folded into one result holding the
// median of each column, with the sample count alongside. Non-benchmark
// lines are passed through to stderr with -echo, so the tool can sit in a
// pipeline without hiding test failures.
//
// In -compare mode it reads two previously written reports (base first, head
// second), matches benchmarks by package + name, and exits non-zero when any
// benchmark whose name matches -match regressed in median ns/op by more than
// -max-regress percent. Benchmarks present in only one report are listed but
// never fail the gate (new benchmarks must not break the build that adds
// them).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Result is one benchmark: its parsed line, or the median of its lines.
type Result struct {
	// Name is the benchmark name including the -P GOMAXPROCS suffix.
	Name string `json:"name"`
	// Pkg is the import path from the preceding "pkg:" line, if any.
	Pkg string `json:"pkg,omitempty"`
	// Samples is the number of result lines folded into this one (the
	// -count the benchmark ran at); reports written before folding existed
	// leave it 0, meaning one.
	Samples int `json:"samples,omitempty"`
	// Runs is the iteration count (the first column).
	Runs int64 `json:"runs"`
	// NsPerOp is the ns/op metric, the one column every line has.
	NsPerOp float64 `json:"ns_per_op"`
	// Metrics holds every other "value unit" pair (B/op, allocs/op, custom
	// units), keyed by unit.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the top-level JSON document.
type Report struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// NumCPU records the machine's logical CPU count — parallel-query and
	// batch-fusion numbers are only comparable between runs on similar core
	// counts, so trend readers need it alongside the timings.
	NumCPU     int       `json:"num_cpu"`
	Generated  time.Time `json:"generated"`
	Benchmarks []Result  `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "", "write JSON to this file (default stdout)")
	echo := flag.Bool("echo", false, "echo all input lines to stderr so the pipeline stays observable")
	compare := flag.Bool("compare", false, "compare two report files (base head) instead of parsing bench output")
	maxRegress := flag.Float64("max-regress", 20, "with -compare, fail when a matched benchmark's ns/op grows by more than this percent")
	match := flag.String("match", "", "with -compare, regexp selecting which benchmarks can fail the gate (default: all)")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two report files: base head")
			os.Exit(2)
		}
		code, err := runCompare(os.Stdout, flag.Arg(0), flag.Arg(1), *maxRegress, *match)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(2)
		}
		os.Exit(code)
	}

	report, err := parse(os.Stdin, *echo)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
				os.Exit(1)
			}
		}()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// comparison is the verdict for one benchmark present in both reports.
type comparison struct {
	Name      string
	BaseNs    float64
	HeadNs    float64
	DeltaPct  float64 // positive = slower
	Gated     bool    // name matched the -match filter
	Regressed bool    // gated and above the threshold
	onlyIn    string  // "base" or "head" when only that report has it
}

// runCompare loads two reports and prints a verdict table. Return code 0
// means no gated regression, 1 means at least one.
func runCompare(w io.Writer, basePath, headPath string, maxRegressPct float64, match string) (int, error) {
	base, err := readReport(basePath)
	if err != nil {
		return 0, fmt.Errorf("base report: %w", err)
	}
	head, err := readReport(headPath)
	if err != nil {
		return 0, fmt.Errorf("head report: %w", err)
	}
	var gate *regexp.Regexp
	if match != "" {
		gate, err = regexp.Compile(match)
		if err != nil {
			return 0, fmt.Errorf("bad -match regexp: %w", err)
		}
	}
	rows := compareReports(base, head, maxRegressPct, gate)

	failed := 0
	fmt.Fprintf(w, "%-60s %14s %14s %9s  %s\n", "benchmark", "base ns/op", "head ns/op", "delta", "verdict")
	for _, r := range rows {
		switch {
		case r.onlyIn != "":
			fmt.Fprintf(w, "%-60s %14s %14s %9s  only in %s\n", r.Name,
				dashIf(r.onlyIn == "head", r.BaseNs), dashIf(r.onlyIn == "base", r.HeadNs),
				"-", r.onlyIn)
		default:
			verdict := "ok"
			if r.Regressed {
				verdict = fmt.Sprintf("REGRESSION (> %.0f%%)", maxRegressPct)
				failed++
			} else if !r.Gated {
				verdict = "ok (not gated)"
			}
			fmt.Fprintf(w, "%-60s %14.0f %14.0f %+8.1f%%  %s\n", r.Name, r.BaseNs, r.HeadNs, r.DeltaPct, verdict)
		}
	}
	if failed > 0 {
		fmt.Fprintf(w, "\n%d benchmark(s) regressed beyond %.0f%%\n", failed, maxRegressPct)
		return 1, nil
	}
	fmt.Fprintf(w, "\nno gated regression beyond %.0f%%\n", maxRegressPct)
	return 0, nil
}

func dashIf(missing bool, v float64) string {
	if missing {
		return "-"
	}
	return fmt.Sprintf("%.0f", v)
}

// compareReports joins two reports on pkg+name and computes the ns/op delta
// for the intersection, sorted worst-regression first.
func compareReports(base, head *Report, maxRegressPct float64, gate *regexp.Regexp) []comparison {
	key := func(r Result) string { return r.Pkg + " " + r.Name }
	baseBy := make(map[string]Result, len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		baseBy[key(r)] = r
	}
	var rows []comparison
	seen := make(map[string]bool, len(head.Benchmarks))
	for _, h := range head.Benchmarks {
		k := key(h)
		seen[k] = true
		b, ok := baseBy[k]
		if !ok {
			rows = append(rows, comparison{Name: k, HeadNs: h.NsPerOp, onlyIn: "head"})
			continue
		}
		c := comparison{Name: k, BaseNs: b.NsPerOp, HeadNs: h.NsPerOp}
		if b.NsPerOp > 0 {
			c.DeltaPct = (h.NsPerOp - b.NsPerOp) / b.NsPerOp * 100
		}
		c.Gated = gate == nil || gate.MatchString(h.Name)
		c.Regressed = c.Gated && c.DeltaPct > maxRegressPct
		rows = append(rows, c)
	}
	for _, b := range base.Benchmarks {
		if k := key(b); !seen[k] {
			rows = append(rows, comparison{Name: k, BaseNs: b.NsPerOp, onlyIn: "base"})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Regressed != rows[j].Regressed {
			return rows[i].Regressed
		}
		if rows[i].DeltaPct != rows[j].DeltaPct {
			return rows[i].DeltaPct > rows[j].DeltaPct
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

// readReport loads a JSON report written by this tool.
func readReport(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var r Report
	if err := json.NewDecoder(f).Decode(&r); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	return &r, nil
}

// parse scans go test -bench output and collects benchmark result lines.
func parse(r io.Reader, echo bool) (*Report, error) {
	report := &Report{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Generated: time.Now().UTC(),
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	pkg := ""
	for sc.Scan() {
		line := sc.Text()
		if echo {
			fmt.Fprintln(os.Stderr, line)
		}
		if p, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(p)
			continue
		}
		if res, ok := parseBenchLine(line, pkg); ok {
			report.Benchmarks = append(report.Benchmarks, res)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	report.Benchmarks = fold(report.Benchmarks)
	return report, nil
}

// fold merges the lines of each benchmark (package + name) into one result
// in first-appearance order: Runs, NsPerOp and every metric become their
// median over the lines, and Samples counts them. A metric missing from some
// lines takes the median of the lines that have it.
func fold(lines []Result) []Result {
	var order []string
	groups := make(map[string][]Result)
	for _, r := range lines {
		k := r.Pkg + " " + r.Name
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r)
	}
	out := make([]Result, 0, len(order))
	for _, k := range order {
		g := groups[k]
		res := Result{Name: g[0].Name, Pkg: g[0].Pkg, Samples: len(g)}
		var runs, ns []float64
		metrics := make(map[string][]float64)
		for _, r := range g {
			runs = append(runs, float64(r.Runs))
			ns = append(ns, r.NsPerOp)
			for unit, v := range r.Metrics {
				metrics[unit] = append(metrics[unit], v)
			}
		}
		res.Runs = int64(median(runs))
		res.NsPerOp = median(ns)
		if len(metrics) > 0 {
			res.Metrics = make(map[string]float64, len(metrics))
		}
		for unit, vs := range metrics {
			res.Metrics[unit] = median(vs)
		}
		out = append(out, res)
	}
	return out
}

// median returns the median of vs (the mean of the middle two for an even
// count), sorting vs in place.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	mid := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[mid]
	}
	return (vs[mid-1] + vs[mid]) / 2
}

// parseBenchLine parses one "BenchmarkName-8  N  V unit  V unit ..." line.
// Lines that do not match the shape are ignored (ok=false).
func parseBenchLine(line, pkg string) (Result, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return Result{}, false
	}
	fields := strings.Fields(line)
	// Shortest valid line: name, runs, value, "ns/op".
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Result{}, false
	}
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	res := Result{Name: fields[0], Pkg: pkg, Runs: runs}
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		unit := fields[i+1]
		if unit == "ns/op" {
			res.NsPerOp = val
			continue
		}
		if res.Metrics == nil {
			res.Metrics = make(map[string]float64)
		}
		res.Metrics[unit] = val
	}
	return res, true
}
