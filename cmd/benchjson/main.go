// Command benchjson converts `go test -bench` output (read from stdin)
// into the BENCH_*.json perf-trajectory format, optionally joining a
// baseline file so each benchmark records before/after numbers and the
// speedup. With -maxdrop it is also the perf-regression gate: any
// derived ratio that fell more than the given percentage below the
// baseline's ratio fails the run (after writing the output, so the
// numbers behind the failure are on disk). Used by `make bench`:
//
//	go test -run '^$' -bench ... -benchmem . | benchjson -baseline BENCH_PR5.json -maxdrop 10 -out BENCH_PR6.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Metrics is one benchmark's measurements.
type Metrics struct {
	NsPerOp     float64 `json:"ns_op"`
	BytesPerOp  float64 `json:"bytes_op"`
	AllocsPerOp float64 `json:"allocs_op"`
}

// Entry pairs current numbers with an optional baseline.
type Entry struct {
	Seed *Metrics `json:"seed,omitempty"`
	Cur  *Metrics `json:"current"`
	// Speedup is seed ns/op divided by current ns/op (higher is better).
	Speedup float64 `json:"speedup,omitempty"`
}

// File is the on-disk BENCH_*.json layout.
type File struct {
	Label string `json:"label"`
	// GoVersion and GoMaxProcs record the toolchain and parallelism the
	// numbers were measured with, so trajectory entries from different
	// environments are distinguishable.
	GoVersion  string           `json:"go_version,omitempty"`
	GoMaxProcs int              `json:"gomaxprocs,omitempty"`
	Benchmarks map[string]Entry `json:"benchmarks"`
	// Ratios are derived cross-benchmark speedups requested with -ratio
	// NAME=NUM/DEN: ns/op of benchmark NUM divided by ns/op of DEN
	// (higher means DEN is faster), e.g. AMG refresh vs full build.
	Ratios map[string]float64 `json:"ratios,omitempty"`
}

// ratioFlags collects repeated -ratio NAME=NUM/DEN definitions.
type ratioFlags []string

func (r *ratioFlags) String() string { return strings.Join(*r, ",") }

func (r *ratioFlags) Set(v string) error {
	*r = append(*r, v)
	return nil
}

func main() {
	out := flag.String("out", "", "output JSON path (default stdout)")
	baseline := flag.String("baseline", "", "baseline BENCH_*.json to join as the seed column")
	label := flag.String("label", "current", "label recorded in the output")
	var ratios ratioFlags
	flag.Var(&ratios, "ratio", "derived ratio NAME=NUM/DEN of two benchmarks' ns/op (repeatable)")
	maxDrop := flag.Float64("maxdrop", 0, "fail when a derived ratio drops more than this percent below the baseline's (0 disables the gate)")
	force := flag.Bool("force", false, "compare against a baseline recorded at a different GOMAXPROCS anyway")
	flag.Parse()

	cur, procs, err := parseBench(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(cur) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	if procs == 0 {
		procs = runtime.GOMAXPROCS(0)
	}

	var base map[string]Metrics
	var baseRatios map[string]float64
	if *baseline != "" {
		var baseProcs int
		base, baseRatios, baseProcs, err = readBaseline(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		// Cross-parallelism comparisons are not perf trajectories: a
		// baseline measured at a different GOMAXPROCS makes every speedup
		// and ratio gate meaningless. Refuse unless explicitly overridden.
		if err := checkProcsMatch(procs, baseProcs, *baseline, *force); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}
	f := File{Label: *label, GoVersion: runtime.Version(), GoMaxProcs: procs, Benchmarks: map[string]Entry{}}
	for name, m := range cur {
		m := m
		e := Entry{Cur: &m}
		if b, ok := base[name]; ok {
			b := b
			e.Seed = &b
			if m.NsPerOp > 0 {
				e.Speedup = round3(b.NsPerOp / m.NsPerOp)
			}
		}
		f.Benchmarks[name] = e
	}
	for _, def := range ratios {
		name, num, den, err := parseRatio(def, cur, baseRatios)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		if f.Ratios == nil {
			f.Ratios = map[string]float64{}
		}
		f.Ratios[name] = round3(num / den)
	}

	enc, err := marshalStable(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *out == "" {
		fmt.Println(string(enc))
	} else {
		if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		names := make([]string, 0, len(f.Benchmarks))
		for n := range f.Benchmarks {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			e := f.Benchmarks[n]
			if e.Seed != nil {
				fmt.Printf("%-28s %12.0f ns/op  (seed %12.0f, %.2fx)\n", n, e.Cur.NsPerOp, e.Seed.NsPerOp, e.Speedup)
			} else {
				fmt.Printf("%-28s %12.0f ns/op\n", n, e.Cur.NsPerOp)
			}
		}
		rnames := make([]string, 0, len(f.Ratios))
		for n := range f.Ratios {
			rnames = append(rnames, n)
		}
		sort.Strings(rnames)
		for _, n := range rnames {
			fmt.Printf("ratio %-28s %.2fx\n", n, f.Ratios[n])
		}
		fmt.Println("wrote", *out)
	}

	// The regression gate runs last, after the output file exists: a
	// failed gate should leave the numbers behind it on disk.
	if drops := ratioDrops(f.Ratios, baseRatios, *maxDrop); len(drops) > 0 {
		for _, d := range drops {
			fmt.Fprintln(os.Stderr, "benchjson:", d)
		}
		os.Exit(1)
	}
}

// checkProcsMatch rejects a baseline recorded at a different GOMAXPROCS
// than the current run (unless forced): the speedup columns and the
// -maxdrop ratio gate only mean anything when both sides measured the
// same parallelism. Baselines that never recorded their GOMAXPROCS
// (pre-trajectory files) are accepted — there is nothing to compare.
func checkProcsMatch(procs, baseProcs int, baseline string, force bool) error {
	if baseProcs == 0 || baseProcs == procs {
		return nil
	}
	if force {
		fmt.Fprintf(os.Stderr, "benchjson: warning: comparing GOMAXPROCS=%d run against %s recorded at GOMAXPROCS=%d (-force)\n",
			procs, baseline, baseProcs)
		return nil
	}
	return fmt.Errorf("this run used GOMAXPROCS=%d but baseline %s was recorded at GOMAXPROCS=%d; "+
		"rerun with the same parallelism (make bench BENCHPROCS=%d) or pass -force to compare anyway",
		procs, baseline, baseProcs, baseProcs)
}

// ratioDrops compares the derived ratios against the baseline's and
// reports every one that fell more than maxDrop percent — strictly
// more: a ratio sitting exactly at the gate passes. Ratios only
// one side defines are skipped: a new ratio has no history to regress
// against, and a retired one is a definition change, not a slowdown.
func ratioDrops(cur, base map[string]float64, maxDrop float64) []string {
	if maxDrop <= 0 {
		return nil
	}
	names := make([]string, 0, len(cur))
	for n := range cur {
		names = append(names, n)
	}
	sort.Strings(names)
	var drops []string
	for _, n := range names {
		b, ok := base[n]
		if !ok || b <= 0 {
			continue
		}
		drop := (b - cur[n]) / b * 100
		if drop > maxDrop {
			drops = append(drops, fmt.Sprintf(
				"ratio %s regressed %.1f%% (baseline %.3fx, current %.3fx, gate %.0f%%)",
				n, drop, b, cur[n], maxDrop))
		}
	}
	return drops
}

func round3(x float64) float64 { return float64(int64(x*1000+0.5)) / 1000 }

// parseRatio resolves a NAME=NUM/DEN definition against the parsed
// benchmark metrics, returning the two ns/op values. baseRatios (may be
// nil) is consulted only to enrich the missing-benchmark error: when
// the baseline recorded a value for the ratio, the error shows what the
// trajectory is about to lose.
func parseRatio(def string, cur map[string]Metrics, baseRatios map[string]float64) (name string, num, den float64, err error) {
	name, expr, ok := strings.Cut(def, "=")
	if !ok {
		return "", 0, 0, fmt.Errorf("bad -ratio %q (want NAME=NUM/DEN)", def)
	}
	numName, denName, ok := strings.Cut(expr, "/")
	if !ok {
		return "", 0, 0, fmt.Errorf("bad -ratio %q (want NAME=NUM/DEN)", def)
	}
	var missing []string
	n, okN := cur[numName]
	if !okN {
		missing = append(missing, numName)
	}
	d, okD := cur[denName]
	if !okD && denName != numName {
		missing = append(missing, denName)
	}
	if len(missing) > 0 {
		// Fail loudly rather than emit a zero or stale ratio: a renamed
		// or dropped benchmark must break `make bench`, not silently
		// corrupt the perf trajectory.
		avail := make([]string, 0, len(cur))
		for b := range cur {
			avail = append(avail, b)
		}
		sort.Strings(avail)
		recorded := ""
		if b, ok := baseRatios[name]; ok {
			recorded = fmt.Sprintf("; the baseline recorded %s at %.3fx", name, b)
		}
		return "", 0, 0, fmt.Errorf("-ratio %s: benchmark(s) %s missing from this run (have: %s); "+
			"check the -bench pattern and the benchmark names in the -ratio definition%s",
			name, strings.Join(missing, ", "), strings.Join(avail, ", "), recorded)
	}
	if d.NsPerOp == 0 {
		return "", 0, 0, fmt.Errorf("-ratio %s: zero ns/op denominator", name)
	}
	return name, n.NsPerOp, d.NsPerOp, nil
}

// parseBench extracts Benchmark lines from `go test -bench -benchmem`
// output. Lines look like:
//
//	BenchmarkName      556   2203845 ns/op   934240 B/op   15232 allocs/op
//
// Repeated lines for one benchmark (`go test -count=N`) keep the
// fastest run: scheduler and thermal noise only ever add time, so the
// minimum is the most repeatable estimate — which the -maxdrop gate
// needs to compare runs without tripping on a single slow repetition.
func parseBench(src io.Reader) (map[string]Metrics, int, error) {
	res := map[string]Metrics{}
	procs := 0
	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		// Strip the -N GOMAXPROCS suffix go test appends.
		if i := strings.LastIndex(name, "-"); i > 0 {
			if p, err := strconv.Atoi(name[i+1:]); err == nil {
				procs = p
				name = name[:i]
			}
		}
		var m Metrics
		for k := 1; k+1 < len(fields); k++ {
			v, err := strconv.ParseFloat(fields[k], 64)
			if err != nil {
				continue
			}
			switch fields[k+1] {
			case "ns/op":
				m.NsPerOp = v
			case "B/op":
				m.BytesPerOp = v
			case "allocs/op":
				m.AllocsPerOp = v
			}
		}
		if m.NsPerOp > 0 {
			if prev, ok := res[name]; !ok || m.NsPerOp < prev.NsPerOp {
				res[name] = m
			}
		}
	}
	return res, procs, sc.Err()
}

// readBaseline accepts a previous benchjson file and returns its
// current-column metrics keyed by benchmark name, its derived ratios
// for the -maxdrop regression gate, and the GOMAXPROCS it recorded
// (0 when the file predates that field).
func readBaseline(path string) (map[string]Metrics, map[string]float64, int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, 0, err
	}
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]Metrics{}
	for name, e := range f.Benchmarks {
		if e.Cur != nil {
			out[name] = *e.Cur
		}
	}
	return out, f.Ratios, f.GoMaxProcs, nil
}

// marshalStable renders the file with sorted benchmark keys.
func marshalStable(f File) ([]byte, error) {
	return json.MarshalIndent(f, "", "  ")
}
