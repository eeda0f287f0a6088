package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// The comparator A/Bs two result sets (JSONL records appended by runs of
// the parent and of the change) from the same machine. For each workload
// and metric it reports both sides' median and quartiles, the fraction of
// pairs the change wins (the i-th run of each side forms a pair; ties
// count for neither) and a verdict: a gain needs ≥ 9/10 of pairs won and
// a median difference larger than the parent's interquartile spread; a
// regression is a median worse by more than the metric's bound; a spread
// wider than the bound leaves the metric unresolved unless every change
// run beats every parent run.

// benchMeta is the part of BENCHMARK.json the comparator needs.
type benchMeta struct {
	EndToEnd []metaMetric `json:"end_to_end"`
	PerLayer []metaMetric `json:"per_layer"`
}

type metaMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	trace := fs.Int("trace", 0, "compare the runs made with this --trace value")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare [--trace 0|1] parent.jsonl change.jsonl")
		return 2
	}
	// BENCHMARK.json, at the repository root, gives each metric's
	// direction and bound.
	meta, err := loadMeta("BENCHMARK.json")
	if err == nil {
		var a, b []record
		if a, err = loadRecords(fs.Arg(0), *trace); err == nil {
			if b, err = loadRecords(fs.Arg(1), *trace); err == nil {
				err = compare(stdout, meta, a, b)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 1
	}
	return 0
}

func loadMeta(path string) (map[string]metaMetric, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bm benchMeta
	if err := json.Unmarshal(data, &bm); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]metaMetric{}
	for _, m := range append(bm.EndToEnd, bm.PerLayer...) {
		out[m.Name] = m
	}
	return out, nil
}

// loadRecords reads the records of one result set made with the given
// --trace value.
func loadRecords(path string, trace int) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		if r.Trace == trace {
			out = append(out, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s has no records with --trace %d", path, trace)
	}
	return out, nil
}

// metricComparison is one row of the comparator's report.
type metricComparison struct {
	workload, metric   string
	aMed, aQ1, aQ3, aN float64
	bMed, bQ1, bQ3, bN float64
	winFrac            float64
	pairs              int
	verdict            string
}

var errMachines = errors.New("result sets come from different machines; refusing to compare")

// compare writes the report for two result sets.
func compare(w io.Writer, meta map[string]metaMetric, a, b []record) error {
	machine := a[0].Fingerprint.machine()
	for _, r := range append(append([]record(nil), a...), b...) {
		if r.Fingerprint.machine() != machine {
			return fmt.Errorf("%w: %q vs %q", errMachines, machine, r.Fingerprint.machine())
		}
	}
	fmt.Fprintf(w, "machine: %s\n", machine)
	fmt.Fprintf(w, "A: revision %q source %s\nB: revision %q source %s\n",
		a[0].Fingerprint.Revision, a[0].Fingerprint.Source, b[0].Fingerprint.Revision, b[0].Fingerprint.Source)
	rows := comparisons(meta, a, b)
	side := func(med, q1, q3, n float64) string {
		return fmt.Sprintf("%.5g [%.4g, %.4g] n=%.0f", med, q1, q3, n)
	}
	fmt.Fprintf(w, "%-22s %-44s %-34s %-34s %-9s %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B wins", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %-44s %-34s %-34s %-9s %s\n", r.workload, r.metric,
			side(r.aMed, r.aQ1, r.aQ3, r.aN), side(r.bMed, r.bQ1, r.bQ3, r.bN),
			fmt.Sprintf("%.0f%%/%d", 100*r.winFrac, r.pairs), r.verdict)
	}
	return nil
}

// comparisons builds one row per workload and metric present on both sides.
func comparisons(meta map[string]metaMetric, a, b []record) []metricComparison {
	group := func(rs []record) map[string]map[string][]float64 {
		g := map[string]map[string][]float64{}
		for _, r := range rs {
			if g[r.Workload] == nil {
				g[r.Workload] = map[string][]float64{}
			}
			for name, v := range r.Metrics {
				g[r.Workload][name] = append(g[r.Workload][name], v.Value)
			}
		}
		return g
	}
	ga, gb := group(a), group(b)
	var rows []metricComparison
	for _, wl := range sortedKeys(ga) {
		for _, name := range sortedKeys(ga[wl]) {
			av, bv := ga[wl][name], gb[wl][name]
			if len(bv) == 0 {
				continue
			}
			m, ok := meta[name]
			if !ok {
				m = metaMetric{Name: name, Better: "lower"}
			}
			rows = append(rows, compareMetric(wl, m, av, bv))
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].workload < rows[j].workload })
	return rows
}

// compareMetric compares one metric's values from the two sides.
func compareMetric(workload string, m metaMetric, a, b []float64) metricComparison {
	r := metricComparison{workload: workload, metric: m.Name, aN: float64(len(a)), bN: float64(len(b))}
	r.aMed, r.bMed = median(a), median(b)
	r.aQ1, r.aQ3 = quartiles(a)
	r.bQ1, r.bQ3 = quartiles(b)
	// better reports whether x is better than y in the metric's direction.
	better := func(x, y float64) bool {
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	r.pairs = min(len(a), len(b))
	wins := 0
	for i := 0; i < r.pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	if r.pairs > 0 {
		r.winFrac = float64(wins) / float64(r.pairs)
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	worse := r.bMed - r.aMed // how much worse B is, as a share of A
	if m.Better == "higher" {
		worse = -worse
	}
	if r.aMed != 0 {
		worse /= abs(r.aMed)
	}
	spreadA, spreadB := (r.aQ3-r.aQ1)/abs(r.aMed), (r.bQ3-r.bQ1)/abs(r.bMed)
	switch {
	case r.winFrac >= 0.9 && abs(r.bMed-r.aMed) > r.aQ3-r.aQ1 && better(r.bMed, r.aMed):
		r.verdict = "better"
	case m.Bound != nil && worse > *m.Bound:
		r.verdict = fmt.Sprintf("worse by %.1f%% (bound %.0f%%)", 100*worse, 100**m.Bound)
	case m.Bound != nil && (spreadA > *m.Bound || spreadB > *m.Bound) && !allBetter:
		r.verdict = "unresolved (spread wider than bound)"
	case m.Bound != nil:
		r.verdict = "no regression"
	default:
		r.verdict = "no bound"
	}
	return r
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
