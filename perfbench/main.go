// Command perfbench is the repository's benchmark. One run measures one
// workload for a fixed length of time through the public entry points a
// user calls (experiment.Runner.CleanAccuracy, Runner.Run, Runner.RunGrid),
// checks every cell's outputs, and prints its metrics.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload cifar-dfag-bulyan --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh compare parent.jsonl change.jsonl
//	bash perfbench/run.sh record --seeds 1-10
//
// With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json
// with tracing off; with --trace 1 it reports the per-layer metrics from a
// separate traced run (probes plus the engine's per-phase spans). The last
// line of standard output is one JSON object: correct, attempted, failed
// and metrics. failed counts cells that errored or failed the output
// check, over the cells attempted (failed_frac = failed ÷ attempted).
// Every run also appends a full record, with the machine fingerprint, to
// --out for the comparator.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/tensor"
)

// buildDir is where run.sh builds and where runs keep scratch files; it
// is relative to the repository root the benchmark runs from.
const buildDir = ".bench_build/perfbench"

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareMain(args[1:], stdout, stderr)
		case "record":
			return recordMain(args[1:], stderr)
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "workload seed: Config.Seed of the first pass; pass p runs at seed + p·1000003")
	seconds := fs.Int("seconds", 30, "run length in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	out := fs.String("out", filepath.Join(buildDir, "results.jsonl"), "JSONL file the run's full record is appended to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	rec, err := runBenchmark(*name, *seed, *seconds, *trace, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := appendRecord(*out, rec); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one run's full result, as the comparator reads it.
type record struct {
	Fingerprint fingerprint            `json:"fingerprint"`
	Workload    string                 `json:"workload"`
	Seed        int64                  `json:"seed"`
	Seconds     int                    `json:"seconds"`
	Trace       int                    `json:"trace"`
	Passes      int                    `json:"passes"`
	PassWall    []float64              `json:"pass_wall_s"`
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	Metrics     map[string]metricValue `json:"metrics"`
	Time        string                 `json:"time"`
}

// runBenchmark measures one workload and prints its metrics to stderr.
func runBenchmark(name string, seed int64, seconds, trace int, stderr io.Writer) (*record, error) {
	start := time.Now()
	// The grid runs at most nproc cells at once and the kernel pool is
	// pinned to nproc threads, so a run never oversubscribes the machine.
	nproc := runtime.NumCPU()
	tensor.SetWorkers(nproc)
	w, err := newWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	fp := currentFingerprint(".")
	ref, err := loadReference()
	if err != nil {
		return nil, err
	}
	for _, c := range w.cells {
		if _, ok := ref.lookup(w.name, c); !ok {
			return nil, fmt.Errorf("reference.json has no reference for %s cell %s", w.name, cellName(c))
		}
	}
	e := &env{tmp: filepath.Join(buildDir, "tmp"), workers: min(2, nproc)}
	if err := os.MkdirAll(e.tmp, 0o755); err != nil {
		return nil, err
	}
	if e.digests, err = openDigests(filepath.Join(buildDir, "digests.json"), fp.Source); err != nil {
		return nil, err
	}
	dl := deadline{start: start, seconds: float64(seconds)}
	var res *runResult
	defs := endToEndDefs
	if trace == 1 {
		defs = perLayerDefs()
		res, err = measureTraced(name, seed, e, ref, dl)
	} else {
		res, err = measure(name, seed, e, ref, dl)
	}
	if err == nil {
		err = e.digests.save()
	}
	if err != nil {
		return nil, err
	}
	rec := &record{
		Fingerprint: fp,
		Workload:    name,
		Seed:        seed,
		Seconds:     seconds,
		Trace:       trace,
		Passes:      res.passes,
		PassWall:    res.passWall,
		Correct:     res.failed == 0,
		Attempted:   res.attempted,
		Failed:      res.failed,
		Metrics:     map[string]metricValue{},
		Time:        start.UTC().Format(time.RFC3339),
	}
	fmt.Fprintf(stderr, "perfbench %s seed=%d passes=%d failed_frac=%d/%d (%s)\n",
		name, seed, res.passes, res.failed, res.attempted, rec.Fingerprint.machine())
	for _, d := range defs {
		v := res.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// Only a failed pass leaves a metric without samples.
			fmt.Fprintf(stderr, "perfbench: %s has no value\n", d.name)
			v, rec.Correct = 0, false
		}
		rec.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		if d.moves != "" {
			fmt.Fprintf(stderr, "  %-44s %14.6g %-8s → %s\n", d.name, v, d.unit, d.moves)
		} else {
			fmt.Fprintf(stderr, "  %-44s %14.6g %s\n", d.name, v, d.unit)
		}
	}
	return rec, nil
}

func appendRecord(path string, rec *record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
