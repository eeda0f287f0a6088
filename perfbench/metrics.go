package main

import (
	"fmt"
	"os"
	"runtime"
	"time"
)

// metricDef describes one reported metric. moves names the end-to-end
// metric the layer metric should move and on which workload; "flat" there
// means it should not move.
type metricDef struct {
	name, unit, better string
	moves              string
}

// endToEndDefs are the metrics a user of the system sees, measured with
// tracing off. Each is the median over the run's passes, except
// peak_rss_mb, which is the process peak.
var endToEndDefs = []metricDef{
	{name: "wall_s", unit: "s", better: "lower"},           // one pass: clean baseline + attacked cells
	{name: "setup_s", unit: "s", better: "lower"},          // dataset, partition/population, model and simulation construction
	{name: "baseline_s", unit: "s", better: "lower"},       // Runner.CleanAccuracy
	{name: "updates_per_s", unit: "1/s", better: "higher"}, // Σ Responded ÷ time in Run/RunGrid
	{name: "cpu_s", unit: "s", better: "lower"},            // user + system time of one pass
	{name: "peak_rss_mb", unit: "MB", better: "lower"},     // process peak resident set
	{name: "alloc_mb", unit: "MB", better: "lower"},        // runtime TotalAlloc delta of one pass
}

const (
	onCifar = "cifar-dfag-bulyan"
	onGrid  = "fashion-grid-refd"
	onPop   = "population-int8-mkrum"
)

// perLayerDefs are the metrics of the traced run, in report order.
func perLayerDefs() []metricDef {
	var defs []metricDef
	for _, c := range benchmarkConvShapes() {
		conv := "wall_s, cpu_s on " + onCifar + ", less on " + onGrid + "; flat on " + onPop
		if c.transposed {
			defs = append(defs,
				metricDef{"nn.convT_fwd_us." + c.key(), "us", "lower", conv},
				metricDef{"nn.convT_bwd_us." + c.key(), "us", "lower", conv})
			continue
		}
		defs = append(defs,
			metricDef{"nn.conv_fwd_us." + c.key(), "us", "lower", conv},
			metricDef{"nn.conv_bwd_us." + c.key(), "us", "lower", conv},
			metricDef{"tensor.gemm_gflops." + c.key(), "GFLOP/s", "higher", conv})
	}
	all := "on all three workloads"
	rounds := "wall_s on every workload"
	attack := "wall_s on " + onCifar + " and " + onGrid
	aggPop := "updates_per_s on " + onPop + "; flat on " + onCifar
	codecPop := "updates_per_s on " + onPop + "; flat elsewhere"
	grid := "wall_s on " + onGrid
	return append(defs,
		metricDef{"fl.train_step_ms", "ms", "lower", "baseline_s, updates_per_s " + all},
		metricDef{"fl.evaluate_ms", "ms", "lower", "baseline_s " + all + "; wall_s on " + onCifar},
		metricDef{"fl.round_ms_p50", "ms", "lower", rounds},
		metricDef{"fl.round_ms_tail", "ms", "lower", rounds},
		metricDef{"fl.round_samples", "count", "higher", "rounds behind fl.round_ms_tail, the highest whole percentile with ≥10 rounds beyond it (p50 below 20 rounds)"},
		metricDef{"fl.collect_s", "s", "lower", rounds},
		metricDef{"fl.eval_s", "s", "lower", rounds},
		metricDef{"fl.select_s", "s", "lower", rounds},
		metricDef{"fl.serveropt_s", "s", "lower", rounds},
		metricDef{"core.attack_s", "s", "lower", attack},
		metricDef{"core.dfag_craft_ms", "ms", "lower", attack},
		metricDef{"core.dfar_craft_ms", "ms", "lower", attack},
		metricDef{"attack.minmax_craft_ms", "ms", "lower", "updates_per_s on " + onPop},
		metricDef{"core.refd_aggregate_ms", "ms", "lower", "wall_s on " + onGrid + " only"},
		metricDef{"defense.aggregate_s", "s", "lower", aggPop},
		metricDef{"defense.distance_matrix_s", "s", "lower", aggPop + "; reads 0 on " + onGrid + " (process-global hook)"},
		metricDef{"defense.mkrum_ms", "ms", "lower", aggPop},
		metricDef{"defense.bulyan_ms", "ms", "lower", aggPop},
		metricDef{"codec.encode_s", "s", "lower", codecPop},
		metricDef{"codec.encode_us", "us", "lower", codecPop},
		metricDef{"codec.bytes_in", "B", "lower", codecPop},
		metricDef{"dataset.generate_s", "s", "lower", "setup_s; updates_per_s on " + onPop},
		metricDef{"population.new_s", "s", "lower", "setup_s; updates_per_s on " + onPop},
		metricDef{"population.shard_us_p50", "us", "lower", "setup_s; updates_per_s on " + onPop},
		metricDef{"experiment.run_self_s", "s", "lower", "setup_s, wall_s"},
		metricDef{"experiment.grid_idle_share", "ratio", "lower", grid},
		metricDef{"experiment.baseline_reuse", "count", "higher", grid},
		metricDef{"persist.record_ms_p50", "ms", "lower", grid},
		metricDef{"persist.records", "count", "lower", grid},
		metricDef{"telemetry.trace_overhead_pct", "%", "lower", "traced vs untraced wall_s"},
		metricDef{"telemetry.untraced_share", "ratio", "lower", "share of traced wall_s covered by no span"},
	)
}

// runResult is the outcome of one benchmark run.
type runResult struct {
	passes    int
	passWall  []float64 // wall-clock of each pass, in order
	attempted int
	failed    int
	metrics   map[string]float64
}

// A run sets the workload up at least setupReps times and for at least
// setupBudget (at most maxSetupReps times); set-up time is the median.
const (
	setupReps    = 5
	maxSetupReps = 500
	setupBudget  = time.Second
)

// deadline tells the pass loops when to stop: after at least min passes,
// once the next pass (estimated by the last one) would end past the run's
// length.
type deadline struct {
	start   time.Time
	seconds float64
}

func (d deadline) more(done, min int, last float64) bool {
	return done < min || time.Since(d.start).Seconds()+last <= d.seconds
}

// setupRuns runs the workload's set-up repeatedly, after a collection
// each time, and returns each repetition's times and the last one's tasks.
func setupRuns(w *workload, rec *recorder) ([]setupTimes, []*task, error) {
	var reps []setupTimes
	var tasks []*task
	start := time.Now()
	for len(reps) < setupReps || (time.Since(start) < setupBudget && len(reps) < maxSetupReps) {
		runtime.GC()
		root := rec.begin("setup-all", 0)
		tk, st, err := w.setupAll(rec, root)
		rec.end(root)
		if err != nil {
			return nil, nil, err
		}
		reps, tasks = append(reps, st), tk
	}
	return reps, tasks, nil
}

// medianOf is the median of one field of the set-up repetitions.
func medianOf(reps []setupTimes, field func(setupTimes) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = field(r)
	}
	return median(xs)
}

// measure is the untraced run: set-up repetitions, then passes, each at
// its own seed, until the run's length is used.
func measure(name string, seed int64, e *env, ref *reference, dl deadline) (*runResult, error) {
	w, err := newWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	setups, _, err := setupRuns(w, nil)
	if err != nil {
		return nil, err
	}
	res := &runResult{metrics: map[string]float64{}}
	var wall, base, ups, cpu, alloc []float64
	for last := 0.0; dl.more(res.passes, 2, last); res.passes++ {
		if w, err = newWorkload(name, passSeed(seed, res.passes)); err != nil {
			return nil, err
		}
		runtime.GC()
		p, err := w.pass(e, nil, ref)
		if err != nil {
			return nil, err
		}
		res.attempted += len(w.cells)
		res.failed += p.failed
		wall = append(wall, p.wall)
		base = append(base, p.baseline)
		ups = append(ups, float64(p.responded)/p.run)
		cpu = append(cpu, p.cpu)
		alloc = append(alloc, p.allocMB)
		last = p.wall
	}
	res.passWall = wall
	res.metrics["wall_s"] = median(wall)
	res.metrics["setup_s"] = medianOf(setups, setupTimes.total)
	res.metrics["baseline_s"] = median(base)
	res.metrics["updates_per_s"] = median(ups)
	res.metrics["cpu_s"] = median(cpu)
	res.metrics["peak_rss_mb"] = peakRSSMB()
	res.metrics["alloc_mb"] = median(alloc)
	return res, nil
}

// measureTraced is the traced run: traced set-up repetitions, the probes,
// then pairs of one untraced and one traced pass (both at the pair's seed)
// until the run's length is used. The untraced passes give the tracing
// overhead; the traced pass must reproduce the untraced one bit for bit.
func measureTraced(name string, seed int64, e *env, ref *reference, dl deadline) (*runResult, error) {
	rec := &recorder{}
	res := &runResult{metrics: map[string]float64{}}
	m := res.metrics

	w, err := newWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	setups, tasks, err := setupRuns(w, rec)
	if err != nil {
		return nil, err
	}
	m["dataset.generate_s"] = medianOf(setups, func(s setupTimes) float64 { return s.generate })
	m["population.new_s"] = medianOf(setups, func(s setupTimes) float64 { return s.popNew })

	cell := tasks[1] // the first attacked cell
	probes, perUpdate, err := probeLayers(cell)
	if err != nil {
		return nil, err
	}
	for k, v := range probes {
		m[k] = v
	}

	var untracedWall, tracedWall, idle, recordMS []float64
	var rounds []float64
	sums := map[string][]float64{}
	for pair, last := 0, 0.0; dl.more(res.passes, 2, last); pair++ {
		t := time.Now()
		if w, err = newWorkload(name, passSeed(seed, pair)); err != nil {
			return nil, err
		}
		// Alternating which pass of a pair goes first keeps an order effect
		// out of the tracing overhead.
		order := []bool{pair%2 == 1, pair%2 == 0}
		for _, traced := range order {
			runtime.GC()
			r := rec
			if !traced {
				r = nil
			}
			p, err := w.pass(e, r, ref)
			if err != nil {
				return nil, err
			}
			res.passes++
			res.attempted += len(w.cells)
			res.failed += p.failed
			if w.grid {
				idle = append(idle, p.idleShare)
				recordMS = append(recordMS, p.recordMS...)
				m["persist.records"] = float64(p.records)
				m["experiment.baseline_reuse"] = float64(len(w.cells) - (p.baselineRecs - 1))
			}
			res.passWall = append(res.passWall, p.wall)
			if !traced {
				untracedWall = append(untracedWall, p.wall)
				continue
			}
			tracedWall = append(tracedWall, p.wall)
			for _, s := range rec.descendants(p.root) {
				if s.name == "round" {
					rounds = append(rounds, float64(s.dur())/1e6)
				}
			}
			for metric, span := range phaseSpans {
				sums[metric] = append(sums[metric], rec.sumNamed(p.root, span))
			}
			sums["experiment.run_self_s"] = append(sums["experiment.run_self_s"], runSelf(rec, p.root, w.grid))
			sums["telemetry.untraced_share"] = append(sums["telemetry.untraced_share"],
				untracedShare(rec.get(p.root), rec.children(p.root)))
			sums["codec.bytes_in"] = append(sums["codec.bytes_in"], float64(perUpdate*p.responded))
		}
		last = time.Since(t).Seconds()
	}
	for metric, vs := range sums {
		m[metric] = median(vs)
	}
	if w.grid {
		// Concurrent cells overwrite each other's distance hook, so its
		// spans cannot be attributed; the row is reported as 0 here.
		m["defense.distance_matrix_s"] = 0
		m["experiment.grid_idle_share"] = median(idle)
		m["persist.record_ms_p50"] = median(recordMS)
	} else {
		m["experiment.grid_idle_share"] = 0
		m["experiment.baseline_reuse"] = 0
		m["persist.record_ms_p50"] = 0
		m["persist.records"] = 0
	}
	m["fl.round_ms_p50"] = median(rounds)
	m["fl.round_ms_tail"], _, _ = tail(rounds)
	m["fl.round_samples"] = float64(len(rounds))
	tw, uw := median(tracedWall), median(untracedWall)
	m["telemetry.trace_overhead_pct"] = (tw - uw) / uw * 100
	printLadder(os.Stderr, rec)
	for _, d := range perLayerDefs() {
		if _, ok := m[d.name]; !ok {
			return nil, fmt.Errorf("traced run did not measure %s", d.name)
		}
	}
	return res, nil
}

// phaseSpans maps span-derived metrics to the engine span they sum.
var phaseSpans = map[string]string{
	"fl.collect_s":              "collect",
	"fl.eval_s":                 "eval",
	"fl.select_s":               "select",
	"fl.serveropt_s":            "serveropt",
	"core.attack_s":             "attack",
	"defense.aggregate_s":       "aggregate",
	"defense.distance_matrix_s": "distance-matrix",
	"codec.encode_s":            "encode",
}

// runSelf is the in-run set-up time of a traced pass: each Run span (or,
// in a grid, each cell span) minus the round spans inside it.
func runSelf(rec *recorder, root int, grid bool) float64 {
	var total int64
	for _, s := range rec.children(root) {
		switch {
		case s.name == "experiment.run":
			total += selfTime(s, rec.children(s.id))
		case s.name == "experiment.run_grid" && grid:
			for _, c := range rec.children(s.id) {
				total += selfTime(c, rec.children(c.id))
			}
		}
	}
	return float64(total) / 1e9
}
