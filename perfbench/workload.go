package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/attack"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/defense"
	"repro/internal/experiment"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/population"
	"repro/internal/telemetry"
)

// workload is one named set of inputs. Every cell of a workload shares one
// clean baseline (same dataset, heterogeneity and seed), which a pass
// computes first through Runner.CleanAccuracy, as a user regenerating a
// paper cell does.
type workload struct {
	name  string
	cells []experiment.Config
	// grid runs the cells through Runner.RunGrid with a fresh JSONL run
	// store; otherwise the single cell runs through Runner.Run.
	grid bool
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"cifar-dfag-bulyan", "fashion-grid-refd", "population-int8-mkrum"}

// quickCell is one quick-profile cell at β = 0.5.
func quickCell(ds, atk, def string, seed int64) experiment.Config {
	c := experiment.QuickProfile().Base(ds, atk, def, 0.5)
	c.Seed = seed
	return c
}

// seedStride separates the seeds of a run's passes; it is the stride
// Runner.AverageSeeds uses between averaged seeds.
const seedStride = 1000003

// passSeed is the seed of pass p of a run with seed seed. Each pass runs
// the workload at its own seed, so a run's medians average over inputs
// instead of reflecting one seed's partition and participant draws.
func passSeed(seed int64, p int) int64 { return seed + int64(p)*seedStride }

// newWorkload builds the named workload for seed.
func newWorkload(name string, seed int64) (*workload, error) {
	w := &workload{name: name}
	switch name {
	case "cifar-dfag-bulyan":
		w.cells = []experiment.Config{quickCell("cifar-sim", "dfa-g", "bulyan", seed)}
	case "fashion-grid-refd":
		w.grid = true
		for _, atk := range []string{"dfa-r", "dfa-g", "minmax"} {
			for _, def := range []string{"refd", "mkrum"} {
				w.cells = append(w.cells, quickCell("fashion-sim", atk, def, seed))
			}
		}
	case "population-int8-mkrum":
		c := quickCell("tiny-sim", "minmax", "mkrum", seed)
		c.TotalClients = 1000000
		c.PerRound = 200
		c.AttackerFrac = 0.01
		c.Population = "virtual"
		c.Placement = "scatter"
		c.Codec = "int8"
		c.TopK = 0.1
		c.ErrorFeedback = true
		w.cells = []experiment.Config{c}
	default:
		return nil, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(workloadNames, ", "))
	}
	for i := range w.cells {
		if err := w.cells[i].Normalize(); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// cleanConfig is the configuration Runner.CleanAccuracy runs for cfg: no
// attack, flat FedAvg.
func cleanConfig(cfg experiment.Config) experiment.Config {
	c := cfg
	c.Attack, c.Defense, c.AttackerFrac = "none", "fedavg", 0
	c.Placement = ""
	return c
}

// env holds what every pass of one process shares.
type env struct {
	tmp     string       // scratch directory for journals and run stores
	workers int          // grid workers
	seq     int          // unique suffix for scratch files
	digests *digestStore // nil: no cross-run identity check
}

func (e *env) tmpPath(kind string) string {
	e.seq++
	return filepath.Join(e.tmp, fmt.Sprintf("%s-%d-%d.jsonl", kind, os.Getpid(), e.seq))
}

// passResult is what one pass over a workload measured.
type passResult struct {
	wall, baseline, run float64 // seconds: whole pass, CleanAccuracy, Run/RunGrid
	cpu                 float64 // user+system seconds
	allocMB             float64 // runtime TotalAlloc delta
	responded           int     // Σ RoundStats.Responded over the attacked cells
	outcomes            []*experiment.Outcome
	failed              int // cells that errored or failed the output check
	// Grid only.
	idleShare    float64 // 1 − Σ cell busy ÷ (workers × grid wall)
	records      int     // run-store appends
	baselineRecs int     // of which clean baselines
	recordMS     []float64
	// Traced passes only.
	root int // the pass span
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func totalAllocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// pass runs the workload once: its clean baseline, then its attacked
// cells. With a recorder the pass is traced: the benchmark's spans wrap the
// public calls and the engine's spans are read back from per-cell trace
// journals.
func (w *workload) pass(e *env, rec *recorder, ref *reference) (*passResult, error) {
	res := &passResult{}
	alloc0, cpu0 := totalAllocMB(), cpuSeconds()
	t0 := time.Now()
	res.root = rec.begin("pass", 0)

	r := experiment.NewRunner()
	var store *timedStore
	if w.grid {
		path := e.tmpPath("store")
		js, err := experiment.OpenStore(path)
		if err != nil {
			return nil, err
		}
		store = &timedStore{inner: js, file: path}
		r.Store = store
	}

	// A failing call fails every cell of the pass; the run goes on and
	// reports it through failed and correct.
	sp := rec.begin("experiment.clean_accuracy", res.root)
	tb := time.Now()
	_, err := r.CleanAccuracy(w.cells[0])
	res.baseline = time.Since(tb).Seconds()
	rec.end(sp)

	cells := append([]experiment.Config(nil), w.cells...)
	journals := make([]string, len(cells))
	if rec != nil {
		for i := range cells {
			journals[i] = e.tmpPath("trace")
			cells[i].TraceJournal = journals[i]
		}
	}

	tr := time.Now()
	var tracer *telemetry.Tracer
	switch {
	case err != nil:
	case w.grid:
		var done []time.Duration
		r.Progress = func(ev experiment.ProgressEvent) { done = append(done, ev.Elapsed) }
		if rec != nil {
			tracer = telemetry.NewTracer(0)
			r.Telemetry = telemetry.NewSweepTelemetry(nil, tracer, "")
		}
		sp = rec.begin("experiment.run_grid", res.root)
		res.outcomes, err = r.RunGrid(cells, e.workers)
		rec.end(sp)
		res.idleShare = idleShare(done, e.workers)
	default:
		sp = rec.begin("experiment.run", res.root)
		var out *experiment.Outcome
		out, err = r.Run(cells[0])
		rec.end(sp)
		res.outcomes = []*experiment.Outcome{out}
	}
	res.run = time.Since(tr).Seconds()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", w.name, w.cells[0].Seed, err)
		res.outcomes, res.failed = nil, len(w.cells)
	}

	check := rec.begin("check", res.root)
	for i, out := range res.outcomes {
		for _, rs := range out.Trace {
			res.responded += rs.Responded
		}
		var cr *cellRef
		if c, ok := ref.lookup(w.name, w.cells[i]); ok {
			cr = &c
		}
		err := checkOutcome(w.cells[i], out, cr)
		if err == nil && e.digests != nil {
			var same bool
			if same, err = e.digests.matches(w.name, w.cells[i], out); err == nil && !same {
				err = fmt.Errorf("results differ from an earlier run of the same code and configuration")
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d cell %s: output check: %v\n", w.name, w.cells[i].Seed, cellName(w.cells[i]), err)
			res.failed++
		}
	}
	rec.end(check)
	rec.end(res.root)
	res.wall = time.Since(t0).Seconds()
	res.cpu = cpuSeconds() - cpu0
	res.allocMB = totalAllocMB() - alloc0

	// Closing the scratch store and reading the trace journals back is the
	// benchmark's own work, so it happens after the pass is timed.
	if store != nil {
		res.records, res.baselineRecs, res.recordMS = store.stats()
		if err := store.inner.Close(); err != nil {
			return nil, err
		}
		if err := os.Remove(store.file); err != nil {
			return nil, err
		}
	}
	if rec == nil || res.outcomes == nil {
		return res, nil
	}
	if !w.grid {
		return res, rec.ingest(journals[0], sp, true)
	}
	sweep := e.tmpPath("sweep")
	if err := tracer.WriteJournal(sweep); err != nil {
		return nil, err
	}
	if err := rec.ingest(sweep, sp, false); err != nil {
		return nil, err
	}
	for i, c := range cells {
		cell := rec.findChild(sp, cellName(c))
		if err := rec.ingest(journals[i], cell, true); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// idleShare derives grid worker idleness from the cells' completion times
// alone (ProgressEvent.Elapsed, delivered in completion order). Workers
// take the next cell the moment they finish one, so cells start at time 0
// (the first `workers` of them) or at an earlier completion. Σ busy =
// Σ completions − Σ starts, which is the sum of the last `workers`
// completion times, and the grid's wall-clock is the last completion.
func idleShare(done []time.Duration, workers int) float64 {
	n := len(done)
	if n == 0 || done[n-1] <= 0 {
		return 0
	}
	workers = min(workers, n)
	var busy time.Duration
	for _, d := range done[n-workers:] {
		busy += d
	}
	return 1 - float64(busy)/(float64(workers)*float64(done[n-1]))
}

// timedStore decorates the run store the grid journals into, timing every
// append.
type timedStore struct {
	inner *experiment.JournalStore
	file  string

	mu        sync.Mutex // Record is called from the grid workers
	recordNs  []int64
	baselines int
}

func (s *timedStore) Lookup(key string) (*experiment.Outcome, bool, error) {
	return s.inner.Lookup(key)
}

func (s *timedStore) Record(key string, out *experiment.Outcome) error {
	t := time.Now()
	err := s.inner.Record(key, out)
	d := time.Since(t).Nanoseconds()
	s.mu.Lock()
	s.recordNs = append(s.recordNs, d)
	if strings.HasPrefix(key, "baseline|") {
		s.baselines++
	}
	s.mu.Unlock()
	return err
}

func (s *timedStore) stats() (records, baselines int, ms []float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ns := range s.recordNs {
		ms = append(ms, float64(ns)/1e6)
	}
	return len(s.recordNs), s.baselines, ms
}

// task is one configuration's inputs, built by the same public
// constructors experiment.Run calls.
type task struct {
	cfg         experiment.Config
	spec        dataset.Spec
	train, test *dataset.Dataset
	shards      [][]int
	pop         *population.Population
	newModel    func(*rand.Rand) *nn.Network
}

// shard returns client 0's training shard.
func (t *task) shard() []int {
	if t.pop != nil {
		return t.pop.Shard(0)
	}
	return t.shards[0]
}

// setupTimes is the time one configuration's set-up spent per step.
type setupTimes struct {
	generate, partition, popNew, construct float64
}

func (s setupTimes) total() float64 { return s.generate + s.partition + s.popNew + s.construct }

// setup builds cfg's dataset, partition or population, model, attack,
// defense and simulation, timing each step.
func setup(cfg experiment.Config, rec *recorder, parent int) (*task, setupTimes, error) {
	var st setupTimes
	tk := &task{cfg: cfg}
	spec, err := dataset.SpecByName(cfg.Dataset)
	if err != nil {
		return nil, st, err
	}
	tk.spec = spec

	t := time.Now()
	sp := rec.begin("dataset.generate", parent)
	tk.train, tk.test = dataset.Generate(spec, cfg.Seed)
	rec.end(sp)
	st.generate = time.Since(t).Seconds()

	t = time.Now()
	if cfg.Population == "virtual" {
		sp = rec.begin("population.new", parent)
		tk.pop, err = population.New(population.Spec{
			Kind:         population.Label,
			TotalClients: cfg.TotalClients,
			Seed:         cfg.Seed ^ 0x7054,
			Beta:         cfg.Beta,
			MeanShard:    cfg.MeanShard,
			Cache:        max(4*cfg.PerRound, 64),
		}, tk.train)
		rec.end(sp)
		st.popNew = time.Since(t).Seconds()
		if err != nil {
			return nil, st, err
		}
	} else {
		sp = rec.begin("dataset.partition", parent)
		tk.shards = dataset.PartitionDirichlet(rand.New(rand.NewSource(cfg.Seed^0x7054)), tk.train.Labels, cfg.TotalClients, cfg.Beta)
		rec.end(sp)
		st.partition = time.Since(t).Seconds()
	}

	t = time.Now()
	sp = rec.begin("simulation.new", parent)
	err = tk.construct()
	rec.end(sp)
	st.construct = time.Since(t).Seconds()
	return tk, st, err
}

// dfaConfig is the DFA configuration experiment.Run derives from cfg.
func dfaConfig(cfg experiment.Config, spec dataset.Spec) core.DFAConfig {
	return core.DFAConfig{
		Classes:         spec.Classes,
		ImgC:            spec.Channels,
		ImgSize:         spec.Size,
		SampleCount:     cfg.SampleCount,
		SynthesisEpochs: cfg.SynthesisEpochs,
		ClassifierLR:    cfg.LR,
		BatchSize:       cfg.BatchSize,
		RegLambda:       1,
		Trained:         true,
	}
}

// construct builds the model factory, attack, defense and simulation.
func (tk *task) construct() error {
	cfg, spec := tk.cfg, tk.spec
	switch spec.Name {
	case "cifar-sim", "svhn-sim":
		tk.newModel = func(rng *rand.Rand) *nn.Network { return nn.NewDeepCNN(rng, spec.Channels, spec.Size, spec.Classes) }
	default:
		tk.newModel = func(rng *rand.Rand) *nn.Network { return nn.NewFashionCNN(rng, spec.Channels, spec.Size, spec.Classes) }
	}
	var atk fl.Attack
	var err error
	switch cfg.Attack {
	case "none":
	case "minmax":
		atk = attack.MinMax{}
	case "dfa-r":
		atk, err = core.NewDFAR(dfaConfig(cfg, spec))
	case "dfa-g":
		atk, err = core.NewDFAG(dfaConfig(cfg, spec))
	default:
		err = fmt.Errorf("set-up of attack %q is not benchmarked", cfg.Attack)
	}
	if err != nil {
		return err
	}
	var agg fl.Aggregator
	if cfg.Defense == "refd" {
		ref, err := core.BalancedReference(tk.test, cfg.RefPerClass)
		if err != nil {
			return err
		}
		agg, err = core.NewREFD(ref, tk.newModel, 1, cfg.RejectX)
		if err != nil {
			return err
		}
	} else if agg, err = defense.ByName(cfg.Defense, cfg.FProxy); err != nil {
		return err
	}
	flCfg := fl.Config{
		TotalClients: cfg.TotalClients,
		PerRound:     cfg.PerRound,
		AttackerFrac: cfg.AttackerFrac,
		Rounds:       cfg.Rounds,
		LocalEpochs:  cfg.LocalEpochs,
		BatchSize:    cfg.BatchSize,
		LR:           cfg.LR,
		Seed:         cfg.Seed,
		EvalEvery:    1,
		EvalLimit:    cfg.EvalLimit,
		Parallel:     cfg.Parallel,
		Codec:        codecSpec(cfg),
	}
	if atk == nil {
		flCfg.AttackerFrac = 0
	}
	if tk.pop != nil {
		var place population.Placement
		if atk != nil {
			place, err = population.PlacementByName(cfg.Placement, cfg.TotalClients, cfg.AttackerFrac, cfg.Seed^0x506C61, tk.pop)
			if err != nil {
				return err
			}
		}
		_, err = population.NewSimulation(flCfg, tk.train, tk.test, tk.pop, place, tk.newModel, agg, atk)
		return err
	}
	_, err = fl.NewSimulation(flCfg, tk.train, tk.test, tk.shards, tk.newModel, agg, atk)
	return err
}

// codecSpec maps the config's compression fields onto the codec spec.
func codecSpec(cfg experiment.Config) codec.Spec {
	if cfg.Codec == "" {
		return codec.Spec{}
	}
	spec, err := codec.ParseSpec(cfg.Codec)
	if err != nil {
		return codec.Spec{}
	}
	spec.TopK, spec.EF = cfg.TopK, cfg.ErrorFeedback
	return spec
}

// setupConfigs lists the configurations a pass sets up: the shared clean
// baseline, then every attacked cell.
func (w *workload) setupConfigs() []experiment.Config {
	return append([]experiment.Config{cleanConfig(w.cells[0])}, w.cells...)
}

// setupAll sets up every configuration of the workload once and returns
// the per-step sums; the tasks are returned for the probes.
func (w *workload) setupAll(rec *recorder, parent int) ([]*task, setupTimes, error) {
	var sum setupTimes
	var tasks []*task
	for _, cfg := range w.setupConfigs() {
		sp := rec.begin("setup", parent)
		tk, st, err := setup(cfg, rec, sp)
		rec.end(sp)
		if err != nil {
			return nil, sum, err
		}
		tasks = append(tasks, tk)
		sum.generate += st.generate
		sum.partition += st.partition
		sum.popNew += st.popNew
		sum.construct += st.construct
	}
	return tasks, sum, nil
}
