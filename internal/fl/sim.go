package fl

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// Config holds the simulation parameters of Section IV-A.
type Config struct {
	// TotalClients is N, the population size (paper: 100).
	TotalClients int
	// PerRound is K, the number of clients selected each round (paper: 10).
	PerRound int
	// AttackerFrac is the fraction of malicious clients (paper: 0.2).
	AttackerFrac float64
	// Rounds is R, the number of global training rounds.
	Rounds int
	// LocalEpochs is the number of local epochs per round (paper: 1).
	LocalEpochs int
	// BatchSize is the local minibatch size.
	BatchSize int
	// LR is the global uniform learning rate η.
	LR float64
	// Seed drives all simulation randomness.
	Seed int64
	// EvalEvery evaluates the global model every EvalEvery rounds (1 =
	// every round, which the ASR metric assumes).
	EvalEvery int
	// EvalLimit caps the number of test samples per evaluation (0 = all).
	EvalLimit int
	// Parallel trains the selected clients concurrently.
	Parallel bool
	// Scenario selects the participation and aggregation axes (client
	// sampler, churn model, server optimizer, sync/async). The zero value
	// reproduces the paper's fixed federation shape bit-exactly.
	Scenario Scenario
	// Observer, when non-nil, receives every aggregation decision — the
	// forensics audit hook. Pure observation: it never changes results.
	Observer AggregationObserver
	// Codec, when enabled, compresses every client update before
	// aggregation (see Engine.Codec). The zero value reproduces the
	// uncompressed path bit-exactly.
	Codec codec.Spec
	// Telemetry, when non-nil, receives per-round/per-phase spans and codec
	// byte counts (see Engine.Telemetry). Pure observation: a fixed-seed
	// run is bit-identical with it enabled or nil.
	Telemetry *telemetry.EngineTelemetry
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch {
	case c.TotalClients <= 0:
		return errors.New("fl: TotalClients must be positive")
	case c.PerRound <= 0 || c.PerRound > c.TotalClients:
		return fmt.Errorf("fl: PerRound %d out of range (1..%d)", c.PerRound, c.TotalClients)
	case c.AttackerFrac < 0 || c.AttackerFrac > 0.5:
		// The threat model caps attackers at 50% of clients.
		return fmt.Errorf("fl: AttackerFrac %v outside [0, 0.5]", c.AttackerFrac)
	case c.Rounds <= 0:
		return errors.New("fl: Rounds must be positive")
	case c.LocalEpochs <= 0:
		return errors.New("fl: LocalEpochs must be positive")
	case c.BatchSize <= 0:
		return errors.New("fl: BatchSize must be positive")
	case c.LR <= 0:
		return errors.New("fl: LR must be positive")
	case c.EvalEvery <= 0:
		return errors.New("fl: EvalEvery must be positive")
	}
	if err := c.Codec.Validate(); err != nil {
		return err
	}
	return c.Scenario.Validate()
}

// Simulation wires a dataset, a model architecture, an aggregation rule and
// optionally an attack into the federated round loop.
//
// Client training runs on a bounded worker pool: each worker owns one model
// replica with an attached scratch arena, both reused across clients and
// rounds, so per-round cost does not include model construction and the
// steady-state training path does not allocate. A client's result depends
// only on the global weights and its private randomness, never on which
// worker trains it, so Parallel changes wall-clock only — see
// TestParallelDeterminism.
type Simulation struct {
	cfg        Config
	train      *dataset.Dataset
	test       *dataset.Dataset
	shards     [][]int
	malicious  []bool
	newModel   func(rng *rand.Rand) *nn.Network
	aggregator Aggregator
	attack     Attack

	clients []*BenignClient
	global  *nn.Network
	pool    *TrainPool
	eval    *Evaluator
}

// NewSimulation constructs a simulation. shards assigns training-sample
// indices to each of cfg.TotalClients clients (see dataset.PartitionDirichlet);
// attack may be nil for a clean run. The first ⌊AttackerFrac·N⌋ client IDs
// are designated malicious; because selection each round is uniform, which
// IDs carry the flag is immaterial.
func NewSimulation(cfg Config, train, test *dataset.Dataset, shards [][]int,
	newModel func(rng *rand.Rand) *nn.Network, agg Aggregator, attack Attack) (*Simulation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(shards) != cfg.TotalClients {
		return nil, fmt.Errorf("fl: %d shards for %d clients", len(shards), cfg.TotalClients)
	}
	if agg == nil {
		return nil, errors.New("fl: aggregator must not be nil")
	}
	s := &Simulation{
		cfg:        cfg,
		train:      train,
		test:       test,
		shards:     shards,
		newModel:   newModel,
		aggregator: agg,
		attack:     attack,
	}
	numAttackers := int(float64(cfg.TotalClients) * cfg.AttackerFrac)
	if attack == nil {
		numAttackers = 0
	}
	s.malicious = make([]bool, cfg.TotalClients)
	for i := 0; i < numAttackers; i++ {
		s.malicious[i] = true
	}
	s.clients = make([]*BenignClient, cfg.TotalClients)
	for i := 0; i < cfg.TotalClients; i++ {
		if s.malicious[i] {
			continue
		}
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*7919 + 1))
		// Clients hold no model of their own; the worker pool's reused
		// replicas are passed in per round via TrainWith.
		s.clients[i] = NewBenignClient(i, train, shards[i], nil, cfg.LR, cfg.LocalEpochs, cfg.BatchSize, rng)
	}
	s.global = newModel(rand.New(rand.NewSource(cfg.Seed)))
	s.pool = NewTrainPool(newModel, cfg.Seed)
	s.eval = NewEvaluator(test, cfg.EvalLimit)
	return s, nil
}

// GlobalWeights returns a copy of the current global weight vector.
func (s *Simulation) GlobalWeights() []float64 {
	return s.global.WeightVector()
}

// NumAttackers returns the number of malicious clients in the population.
func (s *Simulation) NumAttackers() int {
	n := 0
	for _, m := range s.malicious {
		if m {
			n++
		}
	}
	return n
}

// simTransport exposes the simulation's bounded worker-pool training as an
// engine Transport.
type simTransport struct{ s *Simulation }

// Collect implements Transport.
func (t simTransport) Collect(_ int, ids []int, global, _ []float64) ([]Update, error) {
	return t.s.trainBenign(ids, global)
}

// Run executes the configured number of rounds on the shared round engine
// and returns the result. The zero-value Scenario reproduces the
// pre-engine loop bit-identically (see TestParallelDeterminism).
func (s *Simulation) Run() (*Result, error) {
	eng := &Engine{
		TotalClients: s.cfg.TotalClients,
		PerRound:     s.cfg.PerRound,
		Rounds:       s.cfg.Rounds,
		EvalEvery:    s.cfg.EvalEvery,
		Seed:         s.cfg.Seed,
		Scenario:     s.cfg.Scenario,
		Transport:    simTransport{s},
		Aggregator:   s.aggregator,
		Attack:       s.attack,
		Malicious:    s.malicious,
		NewModel:     s.newModel,
		Observer:     s.cfg.Observer,
		Codec:        s.cfg.Codec,
		Telemetry:    s.cfg.Telemetry,
		// Attackers report a plausible sample count (the mean benign shard
		// size) so weighted aggregation cannot trivially expose them.
		AttackSamples: s.meanShardSize(),
		Evaluate: func(weights []float64) (float64, error) {
			if err := s.global.SetWeightVector(weights); err != nil {
				return 0, err
			}
			return s.eval.Accuracy(s.global, s.cfg.Parallel), nil
		},
	}
	res, final, err := eng.Run(s.global.WeightVector())
	if err != nil {
		return nil, err
	}
	if err := s.global.SetWeightVector(final); err != nil {
		return nil, err
	}
	return res, nil
}

func (s *Simulation) meanShardSize() int {
	total, n := 0, 0
	for i, c := range s.clients {
		if s.malicious[i] || c == nil {
			continue
		}
		total += c.NumSamples()
		n++
	}
	if n == 0 {
		return 1
	}
	return total / n
}

// trainBenign trains the selected benign clients on the bounded worker
// pool. Serial and parallel execution produce identical updates.
func (s *Simulation) trainBenign(ids []int, global []float64) ([]Update, error) {
	return s.pool.Train(ids, s.cfg.Parallel, func(id int, model *nn.Network) (Update, error) {
		return s.clients[id].TrainWith(global, model)
	})
}

// TrainPool is the bounded client-training worker pool of the in-process
// simulations: at most tensor.Workers() goroutines run, each owning one
// reused model replica with its own scratch arena. The replica weights are
// fully overwritten at the start of every client's training, so the
// constructor randomness is irrelevant.
type TrainPool struct {
	newModel func(rng *rand.Rand) *nn.Network
	seed     int64
	workers  []*nn.Network
}

// NewTrainPool returns an empty pool whose replicas newModel builds on
// demand.
func NewTrainPool(newModel func(rng *rand.Rand) *nn.Network, seed int64) *TrainPool {
	return &TrainPool{newModel: newModel, seed: seed}
}

// Train returns train(ids[i], replica) for every i, in order: serially on
// one replica, or with parallel set, fanned out over up to
// tensor.Workers() replicas. The first error in ids order wins.
func (p *TrainPool) Train(ids []int, parallel bool, train func(id int, model *nn.Network) (Update, error)) ([]Update, error) {
	updates := make([]Update, len(ids))
	if len(ids) == 0 {
		return updates, nil
	}
	workers := 1
	if parallel {
		workers = tensor.Workers()
	}
	if workers > len(ids) {
		workers = len(ids)
	}
	for len(p.workers) < workers {
		m := p.newModel(rand.New(rand.NewSource(p.seed)))
		m.SetScratch(tensor.NewPool())
		p.workers = append(p.workers, m)
	}

	if workers <= 1 {
		model := p.workers[0]
		for i, id := range ids {
			u, err := train(id, model)
			if err != nil {
				return nil, err
			}
			updates[i] = u
		}
		return updates, nil
	}

	// Workers drain a shared counter within the global slot budget, so the
	// -threads pin bounds the total compute goroutines.
	errs := make([]error, len(ids))
	var next atomic.Int64
	tensor.FanOut(workers, func(w int) {
		model := p.workers[w]
		for {
			i := int(next.Add(1)) - 1
			if i >= len(ids) {
				return
			}
			updates[i], errs[i] = train(ids[i], model)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return updates, nil
}
