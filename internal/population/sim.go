package population

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/dataset"
	"repro/internal/fl"
	"repro/internal/nn"
)

// FloydSampler selects K of N clients uniformly without replacement in
// O(K) time and memory via Floyd's algorithm. fl.UniformSampler's
// rng.Perm(N) is bit-compatible with the paper's loop but allocates O(N)
// per round — 8 MB per round at N = 10⁶ — so population-backed runs default
// to this sampler instead.
type FloydSampler struct {
	// K is the number of clients selected per round.
	K int
}

var _ fl.ClientSampler = FloydSampler{}

// Name implements fl.ClientSampler.
func (s FloydSampler) Name() string { return fmt.Sprintf("floyd-%d", s.K) }

// Validate reports configuration errors.
func (s FloydSampler) Validate() error {
	if s.K <= 0 {
		return errors.New("population: floyd sampler K must be positive")
	}
	return nil
}

// Sample implements fl.ClientSampler. The result is sorted so downstream
// iteration order is deterministic and cache-friendly.
func (s FloydSampler) Sample(rng *rand.Rand, _, total int) []int {
	k := s.K
	if k > total {
		k = total
	}
	chosen := make(map[int]struct{}, k)
	ids := make([]int, 0, k)
	for j := total - k; j < total; j++ {
		t := rng.Intn(j + 1)
		if _, taken := chosen[t]; taken {
			t = j
		}
		chosen[t] = struct{}{}
		ids = append(ids, t)
	}
	sort.Ints(ids)
	return ids
}

// Simulation runs the federated round engine over a virtual population:
// the lazy analogue of fl.Simulation. Per-round memory is O(PerRound)
// participants plus the population's LRU cache — never O(TotalClients).
//
// cfg.AttackerFrac is ignored; the Placement is the authoritative attacker
// assignment. cfg.Scenario composes as in fl.Simulation, except that a nil
// sampler defaults to FloydSampler rather than the O(N) uniform one.
type Simulation struct {
	cfg      fl.Config
	train    *dataset.Dataset
	test     *dataset.Dataset
	pop      *Population
	place    Placement
	newModel func(rng *rand.Rand) *nn.Network
	agg      fl.Aggregator
	attack   fl.Attack

	global *nn.Network
	pool   *fl.TrainPool
	eval   *fl.Evaluator
}

// NewSimulation wires a population, placement, model factory, aggregation
// rule and optional attack into the shared round engine. place may be nil
// when attack is nil (a clean run).
func NewSimulation(cfg fl.Config, train, test *dataset.Dataset, pop *Population, place Placement,
	newModel func(rng *rand.Rand) *nn.Network, agg fl.Aggregator, attack fl.Attack) (*Simulation, error) {
	cfg.AttackerFrac = 0 // placement is authoritative; keep fl.Config validation happy
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if pop == nil {
		return nil, errors.New("population: simulation requires a population")
	}
	if cfg.TotalClients != pop.Len() {
		return nil, fmt.Errorf("population: config TotalClients %d != population size %d", cfg.TotalClients, pop.Len())
	}
	if agg == nil {
		return nil, errors.New("population: aggregator must not be nil")
	}
	if attack != nil && place == nil {
		return nil, errors.New("population: an attacked run requires a placement")
	}
	s := &Simulation{
		cfg:      cfg,
		train:    train,
		test:     test,
		pop:      pop,
		place:    place,
		newModel: newModel,
		agg:      agg,
		attack:   attack,
	}
	s.global = newModel(rand.New(rand.NewSource(cfg.Seed)))
	s.pool = fl.NewTrainPool(newModel, cfg.Seed)
	s.eval = fl.NewEvaluator(test, cfg.EvalLimit)
	return s, nil
}

// GlobalWeights returns a copy of the current global weight vector.
func (s *Simulation) GlobalWeights() []float64 { return s.global.WeightVector() }

// popTransport exposes lazy-materialized client training as an engine
// Transport.
type popTransport struct{ s *Simulation }

// Collect implements fl.Transport: materialize each selected client's shard
// from the population (LRU-cached) and train it on the worker pool. A
// client's training randomness is a pure function of (seed, id, round), so
// results are independent of materialization and scheduling order — the
// lazy analogue of fl.Simulation's persistent per-client RNGs, which cannot
// exist for a million clients.
func (t popTransport) Collect(round int, ids []int, global, _ []float64) ([]fl.Update, error) {
	s := t.s
	return s.pool.Train(ids, s.cfg.Parallel, func(id int, model *nn.Network) (fl.Update, error) {
		return s.trainClient(round, id, global, model)
	})
}

// trainClient trains one virtual client on one worker model.
func (s *Simulation) trainClient(round, id int, global []float64, model *nn.Network) (fl.Update, error) {
	shard := s.pop.Shard(id)
	rng := rand.New(rand.NewSource(mix64(uint64(s.cfg.Seed)^uint64(round)*0x9E3779B97F4A7C15, uint64(id)<<8|streamTrain)))
	client := fl.NewBenignClient(id, s.train, shard, nil, s.cfg.LR, s.cfg.LocalEpochs, s.cfg.BatchSize, rng)
	return client.TrainWith(global, model)
}

// Run executes the configured number of rounds on the shared round engine.
func (s *Simulation) Run() (*fl.Result, error) {
	scenario := s.cfg.Scenario
	if scenario.Sampler == nil {
		scenario.Sampler = FloydSampler{K: s.cfg.PerRound}
	}
	eng := &fl.Engine{
		TotalClients: s.cfg.TotalClients,
		PerRound:     s.cfg.PerRound,
		Rounds:       s.cfg.Rounds,
		EvalEvery:    s.cfg.EvalEvery,
		Seed:         s.cfg.Seed,
		Scenario:     scenario,
		Transport:    popTransport{s},
		Aggregator:   s.agg,
		Attack:       s.attack,
		NewModel:     s.newModel,
		Observer:     s.cfg.Observer,
		Codec:        s.cfg.Codec,
		Telemetry:    s.cfg.Telemetry,
		// Attackers report the population's mean shard size so weighted
		// aggregation cannot trivially expose them.
		AttackSamples: s.pop.MeanShardSize(),
		Evaluate: func(weights []float64) (float64, error) {
			if err := s.global.SetWeightVector(weights); err != nil {
				return 0, err
			}
			return s.eval.Accuracy(s.global, s.cfg.Parallel), nil
		},
	}
	if s.attack != nil {
		eng.IsMalicious = s.place.IsMalicious
		eng.TotalAttackers = s.place.Total()
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
