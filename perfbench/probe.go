package main

import (
	"fmt"
	"math/rand"
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
	"repro/internal/tensor"
)

// Probes time one public call at the shapes a workload executes. Each is
// repeated and reported as the median of its repetitions.

// probeBudget bounds the repetitions of one probe: at least minReps, then
// more until the probe has run for probeBudget or maxReps.
const (
	probeBudget = 25 * time.Millisecond
	minReps     = 3
	maxReps     = 200
)

// repeat calls fn, which returns the duration of the part it measures,
// repeatedly and returns the median of those durations.
func repeat(fn func() time.Duration) time.Duration {
	var ds []float64
	start := time.Now()
	for len(ds) < maxReps && (len(ds) < minReps || time.Since(start) < probeBudget) {
		ds = append(ds, float64(fn()))
	}
	return time.Duration(median(ds))
}

// timeReps times the whole of fn with repeat.
func timeReps(fn func()) time.Duration {
	return repeat(func() time.Duration {
		t := time.Now()
		fn()
		return time.Since(t)
	})
}

// convShape is one convolution a workload executes: input [batch, inC, size,
// size], outC filters of kernel×kernel at stride and pad.
type convShape struct {
	transposed                             bool
	batch, inC, size, outC, k, stride, pad int
}

// key names the shape in metric names, e.g. 3x16x16-8k3s1p1-b16.
func (c convShape) key() string {
	return fmt.Sprintf("%dx%dx%d-%dk%ds%dp%d-b%d", c.inC, c.size, c.size, c.outC, c.k, c.stride, c.pad, c.batch)
}

// convShapes walks a network's Layers() from an input of inC channels and
// the given side, returning every (transposed) convolution it executes.
func convShapes(net *nn.Network, batch, inC, size int) []convShape {
	var out []convShape
	for _, l := range net.Layers() {
		switch c := l.(type) {
		case *nn.Conv2D:
			out = append(out, convShape{false, batch, inC, size, c.OutC, c.Kernel, c.Stride, c.Pad})
			inC, size = c.OutC, c.OutSize(size)
		case *nn.ConvTranspose2D:
			out = append(out, convShape{true, batch, inC, size, c.OutC, c.Kernel, c.Stride, c.Pad})
			inC, size = c.OutC, c.OutSize(size)
		case *nn.Flatten:
			return out
		}
	}
	return out
}

// benchmarkConvShapes lists the convolutions of all three workloads, read
// from the models they construct: the classifiers at the training batch,
// the DFA-G generators at the synthetic-set size, and the DFA-R filter
// layer, which runs one image at a time.
func benchmarkConvShapes() []convShape {
	rng := rand.New(rand.NewSource(1))
	cifar, fashion, tiny := dataset.CIFARSpec(), dataset.FashionSpec(), dataset.TinySpec()
	batch := 16                                    // Config.BatchSize default
	synth := experiment.QuickProfile().SampleCount // |S| of the quick profile
	var all []convShape
	all = append(all, convShapes(nn.NewDeepCNN(rng, cifar.Channels, cifar.Size, cifar.Classes), batch, cifar.Channels, cifar.Size)...)
	all = append(all, convShapes(nn.NewFashionCNN(rng, fashion.Channels, fashion.Size, fashion.Classes), batch, fashion.Channels, fashion.Size)...)
	all = append(all, convShapes(nn.NewFashionCNN(rng, tiny.Channels, tiny.Size, tiny.Classes), batch, tiny.Channels, tiny.Size)...)
	for _, spec := range []dataset.Spec{cifar, fashion} {
		latentC, latent, _ := nn.GeneratorLatentSize(spec.Size)
		all = append(all, convShapes(nn.NewGenerator(rng, spec.Channels, spec.Size), synth, latentC, latent)...)
	}
	filter := nn.NewNetwork(nn.NewConv2D(rng, fashion.Channels, fashion.Channels, 3, 1, 1))
	all = append(all, convShapes(filter, 1, fashion.Channels, fashion.Size)...)
	seen := map[string]bool{}
	var out []convShape
	for _, c := range all {
		k := fmt.Sprint(c.transposed, c.key())
		if !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	return out
}

// probeConv times one forward and one backward pass of the layer, in µs.
func probeConv(c convShape) (fwd, bwd float64) {
	rng := rand.New(rand.NewSource(2))
	var layer nn.Layer
	if c.transposed {
		layer = nn.NewConvTranspose2D(rng, c.inC, c.outC, c.k, c.stride, c.pad)
	} else {
		layer = nn.NewConv2D(rng, c.inC, c.outC, c.k, c.stride, c.pad)
	}
	net := nn.NewNetwork(layer)
	net.SetScratch(tensor.NewPool())
	x := tensor.New(c.batch, c.inC, c.size, c.size)
	x.FillUniform(rng, -1, 1)
	var y *tensor.Tensor
	fwdD := timeReps(func() {
		net.ResetScratch()
		y = net.Forward(x, true)
	})
	g := tensor.New(y.Shape...)
	g.FillUniform(rng, -1, 1)
	bwdD := repeat(func() time.Duration {
		// Each backward pass needs the input its forward pass cached.
		net.ResetScratch()
		net.Forward(x, true)
		t := time.Now()
		net.Backward(g)
		return time.Since(t)
	})
	return us(fwdD), us(bwdD)
}

// probeGemm returns the GFLOP/s of the per-sample forward GEMM a
// convolution lowers to: weight[outC, inC·k²] × patches[inC·k², outH·outW].
func probeGemm(c convShape) float64 {
	out := (c.size+2*c.pad-c.k)/c.stride + 1
	m, k, n := c.outC, c.inC*c.k*c.k, out*out
	rng := rand.New(rand.NewSource(3))
	a, b, dst := make([]float64, m*k), make([]float64, k*n), make([]float64, m*n)
	for i := range a {
		a[i] = rng.Float64()
	}
	for i := range b {
		b[i] = rng.Float64()
	}
	d := timeReps(func() { tensor.GemmNN(dst, a, b, m, k, n, false) })
	return 2 * float64(m*k*n) / d.Seconds() / 1e9
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// roundInputs is a workload-shaped round: the global model, the benign
// updates of K − m real clients trained from it, and m crafted updates.
type roundInputs struct {
	global    []float64
	benign    [][]float64
	updates   []fl.Update
	attackers int
}

// newRoundInputs trains the round's benign clients on their real shards.
func newRoundInputs(tk *task) (*roundInputs, error) {
	cfg := tk.cfg
	rng := rand.New(rand.NewSource(cfg.Seed))
	model := tk.newModel(rng)
	model.SetScratch(tensor.NewPool())
	ri := &roundInputs{global: model.WeightVector()}
	ri.attackers = max(1, int(float64(cfg.PerRound)*cfg.AttackerFrac+0.5))
	for i := 0; i < cfg.PerRound-ri.attackers; i++ {
		shard := tk.clientShard(i + 1)
		c := fl.NewBenignClient(i+1, tk.train, shard, nil, cfg.LR, cfg.LocalEpochs, cfg.BatchSize, rand.New(rand.NewSource(int64(i))))
		u, err := c.TrainWith(ri.global, model)
		if err != nil {
			return nil, err
		}
		ri.benign = append(ri.benign, u.Weights)
		ri.updates = append(ri.updates, u)
	}
	mal, err := attack.MinMax{}.Craft(ri.context(tk, rng))
	if err != nil {
		return nil, err
	}
	for i, v := range mal {
		ri.updates = append(ri.updates, fl.Update{ClientID: cfg.PerRound + i, Weights: v, NumSamples: len(tk.shard()), Malicious: true})
	}
	if spec := codecSpec(cfg); spec.Enabled() {
		// The engine aggregates the codec's reconstruction and hands the
		// frames to the defense's compressed-domain geometry.
		enc := codec.NewEncoder(spec)
		for i := range ri.updates {
			f := enc.Encode(ri.updates[i].ClientID, 0, ri.global, ri.updates[i].Weights)
			ri.updates[i].Frame = f
			ri.updates[i].Weights = f.Reconstruct(ri.global)
		}
	}
	return ri, nil
}

// clientShard returns client id's shard.
func (t *task) clientShard(id int) []int {
	if t.pop != nil {
		return t.pop.Shard(id)
	}
	return t.shards[id%len(t.shards)]
}

// context is the adversary's view of the round.
func (ri *roundInputs) context(tk *task, rng *rand.Rand) *fl.AttackContext {
	cfg := tk.cfg
	return &fl.AttackContext{
		Global:         ri.global,
		PrevGlobal:     ri.global,
		BenignUpdates:  ri.benign,
		NumAttackers:   ri.attackers,
		NumSelected:    cfg.PerRound,
		TotalClients:   cfg.TotalClients,
		TotalAttackers: int(float64(cfg.TotalClients) * cfg.AttackerFrac),
		NewModel:       tk.newModel,
		Rng:            rng,
	}
}

// probeLayers runs every probe of the workload whose attacked cell tk is
// and returns the per-layer metrics they give, and the wire size of one of
// the cell's updates.
func probeLayers(tk *task) (map[string]float64, int, error) {
	m := map[string]float64{}
	for _, c := range benchmarkConvShapes() {
		fwd, bwd := probeConv(c)
		if c.transposed {
			m["nn.convT_fwd_us."+c.key()], m["nn.convT_bwd_us."+c.key()] = fwd, bwd
			continue
		}
		m["nn.conv_fwd_us."+c.key()], m["nn.conv_bwd_us."+c.key()] = fwd, bwd
		m["tensor.gemm_gflops."+c.key()] = probeGemm(c)
	}

	cfg := tk.cfg
	rng := rand.New(rand.NewSource(cfg.Seed))
	model := tk.newModel(rng)
	model.SetScratch(tensor.NewPool())
	global := model.WeightVector()
	client := fl.NewBenignClient(0, tk.train, tk.shard(), nil, cfg.LR, cfg.LocalEpochs, cfg.BatchSize, rng)
	var err error
	m["fl.train_step_ms"] = ms(timeReps(func() {
		if _, e := client.TrainWith(global, model); e != nil {
			err = e
		}
	}))
	ev := fl.NewEvaluator(tk.test, cfg.EvalLimit)
	ev.Accuracy(model, cfg.Parallel) // creates the evaluator's worker clones
	m["fl.evaluate_ms"] = ms(timeReps(func() { ev.Accuracy(model, cfg.Parallel) }))

	ri, rerr := newRoundInputs(tk)
	if rerr != nil {
		return nil, 0, rerr
	}
	dfa := dfaConfig(cfg, tk.spec)
	m["core.dfag_craft_ms"] = ms(timeReps(func() {
		a, e := core.NewDFAG(dfa)
		if e == nil {
			_, e = a.Craft(ri.context(tk, rand.New(rand.NewSource(4))))
		}
		if e != nil {
			err = e
		}
	}))
	m["core.dfar_craft_ms"] = ms(timeReps(func() {
		a, e := core.NewDFAR(dfa)
		if e == nil {
			_, e = a.Craft(ri.context(tk, rand.New(rand.NewSource(5))))
		}
		if e != nil {
			err = e
		}
	}))
	m["attack.minmax_craft_ms"] = ms(timeReps(func() {
		if _, e := (attack.MinMax{}).Craft(ri.context(tk, rand.New(rand.NewSource(6)))); e != nil {
			err = e
		}
	}))

	// The tiny task's test split is too small for REFD's balanced
	// reference; the probe then draws it from the training split.
	ref, rerr := core.BalancedReference(tk.test, cfg.RefPerClass)
	if rerr != nil {
		if ref, rerr = core.BalancedReference(tk.train, cfg.RefPerClass); rerr != nil {
			return nil, 0, rerr
		}
	}
	refd, rerr := core.NewREFD(ref, tk.newModel, 1, cfg.RejectX)
	if rerr != nil {
		return nil, 0, rerr
	}
	aggs := map[string]fl.Aggregator{"core.refd_aggregate_ms": refd}
	for name, rule := range map[string]string{"defense.mkrum_ms": "mkrum", "defense.bulyan_ms": "bulyan"} {
		if aggs[name], rerr = defense.ByName(rule, cfg.FProxy); rerr != nil {
			return nil, 0, rerr
		}
	}
	for name, agg := range aggs {
		m[name] = ms(timeReps(func() {
			if _, _, e := agg.Aggregate(ri.global, ri.updates); e != nil {
				err = e
			}
		}))
	}

	// Workloads without a codec are probed with the population workload's
	// spec, so the row still tracks the codec at this model's size.
	spec := codecSpec(cfg)
	if !spec.Enabled() {
		spec = codec.Spec{Quant: codec.Int8, TopK: 0.1, EF: true}
	}
	enc := codec.NewEncoder(spec)
	i := 0
	m["codec.encode_us"] = us(timeReps(func() {
		u := ri.updates[i%len(ri.updates)]
		enc.Encode(u.ClientID, i/len(ri.updates), ri.global, u.Weights)
		i++
	}))

	m["population.shard_us_p50"] = 0
	if tk.pop != nil {
		pop, perr := population.New(tk.pop.Spec(), tk.train)
		if perr != nil {
			return nil, 0, perr
		}
		ids := rand.New(rand.NewSource(7)).Perm(1000)
		var ds []float64
		for _, id := range ids[:200] {
			t := time.Now()
			pop.Shard(id * (cfg.TotalClients / 1000))
			ds = append(ds, float64(time.Since(t)))
		}
		m["population.shard_us_p50"] = us(time.Duration(median(ds)))
	}
	// An update's wire size: a codec frame when the cell compresses, 8
	// bytes per coordinate otherwise.
	perUpdate := 8 * len(ri.global)
	if codecSpec(cfg).Enabled() {
		perUpdate = codec.WireSize(ri.updates[0].Frame)
	}
	return m, perUpdate, err
}
