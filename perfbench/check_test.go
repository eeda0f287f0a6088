package main

import (
	"math"
	"path/filepath"
	"testing"

	"repro/internal/experiment"
	"repro/internal/fl"
)

// cell returns a well-formed three-round outcome and its configuration.
func cell() (experiment.Config, *experiment.Outcome) {
	cfg := experiment.Config{Dataset: "tiny-sim", Attack: "minmax", Defense: "mkrum", Rounds: 3, PerRound: 4, Seed: 9}
	out := &experiment.Outcome{CleanAcc: 0.8, MaxAcc: 0.7, FinalAcc: 0.65, ASR: 12.5, DPR: 50}
	for r := 0; r < 3; r++ {
		acc := 0.6 + 0.05*float64(r)
		out.AccTimeline = append(out.AccTimeline, acc)
		out.Trace = append(out.Trace, fl.RoundStats{Round: r, Accuracy: acc, SelectedMalicious: 1,
			PassedMalicious: 1, Selected: 4, Responded: 4, Aggregations: 1})
	}
	return cfg, out
}

func TestCheckOutcome(t *testing.T) {
	cfg, good := cell()
	if err := checkOutcome(cfg, good, nil); err != nil {
		t.Fatalf("well-formed outcome rejected: %v", err)
	}
	ref := buildRef([]cellValues{valuesOf(good)})
	if err := checkOutcome(cfg, good, &ref); err != nil {
		t.Fatalf("outcome at its own reference rejected: %v", err)
	}
	for name, mutate := range map[string]func(o *experiment.Outcome){
		"NaN DPR":          func(o *experiment.Outcome) { o.DPR = math.NaN() },
		"infinite ASR":     func(o *experiment.Outcome) { o.ASR = math.Inf(1) },
		"missing round":    func(o *experiment.Outcome) { o.Trace = o.Trace[:2] },
		"NaN round acc":    func(o *experiment.Outcome) { o.Trace[1].Accuracy = math.NaN() },
		"dropped client":   func(o *experiment.Outcome) { o.Trace[2].Responded = 3 },
		"passed > sent":    func(o *experiment.Outcome) { o.Trace[0].PassedMalicious = 2 },
		"no aggregation":   func(o *experiment.Outcome) { o.Trace[0].Aggregations = 0 },
		"outside the band": func(o *experiment.Outcome) { o.MaxAcc += 0.5 },
	} {
		_, o := cell()
		mutate(o)
		if err := checkOutcome(cfg, o, &ref); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Within the floor of the band, a shifted result still passes.
	_, o := cell()
	o.MaxAcc += bandFloor.Max / 2
	if err := checkOutcome(cfg, o, &ref); err != nil {
		t.Errorf("result within the band floor rejected: %v", err)
	}
}

func TestBuildRefBand(t *testing.T) {
	vals := []cellValues{{Clean: 0.5, Max: 0.2}, {Clean: 0.7, Max: 0.2}}
	ref := buildRef(vals)
	if !near(ref.Mean.Clean, 0.6) {
		t.Errorf("mean clean = %v, want 0.6", ref.Mean.Clean)
	}
	sd := math.Sqrt(0.02) // sample deviation of {0.5, 0.7}
	if want := bandFloor.Clean + 6*sd; !near(ref.Band.Clean, want) {
		t.Errorf("clean band = %v, want %v", ref.Band.Clean, want)
	}
	if ref.Band.Max != bandFloor.Max {
		t.Errorf("band of a constant = %v, want the floor %v", ref.Band.Max, bandFloor.Max)
	}
}

func TestDigestIsBitExact(t *testing.T) {
	_, a := cell()
	_, b := cell()
	if digest(a) != digest(b) {
		t.Fatal("equal outcomes digest differently")
	}
	b.Trace[2].Accuracy = math.Nextafter(b.Trace[2].Accuracy, 1)
	if digest(a) == digest(b) {
		t.Fatal("a one-ulp change kept the digest")
	}
}

func TestDigestStoreAcrossRuns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "digests.json")
	cfg, out := cell()
	d, err := openDigests(path, "src1")
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := d.matches("w", cfg, out); !ok || err != nil {
		t.Fatalf("first sighting: %v, %v", ok, err)
	}
	if err := d.save(); err != nil {
		t.Fatal(err)
	}

	again, err := openDigests(path, "src1")
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := again.matches("w", cfg, out); !ok {
		t.Error("same code and inputs reported as different")
	}
	_, changed := cell()
	changed.FinalAcc = 0.66
	if ok, _ := again.matches("w", cfg, changed); ok {
		t.Error("a different result for the same code and inputs passed")
	}
	cfg.Seed++
	if ok, _ := again.matches("w", cfg, changed); !ok {
		t.Error("another seed was compared with the first")
	}
	other, err := openDigests(path, "src2")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed--
	if ok, _ := other.matches("w", cfg, changed); !ok {
		t.Error("another source tree was compared with the first")
	}
}

func TestEmbeddedReferenceCoversEveryCell(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		w, err := newWorkload(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range w.cells {
			r, ok := ref.lookup(name, c)
			if !ok {
				t.Errorf("%s: no reference for %s", name, cellName(c))
				continue
			}
			for _, f := range r.Band.fields() {
				if !(f.v > 0) {
					t.Errorf("%s %s: band %s = %v", name, cellName(c), f.name, f.v)
				}
			}
		}
	}
}
