package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"

	"repro/internal/experiment"
)

// The output check. Every cell's paper metrics (clean and attacked
// accuracy, final accuracy, ASR, DPR) and its per-round participation
// trace must be finite and well formed, bit-identical whenever the same
// code runs the same configuration again (traced or not, in this run or an
// earlier one in the same checkout), and inside a band around the
// reference values recorded in reference.json. The band exists because a
// kernel change may reorder floating-point sums and so move results within
// seed noise.

//go:embed reference.json
var referenceJSON []byte

// cellValues are the checked metrics of one cell.
type cellValues struct {
	Clean float64 `json:"clean"`
	Max   float64 `json:"max"`
	Final float64 `json:"final"`
	ASR   float64 `json:"asr"`
	DPR   float64 `json:"dpr"`
}

func valuesOf(out *experiment.Outcome) cellValues {
	return cellValues{Clean: out.CleanAcc, Max: out.MaxAcc, Final: out.FinalAcc, ASR: out.ASR, DPR: out.DPR}
}

// fields lists the metrics by name, in a fixed order.
func (v cellValues) fields() []namedValue {
	return []namedValue{{"clean", v.Clean}, {"max", v.Max}, {"final", v.Final}, {"asr", v.ASR}, {"dpr", v.DPR}}
}

type namedValue struct {
	name string
	v    float64
}

// cellRef is the reference of one cell: the mean of its values over the
// recorded seeds and the half-width of the band any seed's values must
// fall in.
type cellRef struct {
	Mean cellValues `json:"mean"`
	Band cellValues `json:"band"`
}

// reference maps workload → cell name → cell reference.
type reference struct {
	Note      string                        `json:"note"`
	Workloads map[string]map[string]cellRef `json:"workloads"`
}

func loadReference() (*reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return &ref, nil
}

// cellName identifies a cell within its workload.
func cellName(c experiment.Config) string { return c.Dataset + "/" + c.Attack + "/" + c.Defense }

// lookup returns the reference of cfg's cell in workload w, if recorded.
func (r *reference) lookup(w string, cfg experiment.Config) (cellRef, bool) {
	if r == nil {
		return cellRef{}, false
	}
	c, ok := r.Workloads[w][cellName(cfg)]
	return c, ok
}

// checkOutcome validates one cell's outcome; ref may be nil (no band).
func checkOutcome(cfg experiment.Config, out *experiment.Outcome, ref *cellRef) error {
	if out == nil {
		return fmt.Errorf("no outcome")
	}
	v := valuesOf(out)
	for _, f := range v.fields() {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("%s is %v", f.name, f.v)
		}
	}
	if len(out.Trace) != cfg.Rounds || len(out.AccTimeline) != cfg.Rounds {
		return fmt.Errorf("trace has %d rounds and timeline %d, want %d", len(out.Trace), len(out.AccTimeline), cfg.Rounds)
	}
	for i, rs := range out.Trace {
		switch {
		case rs.Round != i:
			return fmt.Errorf("trace entry %d is round %d", i, rs.Round)
		case math.IsNaN(rs.Accuracy) || math.IsInf(rs.Accuracy, 0) || rs.Accuracy != out.AccTimeline[i]:
			return fmt.Errorf("round %d accuracy %v (timeline %v)", i, rs.Accuracy, out.AccTimeline[i])
		case rs.Selected != cfg.PerRound || rs.Responded != rs.Selected || rs.Dropped != 0 || rs.Straggled != 0:
			return fmt.Errorf("round %d participation selected=%d responded=%d dropped=%d straggled=%d, want %d responding",
				i, rs.Selected, rs.Responded, rs.Dropped, rs.Straggled, cfg.PerRound)
		case rs.Aggregations != 1:
			return fmt.Errorf("round %d aggregated %d times", i, rs.Aggregations)
		case rs.SelectedMalicious < 0 || rs.SelectedMalicious > rs.Selected ||
			rs.PassedMalicious < 0 || rs.PassedMalicious > rs.SelectedMalicious:
			return fmt.Errorf("round %d malicious selected=%d passed=%d", i, rs.SelectedMalicious, rs.PassedMalicious)
		}
	}
	if ref == nil {
		return nil
	}
	return ref.check(v)
}

// check tests v against the reference band.
func (c cellRef) check(v cellValues) error {
	mean, band := c.Mean.fields(), c.Band.fields()
	for i, f := range v.fields() {
		if d := math.Abs(f.v - mean[i].v); !(d <= band[i].v) {
			return fmt.Errorf("%s = %.6g is %.3g from the reference mean %.6g (band %.3g)", f.name, f.v, d, mean[i].v, band[i].v)
		}
	}
	return nil
}

// digest hashes every checked value of a cell bit for bit, so two passes
// agree only if their results are bit-identical.
func digest(out *experiment.Outcome) string {
	h := sha256.New()
	put := func(x uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	for _, f := range valuesOf(out).fields() {
		put(math.Float64bits(f.v))
	}
	for _, a := range out.AccTimeline {
		put(math.Float64bits(a))
	}
	for _, rs := range out.Trace {
		put(math.Float64bits(rs.Accuracy))
		for _, n := range []int{rs.Round, rs.SelectedMalicious, rs.PassedMalicious, rs.Selected,
			rs.Dropped, rs.Straggled, rs.Responded, rs.Aggregations} {
			put(uint64(n))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Band floors: the smallest half-width allowed per metric, in the metric's
// own unit (accuracies in [0, 1]; ASR and DPR in percent).
var bandFloor = cellValues{Clean: 0.02, Max: 0.02, Final: 0.02, ASR: 2, DPR: 5}

// buildRef derives a cell reference from its values at several seeds: the
// band is the floor plus the larger of six standard deviations and 1.5
// times the largest recorded distance from the mean. Every pass of every
// run is checked, so the band must leave a seed the recording did not see
// a negligible chance of falling outside it.
func buildRef(vals []cellValues) cellRef {
	n := float64(len(vals))
	var mean, band [5]float64
	floor := bandFloor.fields()
	for j := range mean {
		for _, v := range vals {
			mean[j] += v.fields()[j].v / n
		}
		var ss, far float64
		for _, v := range vals {
			d := v.fields()[j].v - mean[j]
			ss += d * d
			far = math.Max(far, math.Abs(d))
		}
		sd := 0.0
		if n > 1 {
			sd = math.Sqrt(ss / (n - 1))
		}
		band[j] = floor[j].v + math.Max(6*sd, 1.5*far)
	}
	mk := func(a [5]float64) cellValues { return cellValues{a[0], a[1], a[2], a[3], a[4]} }
	return cellRef{Mean: mk(mean), Band: mk(band)}
}

// digestStore remembers each cell's result digest, keyed by the program's
// source hash and the cell's configuration, across the runs made in one
// checkout, so a run whose results differ from an earlier run of the same
// code and inputs fails.
type digestStore struct {
	path   string
	source string
	seen   map[string]string
}

func openDigests(path, source string) (*digestStore, error) {
	d := &digestStore{path: path, source: source, seen: map[string]string{}}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return d, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &d.seen); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// matches records the outcome's digest under its configuration and
// reports whether it equals the digest recorded before, if any.
func (d *digestStore) matches(workload string, cfg experiment.Config, out *experiment.Outcome) (bool, error) {
	raw, err := json.Marshal(cfg)
	if err != nil {
		return false, err
	}
	sum := sha256.Sum256(raw)
	key := d.source + "|" + workload + "|" + hex.EncodeToString(sum[:8])
	g := digest(out)
	if prev, ok := d.seen[key]; ok {
		return prev == g, nil
	}
	d.seen[key] = g
	return true, nil
}

func (d *digestStore) save() error {
	data, err := json.Marshal(d.seen)
	if err != nil {
		return err
	}
	return os.WriteFile(d.path, data, 0o644)
}
