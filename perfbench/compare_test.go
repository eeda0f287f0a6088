package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestCompareMetricVerdicts(t *testing.T) {
	bound := 0.1
	lower := metaMetric{Name: "wall_s", Better: "lower", Bound: &bound}
	parent := []float64{10, 10.2, 9.9, 10.1, 10, 10.3, 9.8, 10.1, 10, 10.2}

	faster := make([]float64, len(parent))
	for i, v := range parent {
		faster[i] = v * 0.8
	}
	r := compareMetric("w", lower, parent, faster)
	if r.winFrac != 1 || r.pairs != 10 || r.verdict != "better" {
		t.Errorf("20%% faster: win %v of %d, verdict %q", r.winFrac, r.pairs, r.verdict)
	}

	slower := make([]float64, len(parent))
	for i, v := range parent {
		slower[i] = v * 1.2
	}
	if r := compareMetric("w", lower, parent, slower); !strings.HasPrefix(r.verdict, "worse") || r.winFrac != 0 {
		t.Errorf("20%% slower: win %v, verdict %q", r.winFrac, r.verdict)
	}

	// A tie counts for neither side.
	if r := compareMetric("w", lower, parent, parent); r.winFrac != 0 || r.verdict != "no regression" {
		t.Errorf("identical sides: win %v, verdict %q", r.winFrac, r.verdict)
	}

	noisy := []float64{5, 15, 6, 14, 10, 10, 7, 13, 9, 11}
	if r := compareMetric("w", lower, noisy, noisy); !strings.HasPrefix(r.verdict, "unresolved") {
		t.Errorf("spread wider than the bound: verdict %q", r.verdict)
	}

	higher := metaMetric{Name: "updates_per_s", Better: "higher", Bound: &bound}
	if r := compareMetric("w", higher, parent, faster); !strings.HasPrefix(r.verdict, "worse") {
		t.Errorf("throughput 20%% lower: verdict %q", r.verdict)
	}
}

func TestCompareRefusesOtherMachines(t *testing.T) {
	mk := func(cpu, rev string, wall float64) record {
		return record{
			Fingerprint: fingerprint{CPU: cpu, NProc: 2, GOMAXPROCS: 2, Go: "go1.24.0", Revision: rev},
			Workload:    "w",
			Metrics:     map[string]metricValue{"wall_s": {Value: wall, Unit: "s"}},
		}
	}
	a := []record{mk("cpu-a", "r1", 10), mk("cpu-a", "r1", 11)}
	var out bytes.Buffer
	if err := compare(&out, nil, a, []record{mk("cpu-b", "r2", 9)}); !errors.Is(err, errMachines) {
		t.Fatalf("different CPUs compared: %v", err)
	}
	out.Reset()
	if err := compare(&out, nil, a, []record{mk("cpu-a", "r2", 9), mk("cpu-a", "r2", 9.5)}); err != nil {
		t.Fatalf("two revisions on one machine: %v", err)
	}
	if !strings.Contains(out.String(), "wall_s") || !strings.Contains(out.String(), "100%/2") {
		t.Errorf("report misses the pair wins:\n%s", out.String())
	}
}
