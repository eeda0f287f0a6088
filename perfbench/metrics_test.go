package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesCode keeps ../BENCHMARK.json, which the runs are
// checked against, in step with the workloads and metrics the code
// reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		Workloads []struct{ Name string } `json:"workloads"`
		benchMeta
	}
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(bm.Workloads), len(workloadNames))
	}
	for i, w := range bm.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the code", i, w.Name, workloadNames[i])
		}
	}
	same := func(kind string, json []metaMetric, code []metricDef) {
		if len(json) != len(code) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the code", kind, len(json), len(code))
			return
		}
		for i, m := range json {
			c := code[i]
			if m.Name != c.name || m.Unit != c.unit || m.Better != c.better {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %+v in the code", kind, i, m, c)
			}
		}
	}
	same("end_to_end", bm.EndToEnd, endToEndDefs)
	same("per_layer", bm.PerLayer, perLayerDefs())
}
