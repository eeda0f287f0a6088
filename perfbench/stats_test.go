package main

import (
	"math"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), which the acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 3}, 0.5, 3.5},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{7.1, 7.4, 7.3, 6.9, 8.0, 7.2, 7.6, 7.0, 7.5, 7.35}, 7.075, 7.525},
	} {
		q1, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	v, pct, n := tail(xs)
	if v != 90 || pct != 90 || n != 100 {
		t.Errorf("tail of 1..100 = %v at p%v (n %d), want 90 at p90", v, pct, n)
	}
	v, pct, _ = tail([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	if v != 6.5 || pct != 50 {
		t.Errorf("tail of 12 samples = %v at p%v, want the median", v, pct)
	}
}

// TestSelfTimeAndUntracedShare checks the span arithmetic: children are
// clipped to their parent and overlapping children count once.
func TestSelfTimeAndUntracedShare(t *testing.T) {
	parent := span{id: 1, start: 0, end: 100}
	kids := []span{
		{parent: 1, start: 10, end: 30},
		{parent: 1, start: 20, end: 40},  // overlaps the first
		{parent: 1, start: 90, end: 120}, // runs past the parent
		{parent: 1, start: -5, end: 0},   // before the parent
	}
	if got := selfTime(parent, kids); got != 60 {
		t.Errorf("selfTime = %d, want 60", got)
	}
	if got := untracedShare(parent, kids); got != 0.6 {
		t.Errorf("untracedShare = %v, want 0.6", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
	if got := unionLen([]interval{{0, 10}, {10, 20}, {30, 35}}, 0, 100); got != 25 {
		t.Errorf("unionLen = %d, want 25", got)
	}
}

// TestIngestNesting reads a telemetry trace journal back: engine spans nest
// by containment, grid cells stay siblings.
func TestIngestNesting(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, spans [][2]int64) string {
		tr := telemetry.NewTracer(0)
		track := tr.Track("engine")
		names := []string{"round", "collect", "attack", "round", "collect"}
		for i, s := range spans {
			tr.Emit(track, names[i%len(names)], s[0], s[1])
		}
		path := filepath.Join(dir, name)
		if err := tr.WriteJournal(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spans := [][2]int64{{1000, 100}, {1010, 40}, {1050, 40}, {1100, 100}, {1110, 40}}

	rec := &recorder{}
	run := rec.add("experiment.run", 0, 990, 1210)
	if err := rec.ingest(write("nested.jsonl", spans), run, true); err != nil {
		t.Fatal(err)
	}
	rounds := rec.children(run)
	if len(rounds) != 2 || rounds[0].name != "round" || rounds[1].name != "round" {
		t.Fatalf("run children = %+v, want two rounds", rounds)
	}
	if got := len(rec.children(rounds[0].id)); got != 2 {
		t.Errorf("first round has %d children, want collect and attack", got)
	}
	if got := selfTime(rec.get(run), rounds); got != 20 {
		t.Errorf("run self time = %d, want 20", got)
	}
	if got := rec.sumNamed(run, "collect"); got != 80e-9 {
		t.Errorf("collect sum = %v s, want 80 ns", got)
	}

	grid := rec.add("experiment.run_grid", 0, 990, 1210)
	if err := rec.ingest(write("flat.jsonl", spans), grid, false); err != nil {
		t.Fatal(err)
	}
	if got := len(rec.children(grid)); got != 5 {
		t.Errorf("flat ingest gave %d direct children, want 5", got)
	}
}

func TestIdleShare(t *testing.T) {
	s := time.Second
	// Two workers, cells ending at 2, 3, 5 and 6 s: busy 5 + 6 of 2 × 6 s.
	if got := idleShare([]time.Duration{2 * s, 3 * s, 5 * s, 6 * s}, 2); !near(got, 1.0/12) {
		t.Errorf("idleShare = %v, want 1/12", got)
	}
	if got := idleShare([]time.Duration{4 * s, 4 * s}, 2); got != 0 {
		t.Errorf("idleShare of two equal cells = %v, want 0", got)
	}
}
