package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/persist"
	"repro/internal/telemetry"
)

// span is one recorded interval of the traced run. The benchmark records
// its own spans around calls into public functions; the engine's per-phase
// spans are ingested from the trace journals experiment.Run writes when
// Config.TraceJournal is set. Both use telemetry.Nanos, so they share one
// timeline.
type span struct {
	id, parent int // parent 0 is no parent; ids start at 1
	name       string
	start, end int64
}

func (s span) dur() int64 { return s.end - s.start }

// recorder collects spans in memory; they are summarised when the run
// ends. A nil recorder records nothing, so the untraced passes call the
// same code. Spans are opened and closed on the benchmark's own
// goroutine; concurrent work (grid cells) arrives through ingest.
type recorder struct {
	spans []span
}

// begin opens a span under parent and returns its id.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{id: len(r.spans) + 1, parent: parent, name: name, start: telemetry.Nanos()})
	return len(r.spans)
}

// end closes the span id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.spans[id-1].end = telemetry.Nanos()
}

// get returns the span id.
func (r *recorder) get(id int) span { return r.spans[id-1] }

// add appends a completed span and returns its id.
func (r *recorder) add(name string, parent int, start, end int64) int {
	r.spans = append(r.spans, span{id: len(r.spans) + 1, parent: parent, name: name, start: start, end: end})
	return len(r.spans)
}

// journalSpan is the payload of one line of a telemetry trace journal.
type journalSpan struct {
	Track   string `json:"track"`
	Name    string `json:"name"`
	StartNs int64  `json:"startNs"`
	DurNs   int64  `json:"durNs"`
}

// readJournal loads the spans of one telemetry trace journal.
func readJournal(path string) ([]journalSpan, error) {
	entries, err := persist.ReadEntries(path)
	if err != nil {
		return nil, err
	}
	out := make([]journalSpan, 0, len(entries))
	for _, e := range entries {
		var js journalSpan
		if err := json.Unmarshal(e.Payload, &js); err != nil {
			return nil, fmt.Errorf("trace journal %s: %w", path, err)
		}
		out = append(out, js)
	}
	return out, nil
}

// ingest adds journal spans under parent. With nest, each span goes
// inside the innermost earlier span that contains it (rounds under the
// run, phases under their round, the distance matrix under its
// aggregation), which holds for the sequential spans of one engine;
// without it every span is a direct child (the concurrent cells of a
// grid). The journal file is removed once read.
func (r *recorder) ingest(path string, parent int, nest bool) error {
	js, err := readJournal(path)
	if err != nil {
		return err
	}
	if err := os.Remove(path); err != nil {
		return err
	}
	sort.SliceStable(js, func(i, j int) bool {
		if js[i].StartNs != js[j].StartNs {
			return js[i].StartNs < js[j].StartNs
		}
		return js[i].DurNs > js[j].DurNs
	})
	stack := []int{parent}
	for _, s := range js {
		end := s.StartNs + s.DurNs
		for len(stack) > 1 && r.get(stack[len(stack)-1]).end < end {
			stack = stack[:len(stack)-1]
		}
		id := r.add(s.Name, stack[len(stack)-1], s.StartNs, end)
		if nest {
			stack = append(stack, id)
		}
	}
	return nil
}

// children returns the spans whose parent is id.
func (r *recorder) children(id int) []span {
	var out []span
	for _, s := range r.spans {
		if s.parent == id {
			out = append(out, s)
		}
	}
	return out
}

// findChild returns the id of the first child of parent named name.
func (r *recorder) findChild(parent int, name string) int {
	for _, s := range r.children(parent) {
		if s.name == name {
			return s.id
		}
	}
	return parent
}

// selfTime is a span's duration minus the part of it its child spans
// cover; overlapping children (concurrent grid cells) count once.
func selfTime(s span, children []span) int64 {
	ivs := make([]interval, len(children))
	for i, c := range children {
		ivs[i] = interval{c.start, c.end}
	}
	return s.dur() - unionLen(ivs, s.start, s.end)
}

// untracedShare is the fraction of root's wall-clock covered by none of
// its child spans.
func untracedShare(root span, children []span) float64 {
	if root.dur() <= 0 {
		return 0
	}
	return float64(selfTime(root, children)) / float64(root.dur())
}

// sumNamed sums the durations of the spans named name under root (at any
// depth), in seconds.
func (r *recorder) sumNamed(root int, name string) float64 {
	var total int64
	for _, s := range r.descendants(root) {
		if s.name == name {
			total += s.dur()
		}
	}
	return float64(total) / 1e9
}

// descendants returns every span below root.
func (r *recorder) descendants(root int) []span {
	in := map[int]bool{root: true}
	var out []span
	// Parents are always recorded before their children.
	for _, s := range r.spans {
		if in[s.parent] {
			in[s.id] = true
			out = append(out, s)
		}
	}
	return out
}

// printLadder writes, per span name, the total and self time across every
// recorded span, largest self time first: where the traced run's time went.
func printLadder(w io.Writer, r *recorder) {
	total, self := map[string]int64{}, map[string]int64{}
	kids := map[int][]span{}
	for _, s := range r.spans {
		kids[s.parent] = append(kids[s.parent], s)
	}
	for _, s := range r.spans {
		total[s.name] += s.dur()
		self[s.name] += selfTime(s, kids[s.id])
	}
	names := sortedKeys(total)
	sort.SliceStable(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "%-28s %12s %12s\n", "span", "total_s", "self_s")
	for _, n := range names {
		fmt.Fprintf(w, "%-28s %12.4f %12.4f\n", n, float64(total[n])/1e9, float64(self[n])/1e9)
	}
}
