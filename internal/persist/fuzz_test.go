package persist

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzJournalRecover throws arbitrary bytes at the journal's crash-recovery
// path and checks the durability contract survives them. On the same bytes
// the three entry points — OpenJournal (single-owner resume), OpenShared
// (multi-writer worker) and ReadEntries (read-only replay) — must agree on
// accepting or rejecting the file, and none may panic. When the file is
// accepted, both journals must be writable, hold the same key set after one
// probe append, and leave a file behind that reopens with the probe intact
// and nothing lost: whatever damage Open tolerated, it must have repaired —
// recovery is idempotent, never compounding.
func FuzzJournalRecover(f *testing.F) {
	line := func(key, payload string) []byte {
		return []byte(`{"key":"` + key + `","payload":` + payload + `}` + "\n")
	}
	valid := line("a", `{"x":1}`)
	after := func(tail string) []byte { return append(append([]byte{}, valid...), tail...) }
	f.Add([]byte{})
	f.Add([]byte("\n\n"))
	f.Add(valid)
	f.Add(bytes.Join([][]byte{line("a", `{"x":1}`), line("a", `{"x":2}`)}, nil))
	// Torn tail: crash mid-append after one good line.
	f.Add(after(`{"key":"b","pa`))
	// Tear that ate exactly the trailing newline.
	f.Add(bytes.TrimSuffix(valid, []byte("\n")))
	// Mid-file corruption: damage followed by more data (must error, not repair).
	f.Add(append([]byte("garbage\n"), valid...))
	// Entry with an empty key (corrupt by contract).
	f.Add(line("", `{}`))
	// A damaged final line that still ends in a newline is corruption, not a
	// torn append: every entry point must reject both of these.
	f.Add(after("garbage\n"))
	f.Add(after(`{"key":"","payload":{}}` + "\n"))

	type probe struct {
		N int `json:"n"`
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		write := func(name string) string {
			path := filepath.Join(dir, name)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			return path
		}
		jpath, spath := write("journal.jsonl"), write("shared.jsonl")
		_, rerr := ReadEntries(write("read.jsonl"))
		j, jerr := OpenJournal(jpath)
		s, serr := OpenShared(spath)
		if (jerr == nil) != (serr == nil) || (jerr == nil) != (rerr == nil) {
			t.Fatalf("verdicts disagree: OpenJournal=%v OpenShared=%v ReadEntries=%v", jerr, serr, rerr)
		}
		if jerr != nil {
			return // rejected as unrecoverable: a legal verdict for fuzz bytes
		}
		before := j.Len()
		if err := j.Append("__fuzz_probe__", probe{N: 42}); err != nil {
			t.Fatalf("append after successful open: %v", err)
		}
		if err := s.Append("__fuzz_probe__", probe{N: 42}); err != nil {
			t.Fatalf("shared append after successful open: %v", err)
		}
		jkeys, skeys := j.Keys(), s.Keys()
		slices.Sort(jkeys)
		slices.Sort(skeys)
		if !slices.Equal(jkeys, skeys) {
			t.Fatalf("key sets disagree after probe: journal %q, shared %q", jkeys, skeys)
		}
		if err := j.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("shared close: %v", err)
		}
		// Recovery must have left well-formed files: reopening can no
		// longer fail or lose the probe, whichever journal repaired them.
		for _, path := range []string{jpath, spath} {
			j2, err := OpenJournal(path)
			if err != nil {
				t.Fatalf("reopen %s after recovery+append: %v", filepath.Base(path), err)
			}
			var got probe
			found, err := j2.Lookup("__fuzz_probe__", &got)
			if err != nil || !found || got.N != 42 {
				t.Fatalf("probe after reopen of %s: found=%v err=%v got=%+v", filepath.Base(path), found, err, got)
			}
			if j2.Len() < before {
				t.Fatalf("reopen of %s lost entries: %d -> %d", filepath.Base(path), before, j2.Len())
			}
			if err := j2.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}
