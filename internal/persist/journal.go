package persist

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// journalLine is the on-disk shape of one entry.
type journalLine struct {
	Key     string          `json:"key"`
	Payload json.RawMessage `json:"payload"`
}

var errClosed = errors.New("persist: journal closed")

// journalFile is the one implementation of the run-store format behind
// Journal, SharedJournal and ReadEntries: it owns the file, scans it
// forward from a byte offset, and appends with write, sync and rollback.
// Its recovery rule is the whole crash-tolerance contract:
//
//   - An unterminated final line is a torn append, the only damage an
//     interrupted single-write append can leave. A repairing scan (an
//     exclusive opener) terminates it in place when it still decodes — the
//     tear ate only the newline — and truncates it away otherwise. A
//     read-only scan leaves it unconsumed.
//   - A newline-terminated line that does not decode is corruption wherever
//     it sits, and every scan reports it.
type journalFile struct {
	mu   sync.Mutex
	path string
	f    *os.File
	// off is the byte offset after the last consumed line: scans resume
	// from it and appends land at it.
	off int64
	// entries is the last-wins view of every consumed line; nil for a view
	// that retains no payloads (stream journals), where lines still counts.
	entries map[string]json.RawMessage
	lines   int
}

// decodeLine parses one journal line without its newline. Anything but a
// JSON object with a non-empty key is damage.
func decodeLine(raw []byte) (journalLine, bool) {
	var line journalLine
	if err := json.Unmarshal(raw, &line); err != nil || line.Key == "" {
		return journalLine{}, false
	}
	return line, true
}

// newLine validates key and encodes payload as one entry.
func newLine(key string, payload any) (journalLine, error) {
	if key == "" {
		return journalLine{}, errors.New("persist: journal key must not be empty")
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return journalLine{}, fmt.Errorf("persist: journal payload: %w", err)
	}
	return journalLine{Key: key, Payload: raw}, nil
}

// scan consumes the lines in [off, EOF), passing each intact entry to apply
// in file order, under the recovery rule above; repair permits mutating the
// file and must only be set by an exclusive holder.
func (c *journalFile) scan(repair bool, apply func(journalLine)) error {
	st, err := c.f.Stat()
	if err != nil {
		return fmt.Errorf("persist: journal stat: %w", err)
	}
	size := st.Size()
	if size < c.off {
		// Consumed lines are never rewritten, so only an outside
		// truncation can shrink the file behind this view.
		return fmt.Errorf("persist: journal %s shrank below offset %d", c.path, c.off)
	}
	if size == c.off {
		return nil
	}
	rd := bufio.NewReaderSize(io.NewSectionReader(c.f, c.off, size-c.off), 64<<10)
	for c.off < size {
		raw, err := rd.ReadBytes('\n')
		if err == io.EOF { // an unterminated final line: a torn append
			if !repair {
				return nil
			}
			if line, ok := decodeLine(raw); ok {
				if _, err := c.f.WriteAt([]byte{'\n'}, size); err != nil {
					return fmt.Errorf("persist: journal terminate: %w", err)
				}
				apply(line)
				c.off = size + 1
				return nil
			}
			if err := c.f.Truncate(c.off); err != nil {
				return fmt.Errorf("persist: journal truncate: %w", err)
			}
			return nil
		}
		if err != nil {
			return fmt.Errorf("persist: journal read: %w", err)
		}
		if len(raw) > 1 { // a bare newline carries no entry
			line, ok := decodeLine(raw[:len(raw)-1])
			if !ok {
				return fmt.Errorf("persist: journal %s corrupt at offset %d", c.path, c.off)
			}
			apply(line)
		}
		c.off += int64(len(raw))
	}
	return nil
}

// keep applies one consumed entry to the in-memory view.
func (c *journalFile) keep(line journalLine) {
	c.lines++
	if c.entries != nil {
		c.entries[line.Key] = line.Payload
	}
}

// write appends lines at the consumed offset, syncing before it returns
// when sync is set, and applies them to the view. On failure it truncates
// back to the offset: a later append must land on a line boundary, or the
// partial bytes would become mid-file corruption instead of a torn tail.
func (c *journalFile) write(lines []journalLine, sync bool) error {
	if c.f == nil {
		return errClosed
	}
	var buf []byte
	for _, line := range lines {
		b, err := json.Marshal(line)
		if err != nil {
			return fmt.Errorf("persist: journal line: %w", err)
		}
		buf = append(append(buf, b...), '\n')
	}
	if _, err := c.f.WriteAt(buf, c.off); err != nil {
		_ = c.f.Truncate(c.off)
		return fmt.Errorf("persist: journal write: %w", err)
	}
	if sync {
		if err := c.f.Sync(); err != nil {
			_ = c.f.Truncate(c.off)
			return fmt.Errorf("persist: journal sync: %w", err)
		}
	}
	c.off += int64(len(buf))
	for _, line := range lines {
		c.keep(line)
	}
	return nil
}

// get decodes the latest payload under key; the caller holds mu.
func (c *journalFile) get(key string, payload any) (bool, error) {
	raw, ok := c.entries[key]
	if !ok {
		return false, nil
	}
	if err := json.Unmarshal(raw, payload); err != nil {
		return false, fmt.Errorf("persist: journal decode %q: %w", key, err)
	}
	return true, nil
}

// Lookup returns the most recent payload recorded under key in this view
// (a stream journal retains none and reports every key absent).
func (c *journalFile) Lookup(key string, payload any) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.get(key, payload)
}

// Len reports the number of distinct keys in the view (for a stream
// journal, the number of lines written or replayed).
func (c *journalFile) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries == nil {
		return c.lines
	}
	return len(c.entries)
}

// Keys returns the distinct keys in the view, in no particular order.
func (c *journalFile) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, len(c.entries))
	for k := range c.entries {
		keys = append(keys, k)
	}
	return keys
}

// close syncs first when asked, runs release, and closes the file.
func (c *journalFile) close(sync bool, release func()) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	var err error
	if sync {
		err = c.f.Sync()
	}
	release()
	if cerr := c.f.Close(); err == nil {
		err = cerr
	}
	c.f = nil
	return err
}

// Journal is an append-only JSONL outcome store: one JSON object per line,
// each carrying a caller-chosen key and an opaque payload. It is the
// durability layer of the resumable experiment grid — a sweep appends every
// completed cell, and a restarted sweep replays the journal to skip work it
// already paid for. The format is deliberately crash-tolerant: a process
// killed mid-append leaves at most one unterminated final line, which Open
// repairs, so the journal never needs manual repair.
type Journal struct {
	journalFile
	// streaming marks a write-only journal (OpenJournalStream): payloads
	// are not retained in memory and appends are not individually synced,
	// so an unbounded audit stream costs O(1) memory and no fsync stalls.
	streaming bool
	// unlock releases the single-owner lock taken at open.
	unlock func()
}

// OpenJournal opens (creating if needed) the journal at path and replays
// its existing entries. Later lines win on duplicate keys. An unterminated
// final line — the signature of a crash mid-append — is repaired; a
// damaged newline-terminated line anywhere is reported as an error.
func OpenJournal(path string) (*Journal, error) {
	return openJournal(path, false)
}

// OpenJournalStream opens the journal as a write-mostly audit stream: the
// same on-disk format and crash tolerance, but appended payloads are not
// retained in memory (Lookup reports every key absent) and appends are
// not individually fsynced — a torn tail on power loss is exactly the
// recoverable damage replay already handles. Use it for journals that
// grow with run length (the forensics audit stream), where OpenJournal's
// replay map would be an unbounded leak and a per-round fsync a stall.
func OpenJournalStream(path string) (*Journal, error) {
	return openJournal(path, true)
}

func openJournal(path string, streaming bool) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: open journal: %w", err)
	}
	// Two writers interleaving lines at overlapping offsets would corrupt
	// the store mid-file (unrecoverable, unlike a torn tail), so the
	// journal is single-owner: the lock is held until Close.
	unlock, err := lockJournal(path, f)
	if err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("persist: journal %s is in use by another process: %w", path, err)
	}
	j := &Journal{journalFile: journalFile{path: path, f: f}, streaming: streaming, unlock: unlock}
	if !streaming {
		j.entries = make(map[string]json.RawMessage)
	}
	if err := j.scan(true, j.keep); err != nil {
		unlock()
		_ = f.Close()
		return nil, err
	}
	return j, nil
}

// Append durably records payload under key: the line is written and synced
// before Append returns, and the in-memory view is updated.
func (j *Journal) Append(key string, payload any) error {
	line, err := newLine(key, payload)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.write([]journalLine{line}, !j.streaming)
}

// Close releases the lock and the underlying file, syncing buffered
// stream appends first. Further Appends fail.
func (j *Journal) Close() error {
	return j.close(j.streaming, j.unlock)
}
