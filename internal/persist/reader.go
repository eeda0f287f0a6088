package persist

import (
	"encoding/json"
	"fmt"
	"os"
)

// Entry is one journal line as seen by a read-only consumer.
type Entry struct {
	Key     string
	Payload json.RawMessage
}

// ReadEntries loads every intact line of the journal at path without
// taking the single-owner lock or mutating the file: the read-only view a
// replay or dashboard service needs over a journal some past (or even
// live) run produced. Lines appear in file order — for duplicate keys the
// caller sees every version, unlike Journal's last-wins map. An
// unterminated final line (a torn or in-flight append) is not consumed; a
// damaged newline-terminated line is an error, as it is for every opener.
func ReadEntries(path string) ([]Entry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("persist: read journal: %w", err)
	}
	defer f.Close()
	var out []Entry
	r := journalFile{path: path, f: f}
	if err := r.scan(false, func(line journalLine) { out = append(out, Entry(line)) }); err != nil {
		return nil, err
	}
	return out, nil
}
