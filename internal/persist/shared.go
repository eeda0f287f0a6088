package persist

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// ErrLeaseHeld reports that a journal (or a work-claiming lease inside one)
// is currently owned by another live owner. It is contention, not damage:
// callers distinguish it from corruption with errors.Is and retry with
// backoff instead of failing the sweep.
var ErrLeaseHeld = errors.New("persist: lease held by another owner")

// ErrLeaseLost reports that a lease this owner held was released or
// reclaimed by another owner (after the owner looked expired). The work is
// no longer exclusively ours; results must only be recorded through a
// presence-checked append so at most one copy lands.
var ErrLeaseLost = errors.New("persist: lease lost to another owner")

// SharedJournal is the multi-writer variant of Journal: the same
// append-only JSONL format and crash tolerance, but instead of one
// exclusive lock held from open to close, every operation takes a
// short-lived advisory file lock (shared for reads, exclusive for
// read-modify-append transactions). N processes can therefore drain one
// store concurrently — the work-claiming substrate of distributed sweeps.
//
// Consistency model: all mutations happen under the exclusive lock and
// start by replaying any lines other writers appended since this process
// last looked, so an Update transaction always sees the latest state —
// claims are linearizable. Plain Lookup reads the possibly stale local
// view; call Refresh to pull in other writers' appends.
//
// The on-disk format is byte-compatible with Journal: a file written by N
// workers reopens fine under OpenJournal (single-owner resume), and legacy
// single-owner journals open fine here.
type SharedJournal struct {
	journalFile
}

// OpenShared opens (creating if needed) the journal at path for
// multi-process use and replays its current contents.
func OpenShared(path string) (*SharedJournal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: open shared journal: %w", err)
	}
	s := &SharedJournal{journalFile{path: path, f: f, entries: make(map[string]json.RawMessage)}}
	if err := s.Refresh(); err != nil {
		_ = f.Close()
		return nil, err
	}
	return s, nil
}

// Refresh replays lines other writers appended since the last look, under a
// shared lock. A torn tail (a writer crashed mid-append) is left in place —
// only an exclusive-lock mutation may repair it — and simply not consumed.
func (s *SharedJournal) Refresh() error {
	return s.locked(false, func() error { return nil })
}

// locked runs op under the process mutex and the file lock — exclusive for
// mutations, shared otherwise — after replaying the tail other writers
// appended. Only the exclusive holder may repair a torn tail.
func (s *SharedJournal) locked(exclusive bool, op func() error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errClosed
	}
	unlock, err := flockFile(s.f, s.path, exclusive)
	if err != nil {
		return err
	}
	defer unlock()
	if err := s.scan(exclusive, s.keep); err != nil {
		return err
	}
	return op()
}

// Tx is the view handed to an Update transaction: reads see the freshest
// state (the exclusive lock is held and the tail has been replayed), and
// appends are buffered until the transaction returns without error.
type Tx struct {
	s       *SharedJournal
	appends []journalLine
}

// Lookup returns the latest payload under key, including appends buffered
// earlier in the same transaction.
func (tx *Tx) Lookup(key string, payload any) (bool, error) {
	for i := len(tx.appends) - 1; i >= 0; i-- {
		if tx.appends[i].Key == key {
			if err := json.Unmarshal(tx.appends[i].Payload, payload); err != nil {
				return false, fmt.Errorf("persist: tx decode %q: %w", key, err)
			}
			return true, nil
		}
	}
	return tx.s.get(key, payload)
}

// Append buffers one entry; it becomes durable iff the transaction commits.
func (tx *Tx) Append(key string, payload any) error {
	line, err := newLine(key, payload)
	if err != nil {
		return err
	}
	tx.appends = append(tx.appends, line)
	return nil
}

// Update runs fn as an atomic read-modify-append transaction: the exclusive
// file lock is taken, the tail replayed (repairing any torn append a
// crashed writer left), fn observes the latest state and buffers appends,
// and on success the appends are written and synced before the lock drops.
// Concurrent Updates from any number of processes are therefore
// linearizable — the basis of race-free work claiming.
func (s *SharedJournal) Update(fn func(tx *Tx) error) error {
	return s.locked(true, func() error {
		tx := &Tx{s: s}
		if err := fn(tx); err != nil || len(tx.appends) == 0 {
			return err
		}
		return s.write(tx.appends, true)
	})
}

// Append durably records payload under key (a single-entry Update).
func (s *SharedJournal) Append(key string, payload any) error {
	return s.Update(func(tx *Tx) error { return tx.Append(key, payload) })
}

// Close releases the underlying file. No lock is held between operations,
// so Close never blocks on other processes.
func (s *SharedJournal) Close() error {
	return s.close(false, func() {})
}
