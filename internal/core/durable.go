package core

import (
	"bytes"
	"errors"
	"fmt"

	"contractdb/internal/vocab"
)

// The write-ahead log's per-operation encoding. A registration record
// is the contract's v4 encoding: a one-contract, Sharded=true snapfmt
// container (see persist_v4.go) holding the compiled automaton, the
// checker seeds and the deduplicated partition tables — the same slab
// group a checkpoint writes for the contract — so replay restores the
// precomputed artifacts instead of redoing the paper's expensive
// registration step, and byte for byte reproduces the state a
// never-crashed database would hold. Its head carries the full event
// vocabulary at registration time (names in id order): automaton
// labels are bitsets over vocabulary ids, so replay must intern events
// in exactly the original order before installing the contract.
//
// Gob register records from logs written by older builds, and the
// Deferred container records builds with a background registration
// pipeline logged before the projection precompute, are refused with
// ErrUnsupportedFormat, like gob snapshots.

// encodeRegistration serializes c for the op log. It needs no db.mu:
// registrations call it (through pend) before taking the write lock,
// while c is still private, and the vocabulary is append-only, so the
// snapshot it takes already names every event c's automaton cites.
func (db *DB) encodeRegistration(c *Contract) ([]byte, error) {
	if hook := db.encodeHook.Load(); hook != nil {
		(*hook)()
	}
	head := v4Head{FormatVersion: formatVersion, Sharded: true, Events: db.voc.Names()}
	var b v4Builder
	head.Contracts = []v4ContractHead{b.addContract(c)}
	var buf bytes.Buffer
	if err := writeV4(&buf, head, &b); err != nil {
		return nil, fmt.Errorf("encode registration: %w", err)
	}
	return buf.Bytes(), nil
}

// SetEncodeHook installs f (nil clears it) to run at the start of
// every registration-record encoding on db. It exists for tests that
// park a registration mid-encode to show what the engine lock does and
// does not wait for; nothing else sets it.
func (db *DB) SetEncodeHook(f func()) {
	if f == nil {
		db.encodeHook.Store(nil)
		return
	}
	db.encodeHook.Store(&f)
}

// ApplyRegistration decodes a register record and installs its
// contract. It is the replay half of the write-ahead protocol: it
// validates like Load, never logs, and is idempotent — a name already
// present is left untouched, because recovery replays a log suffix
// that may overlap the snapshot state (the checkpoint boundary is a
// conservative lower bound; see internal/store). A record that fails
// validation installs nothing, vocabulary included. stats, when
// non-nil, accumulates the restore breakdown (contracts installed,
// compiled forms adopted).
//
// A container record's slabs are adopted, not copied: data must stay
// valid and unmodified for the database's lifetime, and 8-byte aligned
// (each WAL record is its own allocation).
func (db *DB) ApplyRegistration(data []byte, stats *LoadStats) error {
	if stats == nil {
		stats = &LoadStats{}
	}
	if err := db.applyRegistration(data, stats); err != nil {
		return fmt.Errorf("core: replay: %w", err)
	}
	return nil
}

func (db *DB) applyRegistration(data []byte, stats *LoadStats) error {
	f, head, err := decodeV4Head(data)
	if err != nil {
		return err
	}
	if len(head.Contracts) != 1 {
		return fmt.Errorf("register record must hold one contract, holds %d", len(head.Contracts))
	}
	h := head.Contracts[0]
	if h.Name == "" {
		return fmt.Errorf("registration record has no contract name")
	}
	if _, dup := db.ByName(h.Name); dup {
		return nil
	}
	cur, err := newV4Cursor(f)
	if err != nil {
		return err
	}
	c, err := cur.restoreContract(h, stats)
	if err != nil {
		return err
	}
	if err := cur.assertDrained(); err != nil {
		return err
	}
	if err := internEvents(db.voc, head.Events); err != nil {
		return err
	}
	if err := db.publishRestored(c); err != nil {
		if errors.Is(err, ErrDuplicateName) {
			return nil // published since the check above; replay is idempotent
		}
		return err
	}
	stats.Contracts++
	if stats.FormatVersion == 0 {
		stats.FormatVersion = head.FormatVersion
	}
	return nil
}

// internEvents makes voc agree with names, a record's vocabulary in id
// order: each name voc already holds must sit at the same id, and the
// rest are interned in order. A divergent id means the record does not
// belong to this database's lineage. Nothing is interned unless the
// whole list is consistent.
func internEvents(voc *vocab.Vocabulary, names []string) error {
	if len(names) == 0 {
		return nil
	}
	if rv, err := vocab.FromNames(names...); err != nil {
		return err
	} else if rv.Len() != len(names) {
		return fmt.Errorf("record vocabulary repeats an event")
	}
	have := voc.Names()
	for i, name := range have[:min(len(have), len(names))] {
		if names[i] != name {
			return fmt.Errorf("event id %d is %q, record expects %q (log does not match snapshot)", i, name, names[i])
		}
	}
	for i := len(have); i < len(names); i++ {
		id, err := voc.Add(names[i])
		if err != nil {
			return err
		}
		if int(id) != i {
			return fmt.Errorf("event %q interned as id %d, record expects %d (log does not match snapshot)", names[i], id, i)
		}
	}
	return nil
}

// ApplyUnregister is the replay half of Unregister: it never logs and
// is idempotent (removing an absent name is a no-op, for the same
// overlapping-suffix reason as ApplyRegistration).
func (db *DB) ApplyUnregister(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	c, ok := db.byName[name]
	if !ok {
		return nil
	}
	db.removeLocked(c)
	return nil
}
