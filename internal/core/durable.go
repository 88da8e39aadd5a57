package core

import (
	"bytes"
	"encoding/gob"
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
// A record written by a pipelined Register before promotion is
// Deferred: it has no partition rows. Replay re-enqueues deferred
// contracts on the ingest pipeline, or promotes them inline when
// registration is synchronous; no separate promotion record exists
// because checkpoints drain the pipeline first, so a replayed suffix
// only ever re-runs work that was pending at the crash.
//
// Logs written before the container record still replay: their
// register records are gob registrationRecords, restored through the
// same restoreContract as the v2/v3 gob snapshots.

// registrationRecord is the payload of a gob-era WAL register record.
type registrationRecord struct {
	FormatVersion int
	Events        []string // vocabulary at registration, in id order
	Contract      contractSnapshot
}

// encodeRegistration serializes c for the op log. It needs no db.mu:
// Register calls it before taking the write lock, while c is still
// private, and the vocabulary is append-only, so the snapshot it takes
// already names every event c's automaton cites.
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

// RegistrationExport is one contract re-encoded as a registration
// record: the same bytes ApplyRegistrationTo accepts. The shard layer
// moves an unsharded database onto shards through these (FromCore).
type RegistrationExport struct {
	Name   string
	Record []byte
}

// ExportRegistrations re-encodes every contract as a registration
// record, in id order, under one read lock. The ingest pipeline is
// drained first, so the export is always full-tier — which also makes
// the bytes independent of pipeline timing. Each record carries the
// full vocabulary as of the export (a superset of the vocabulary at
// original registration), which ApplyRegistrationTo accepts: interning
// the names in order reproduces the same id assignment.
func (db *DB) ExportRegistrations() ([]RegistrationExport, error) {
	db.WaitIdle()
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]RegistrationExport, 0, len(db.contracts))
	for _, c := range db.contracts {
		enc, err := db.encodeRegistration(c)
		if err != nil {
			return nil, fmt.Errorf("core: export %q: %w", c.Name, err)
		}
		out = append(out, RegistrationExport{Name: c.Name, Record: enc})
	}
	return out, nil
}

// ApplyRegistrationTo decodes a register record and installs its
// contract on the database place picks by contract name (the shard
// router's placement). It is the replay half of the write-ahead
// protocol: it validates like Load, never logs, and is idempotent — a
// name already present is left untouched, because recovery replays a
// log suffix that may overlap the snapshot state (the checkpoint
// boundary is a conservative lower bound; see internal/store). A
// record that fails validation installs nothing, vocabulary included.
// stats, when non-nil, accumulates the restore breakdown (contracts
// installed, compiled forms adopted, degraded entries re-pended).
//
// A container record's slabs are adopted, not copied: data must stay
// valid and unmodified for the database's lifetime, and 8-byte aligned
// (each WAL record is its own allocation).
func ApplyRegistrationTo(data []byte, place func(name string) *DB, stats *LoadStats) error {
	if stats == nil {
		stats = &LoadStats{}
	}
	if err := applyRegistration(data, place, stats); err != nil {
		return fmt.Errorf("core: replay: %w", err)
	}
	return nil
}

func applyRegistration(data []byte, place func(name string) *DB, stats *LoadStats) error {
	rec, err := decodeRecord(data)
	if err != nil {
		return err
	}
	if rec.name == "" {
		return fmt.Errorf("registration record has no contract name")
	}
	db := place(rec.name)
	if _, dup := db.ByName(rec.name); dup {
		return nil
	}
	c, deferred, err := rec.restore(stats)
	if err != nil {
		return err
	}
	if err := db.install(c, deferred, rec.events); err != nil {
		if errors.Is(err, errDuplicate) {
			return nil // installed since the check above; replay is idempotent
		}
		return err
	}
	stats.Contracts++
	if stats.FormatVersion == 0 {
		stats.FormatVersion = rec.version
	}
	return nil
}

// decodedRecord is a register record decoded far enough to place it;
// restore rebuilds its contract.
type decodedRecord struct {
	name    string
	version int
	events  []string
	restore func(stats *LoadStats) (*Contract, bool, error)
}

// decodeRecord dispatches on the record shape: a one-contract
// container, or a gob registrationRecord from a log written before
// the switch.
func decodeRecord(data []byte) (decodedRecord, error) {
	if !IsContainer(data) {
		var rec registrationRecord
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&rec); err != nil {
			return decodedRecord{}, err
		}
		if rec.FormatVersion < minFormatVersion || rec.FormatVersion > formatVersion {
			return decodedRecord{}, fmt.Errorf("record has format version %d, but this build supports versions %d through %d",
				rec.FormatVersion, minFormatVersion, formatVersion)
		}
		return decodedRecord{rec.Contract.Name, rec.FormatVersion, rec.Events, func(stats *LoadStats) (*Contract, bool, error) {
			return restoreContract(0, rec.Contract, stats)
		}}, nil
	}
	f, head, err := decodeV4Head(data)
	if err != nil {
		return decodedRecord{}, err
	}
	if !head.Sharded || len(head.Contracts) != 1 {
		return decodedRecord{}, fmt.Errorf("register record must be a one-contract sharded container (sharded %v, %d contracts)",
			head.Sharded, len(head.Contracts))
	}
	h := head.Contracts[0]
	return decodedRecord{h.Name, head.FormatVersion, head.Events, func(stats *LoadStats) (*Contract, bool, error) {
		cur, err := newV4Cursor(f)
		if err != nil {
			return nil, false, err
		}
		c, deferred, err := cur.restoreContract(0, h, stats)
		if err == nil {
			err = cur.assertDrained()
		}
		if err != nil {
			return nil, false, err
		}
		return c, deferred, nil
	}}, nil
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
// overlapping-suffix reason as ApplyRegistrationTo).
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
