package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// The write-ahead log's per-operation encoding. A registration record
// carries the same per-contract payload a snapshot does — spec,
// translated automaton, compiled CSR form, projection partitions and
// quotient table — so replay restores the precomputed artifacts
// instead of redoing the paper's expensive registration step, and byte
// for byte reproduces the state a never-crashed database would hold.
// It also carries the full event vocabulary at registration time
// (names in id order): automaton labels are bitsets over vocabulary
// ids, so replay must intern events in exactly the original order
// before decoding them.
//
// A record written by a pipelined Register before promotion is
// *deferred*: its contractSnapshot has an empty Projections (no Parts
// — a completed precompute always holds at least the empty subset).
// Replay re-enqueues deferred contracts on the ingest pipeline, or
// promotes them inline when registration is synchronous; no separate
// promotion record exists because checkpoints drain the pipeline
// first, so a replayed suffix only ever re-runs work that was pending
// at the crash.

// registrationRecord is the payload of one WAL register record.
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
	rec := registrationRecord{
		FormatVersion: formatVersion,
		Events:        db.voc.Names(),
		Contract:      exportContract(c),
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rec); err != nil {
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
// record: the same bytes ApplyRegistrationTo accepts. The sharded
// engine's snapshot format is a list of these, which keeps snapshots
// independent of the shard count they were written under.
type RegistrationExport struct {
	Name   string
	Record []byte
}

// ExportRegistrations re-encodes every contract as a registration
// record, in id order, under one read lock. The ingest pipeline is
// drained first, so the export is always full-tier — which also makes
// the bytes independent of pipeline timing (the shard-count
// determinism tests rely on that). Each record carries the full
// vocabulary as of the export (a superset of the vocabulary at
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

// ApplyRegistrationTo decodes a register record produced by the
// Register path once and installs its contract on the database place
// picks by contract name (the shard router's placement). It is the replay
// half of the write-ahead protocol: it validates like Load, never
// logs, and is idempotent — a name already present is left untouched,
// because recovery replays a log suffix that may overlap the snapshot
// state (the checkpoint boundary is a conservative lower bound; see
// internal/store). stats, when non-nil, accumulates the restore
// breakdown (contracts installed, compiled forms adopted, degraded
// entries re-pended).
func ApplyRegistrationTo(data []byte, place func(name string) *DB, stats *LoadStats) error {
	if stats == nil {
		stats = &LoadStats{}
	}
	var rec registrationRecord
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&rec); err != nil {
		return fmt.Errorf("core: replay: %w", err)
	}
	if rec.FormatVersion < minFormatVersion || rec.FormatVersion > formatVersion {
		return fmt.Errorf("core: replay: record has format version %d, but this build supports versions %d through %d",
			rec.FormatVersion, minFormatVersion, formatVersion)
	}
	if rec.Contract.Name == "" {
		return fmt.Errorf("core: replay: registration record has no contract name")
	}
	db := place(rec.Contract.Name)
	db.mu.Lock()
	if _, dup := db.byName[rec.Contract.Name]; dup {
		db.mu.Unlock()
		return nil
	}
	// Restore the vocabulary the record's automaton ids were minted
	// against. Interning in record order either matches the existing
	// prefix exactly or extends it; a divergent id means the log does
	// not belong to this database's lineage.
	for i, name := range rec.Events {
		id, err := db.voc.Add(name)
		if err != nil {
			db.mu.Unlock()
			return fmt.Errorf("core: replay: %w", err)
		}
		if int(id) != i {
			db.mu.Unlock()
			return fmt.Errorf("core: replay: event %q interned as id %d, record expects %d (log does not match snapshot)",
				name, id, i)
		}
	}
	c, wasDeferred, err := restoreContract(ContractID(len(db.contracts)), rec.Contract, stats)
	if err != nil {
		db.mu.Unlock()
		return fmt.Errorf("core: replay: %w", err)
	}
	db.index.Insert(int(c.ID), c.auto)
	db.contracts = append(db.contracts, c)
	db.byName[c.Name] = c
	db.epoch++
	stats.Contracts++
	if stats.FormatVersion == 0 {
		stats.FormatVersion = rec.FormatVersion
	}
	pipeline := db.ingest
	db.mu.Unlock()

	// A deferred record's projection work was pending at the crash;
	// re-pend it. Enqueue happens outside db.mu: enqueue can block on
	// backpressure, and the workers' promote needs db.mu to finish.
	if wasDeferred {
		if pipeline != nil {
			pipeline.enqueue(c)
		} else {
			db.promote(c)
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
