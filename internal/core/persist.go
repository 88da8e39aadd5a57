package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"time"

	"contractdb/internal/bisim"
	"contractdb/internal/buchi"
	"contractdb/internal/ltl"
	"contractdb/internal/permission"
	"contractdb/internal/prefilter"
	"contractdb/internal/snapfmt"
	"contractdb/internal/vocab"
)

// The persisted form keeps everything the offline registration step
// produced — automata, prefilter index and projection partitions — so
// a reloaded database answers queries at full speed without redoing
// the precomputation (the paper's registration for 3000 contracts is
// hours of work; ours is minutes, but still worth persisting).
//
// formatVersion 3 additionally persists the *compiled* CSR form of
// every contract automaton (see buchi.Compiled). A version-3 load
// performs zero LTL→BA translations and zero CSR flattenings.

type dbSnapshot struct {
	FormatVersion int
	Events        []string
	Opts          Options
	Index         prefilter.Snapshot
	Contracts     []contractSnapshot
}

type contractSnapshot struct {
	Name        string
	Spec        string // LTL concrete syntax; reparsed on load
	Auto        *buchi.BA
	Projections bisim.ProjectionSnapshot

	// Compiled is the automaton's CSR form (formatVersion ≥ 3). Load
	// installs it with AdoptCompiled; nil (any v2 stream) makes the
	// first use rebuild it, exactly as before.
	Compiled *buchi.Compiled

	// A snapshot of a pipelined database can capture contracts still at
	// the degraded tier; they are stored with an empty Projections
	// (zero Parts — impossible for a completed precompute, which always
	// holds at least the empty subset) and re-enter the ingest pipeline
	// on load.
}

// Format history:
//
//   - 2 switched the prefilter and projection snapshot tables from gob
//     maps to sorted slices, making Save byte-deterministic (the same
//     database always serializes to the same bytes, so snapshots can
//     be diffed and content-addressed).
//   - 3 added the compiled artifacts (contract CSR forms, quotient
//     tables — no longer read) and degraded-tier entries. v2 streams
//     remain loadable: their new fields decode as nil/empty, which the
//     lazy paths treat as "build on first use".
//   - 4 moved from a monolithic gob stream to the snapfmt container
//     (see persist_v4.go): flat little-endian slabs behind a section
//     directory, adopted zero-copy at load. v2/v3 gob streams still
//     load; any re-save lands on v4. Within v4, the writer later
//     stopped persisting quotients (their sections stay empty) and
//     the WAL register record became a one-contract container.
const (
	formatVersion    = 4
	minFormatVersion = 2
)

// SnapshotFormatVersion reports the snapshot format this build writes;
// the server surfaces it as build info in GET /v1/metrics. Builds read
// versions minFormatVersion through formatVersion.
func SnapshotFormatVersion() int { return formatVersion }

// exportContract renders one contract in its gob form. Callers hold
// db.mu (read suffices); proj.mu is taken inside, only to read the
// projection set, whose export needs no lock. The compiled form is
// exported through Compiled(), so a contract whose CSR form was never
// needed pays the one flattening now rather than on every future load.
func exportContract(c *Contract) contractSnapshot {
	// gob encodes the BA reflectively, so a shell automaton (v4 load)
	// must materialize its adjacency before legacy export sees it.
	c.auto.EnsureEdges()
	cs := contractSnapshot{
		Name:     c.Name,
		Spec:     c.Spec.String(),
		Auto:     c.auto,
		Compiled: c.auto.Compiled(),
	}
	c.proj.mu.Lock()
	ps := c.proj.ps
	c.proj.mu.Unlock()
	if ps != nil {
		cs.Projections = ps.Export() // safe without proj.mu; see bisim.ProjectionSet
	}
	return cs
}

// Save writes the database, including all precomputed index
// structures and compiled artifacts, to w in the v4 container format
// (see persist_v4.go). Contracts still at the degraded tier are saved
// as degraded (callers wanting a fully-promoted snapshot call
// WaitIdle first, as the store layer's checkpoint does).
func (db *DB) Save(w io.Writer) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.saveV4(w)
}

// SaveLegacy writes the v3 gob stream older builds read. It exists
// for downgrade escapes and as the decode-cost baseline the cold
// start benchmark compares the container against.
func (db *DB) SaveLegacy(w io.Writer) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	snap := dbSnapshot{
		FormatVersion: formatVersion - 1,
		Events:        db.voc.Names(),
		Opts:          db.opts,
		Index:         db.index.Export(),
	}
	for _, c := range db.contracts {
		snap.Contracts = append(snap.Contracts, exportContract(c))
	}
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("core: save: %w", err)
	}
	return nil
}

// LoadStats breaks a Load down for the cold-start telemetry: where
// the time went and how much re-derivation the snapshot avoided.
type LoadStats struct {
	FormatVersion int
	Contracts     int
	// CompiledAdopted counts automata whose CSR form came from the
	// snapshot (== Contracts for a v3 stream; 0 for v2).
	CompiledAdopted int
	// Degraded counts contracts restored at the degraded tier and
	// re-enqueued for promotion.
	Degraded int
	// Decode is the wire-decode time (gob decode for legacy streams;
	// container parse, head decode and slab view construction for v4).
	// Restore is everything after — validation, artifact adoption,
	// checker seeding, index and projection reconstruction.
	Decode  time.Duration
	Restore time.Duration

	// v4 container loads only (all zero for legacy gob): total slab
	// payload bytes, how many of them were copied to the heap instead
	// of adopted as views (0 on little-endian hosts), and the section
	// count of the directory.
	SlabBytes   int64
	CopiedBytes int64
	Sections    int
}

// Load reads a database previously written by Save (any supported
// format version).
func Load(r io.Reader) (*DB, error) {
	db, _, err := LoadWithStats(r)
	return db, err
}

// LoadWithStats is Load, additionally reporting the recovery
// breakdown the store layer and /v1/health surface. The reader is
// drained into memory first; callers that already hold the bytes (or
// a mapping) use LoadBytesWithStats directly.
func LoadWithStats(r io.Reader) (*DB, LoadStats, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, LoadStats{}, fmt.Errorf("core: load: %w", err)
	}
	return LoadBytesWithStats(data)
}

// LoadBytes reads a database from an in-memory snapshot image.
func LoadBytes(data []byte) (*DB, error) {
	db, _, err := LoadBytesWithStats(data)
	return db, err
}

// LoadBytesWithStats dispatches on the snapshot format: v4 containers
// adopt data's slabs zero-copy — data must then outlive the database
// and stay unmodified (a private file mapping qualifies; the store
// owns that lifetime) — while legacy gob streams decode onto the heap
// with no retention of data.
func LoadBytesWithStats(data []byte) (*DB, LoadStats, error) {
	if snapfmt.Sniff(data) {
		return loadV4(data)
	}
	return loadLegacyWithStats(bytes.NewReader(data))
}

// loadLegacyWithStats decodes the v2/v3 gob stream format.
func loadLegacyWithStats(r io.Reader) (*DB, LoadStats, error) {
	var stats LoadStats
	var snap dbSnapshot
	t := time.Now()
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, stats, fmt.Errorf("core: load: %w", err)
	}
	stats.Decode = time.Since(t)
	stats.FormatVersion = snap.FormatVersion
	if snap.FormatVersion < minFormatVersion || snap.FormatVersion >= formatVersion {
		return nil, stats, fmt.Errorf("core: load: gob snapshot has format version %d, but this build reads gob versions %d through %d (re-save with a matching build or re-register from specifications)",
			snap.FormatVersion, minFormatVersion, formatVersion-1)
	}
	t = time.Now()
	voc, err := vocab.FromNames(snap.Events...)
	if err != nil {
		return nil, stats, fmt.Errorf("core: load: %w", err)
	}
	db := NewDB(voc, snap.Opts)
	db.index, err = prefilter.Import(snap.Index)
	if err != nil {
		return nil, stats, fmt.Errorf("core: load: %w", err)
	}
	var deferred []*Contract
	for i, cs := range snap.Contracts {
		c, wasDeferred, err := restoreContract(ContractID(i), cs, &stats)
		if err != nil {
			return nil, stats, fmt.Errorf("core: load: %w", err)
		}
		if _, dup := db.byName[c.Name]; dup {
			return nil, stats, fmt.Errorf("core: load: duplicate contract name %q", c.Name)
		}
		db.contracts = append(db.contracts, c)
		db.byName[c.Name] = c
		if wasDeferred {
			deferred = append(deferred, c)
		}
	}
	if db.index.Len() != len(db.contracts) {
		return nil, stats, fmt.Errorf("core: load: index covers %d contracts, database has %d",
			db.index.Len(), len(db.contracts))
	}
	// A load is a registration event for cache purposes: a fresh epoch
	// guarantees nothing cached against a previous in-memory lifetime
	// of this data could ever be considered valid.
	db.epoch++
	// Re-enter deferred contracts into the pipeline; without one (the
	// snapshot was saved under different options) promote on the spot,
	// preserving the invariant that a synchronous database is always at
	// the full tier.
	for _, c := range deferred {
		if db.ingest != nil {
			db.ingest.enqueue(c)
		} else {
			db.promote(c)
		}
	}
	stats.Contracts = len(db.contracts)
	stats.Restore = time.Since(t)
	return db, stats, nil
}

// restoreContract validates and reconstructs one persisted contract:
// parse, automaton validation, compiled-form adoption (v3), checker
// seeding, projection import. Degraded entries (empty Projections)
// come back with proj.ps nil; the caller re-enqueues them.
func restoreContract(id ContractID, cs contractSnapshot, stats *LoadStats) (*Contract, bool, error) {
	spec, err := ltl.Parse(cs.Spec)
	if err != nil {
		return nil, false, fmt.Errorf("contract %q: %w", cs.Name, err)
	}
	if cs.Auto == nil {
		return nil, false, fmt.Errorf("contract %q has no automaton", cs.Name)
	}
	if err := cs.Auto.Validate(); err != nil {
		return nil, false, fmt.Errorf("contract %q: %w", cs.Name, err)
	}
	if cs.Compiled != nil {
		// Adopt before NewChecker: the checker's construction reads the
		// compiled form, so adoption order is what makes the whole load
		// path flatten-free.
		if err := cs.Auto.AdoptCompiled(cs.Compiled); err != nil {
			return nil, false, fmt.Errorf("contract %q: compiled form: %w", cs.Name, err)
		}
		stats.CompiledAdopted++
	}
	c := &Contract{
		ID:      id,
		Name:    cs.Name,
		Spec:    spec,
		auto:    cs.Auto,
		checker: permission.NewChecker(cs.Auto),
		proj:    &projState{},
	}
	if len(cs.Projections.Parts) == 0 {
		stats.Degraded++
		return c, true, nil
	}
	ps, err := bisim.ImportProjections(cs.Auto, cs.Projections)
	if err != nil {
		return nil, false, fmt.Errorf("contract %q: %w", cs.Name, err)
	}
	c.proj.ps = ps
	return c, false, nil
}
