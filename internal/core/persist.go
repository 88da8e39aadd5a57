package core

import (
	"errors"
	"fmt"
	"io"
	"time"

	"contractdb/internal/vocab"
)

// The persisted form keeps everything the offline registration step
// produced — compiled automata, checker seeds and projection
// partitions — so a reloaded database answers queries at full speed
// without redoing the precomputation (the paper's registration for
// 3000 contracts is hours of work; ours is minutes, but still worth
// persisting). The one on-disk shape is the formatVersion-4 container
// described in persist_v4.go.
//
// Format history: 2 and 3 were monolithic gob streams, and WAL
// register records were gob as well; 4 is the snapfmt container.
// Within v4, the writer later stopped persisting quotients and
// prefilter indexes (their sections stay empty) and the WAL register
// record became a one-contract container. This build reads only v4
// and refuses everything else with ErrUnsupportedFormat.
const formatVersion = 4

// SnapshotFormatVersion reports the snapshot format this build writes
// and reads; the server surfaces it as build info in GET /v1/metrics.
func SnapshotFormatVersion() int { return formatVersion }

// ErrUnsupportedFormat refuses snapshot or register-record bytes that
// are not a formatVersion-4 container: the v2/v3 gob snapshots and gob
// register records older builds wrote, any other head version, and
// anything without the container magic.
var ErrUnsupportedFormat = errors.New("unsupported snapshot format (this build reads only v4 containers; " +
	"to upgrade, open the data with an older build that still reads it, make one change and shut down cleanly: " +
	"the checkpoint it writes is v4)")

// Save writes the database, including all precomputed artifacts, to w
// as the same name-ordered, count-agnostic container a sharded save
// writes (see SaveSharded). Contracts still at the degraded tier are
// saved as deferred (callers wanting a fully-promoted snapshot call
// WaitIdle first, as the store layer's checkpoint does).
func (db *DB) Save(w io.Writer) error {
	return saveContainer(w, db.Options(), []*DB{db})
}

// LoadStats breaks a Load down for the cold-start telemetry: where
// the time went and how much re-derivation the snapshot avoided.
type LoadStats struct {
	FormatVersion int
	Contracts     int
	// CompiledAdopted counts automata whose CSR form came from the
	// snapshot (every contract, for a v4 container).
	CompiledAdopted int
	// Degraded counts contracts restored at the degraded tier and
	// re-enqueued for promotion.
	Degraded int
	// Decode is the container parse, head decode and slab view
	// construction; Restore is everything after — validation, checker
	// seeding, index and projection reconstruction.
	Decode  time.Duration
	Restore time.Duration

	// Total slab payload bytes, how many of them were copied to the
	// heap instead of adopted as views (0 on little-endian hosts), and
	// the section count of the directory.
	SlabBytes   int64
	CopiedBytes int64
	Sections    int
}

// Load reads a database previously written by Save.
func Load(r io.Reader) (*DB, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	db, _, err := LoadBytesWithStats(data)
	return db, err
}

// LoadBytesWithStats is Load from an in-memory snapshot image,
// additionally reporting the recovery breakdown. The slabs are adopted
// zero-copy, so data must outlive the database and stay unmodified.
func LoadBytesWithStats(data []byte) (*DB, LoadStats, error) {
	var stats LoadStats
	info, err := PeekV4(data)
	if err != nil {
		return nil, stats, err
	}
	voc, err := vocab.FromNames(info.Events...)
	if err != nil {
		return nil, stats, fmt.Errorf("core: load: %w", err)
	}
	db := NewDB(voc, info.Opts)
	if err := LoadShardedV4(data, func(string) *DB { return db }, &stats); err != nil {
		db.Close()
		return nil, stats, err
	}
	return db, stats, nil
}
