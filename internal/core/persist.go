package core

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"time"

	"contractdb/internal/snapfmt"
	"contractdb/internal/vocab"
)

// The persisted form keeps everything the offline registration step
// produced — compiled automata, checker seeds and projection
// partitions — so a reloaded database answers queries at full speed
// without redoing the precomputation (the paper's registration for
// 3000 contracts is hours of work; ours is minutes, but still worth
// persisting). The on-disk shape is the formatVersion-5 container
// described in persist_container.go.
//
// Format history: 2 and 3 were monolithic gob streams, and WAL
// register records were gob as well; 4 is the snapfmt container.
// Within v4, the writer later stopped persisting quotients and
// prefilter indexes (their sections stay empty) and the WAL register
// record became a one-contract container. 5 stores no subset list and
// int32 class tables. This build writes 5, reads 4 and 5, and refuses
// everything else with ErrUnsupportedFormat.
const formatVersion, minFormatVersion = 5, 4

// SnapshotFormatVersion reports the snapshot format this build writes
// (it also reads v4); the server surfaces it as build info in GET
// /v1/metrics.
func SnapshotFormatVersion() int { return formatVersion }

// ErrUnsupportedFormat refuses snapshot or register-record bytes that
// are not a formatVersion-4 or -5 container: the v2/v3 gob snapshots
// and gob register records older builds wrote, any other head version,
// and anything without the container magic.
var ErrUnsupportedFormat = errors.New("unsupported snapshot format (this build reads only v4 and v5 containers; " +
	"to upgrade, open the data with an older build that still reads it, make one change and shut down cleanly: " +
	"the checkpoint it writes is v4)")

// Save writes the database, including all precomputed artifacts, to w
// as one v5 container holding the contracts in name order, so the
// bytes depend only on the corpus, never on registration order. The
// vocabulary is read after the contracts are gathered; it is
// append-only, so it names every event they cite.
func (db *DB) Save(w io.Writer) error {
	db.mu.RLock()
	all := slices.Clone(db.contracts)
	opts := db.opts
	db.mu.RUnlock()
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	head := snapHead{
		FormatVersion: formatVersion,
		Sharded:       true,
		Events:        db.voc.Names(),
		Opts:          opts,
	}
	var b slabs
	for _, c := range all {
		head.Contracts = append(head.Contracts, b.addContract(c))
	}
	return writeContainer(w, head, &b)
}

// LoadStats breaks a Load down for the cold-start telemetry: where
// the time went and how much re-derivation the snapshot avoided.
type LoadStats struct {
	FormatVersion int
	Contracts     int
	// CompiledAdopted counts automata whose CSR form came from the
	// snapshot (every contract).
	CompiledAdopted int
	// Decode is the container parse, head decode and slab view
	// construction; Restore is everything after — validation, checker
	// seeding, index and projection reconstruction.
	Decode  time.Duration
	Restore time.Duration

	// Total slab payload bytes, how many of them were copied to the
	// heap instead of adopted as views (0 on little-endian hosts for
	// v5; v4's int64 classes section), and the section count of the
	// directory.
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
// additionally reporting the recovery breakdown. It rebuilds each
// contract's prefilter nodes from the adopted automaton. The slabs
// are adopted zero-copy, so data must outlive the database and stay
// unmodified; the store owns that lifetime when data is a file
// mapping.
func LoadBytesWithStats(data []byte) (*DB, LoadStats, error) {
	var stats LoadStats
	t := time.Now()
	f, head, err := decodeHead(data)
	if err != nil {
		return nil, stats, fmt.Errorf("core: load: %w", err)
	}
	voc, err := vocab.FromNames(head.Events...)
	if err != nil {
		return nil, stats, fmt.Errorf("core: load: %w", err)
	}
	db := NewDB(voc, head.Opts)
	stats.FormatVersion = head.FormatVersion
	stats.Sections = len(f.Sections)
	stats.SlabBytes = f.SlabBytes()
	cur, err := newSlabCursor(f, head.FormatVersion)
	if err != nil {
		return nil, stats, fmt.Errorf("core: load: %w", err)
	}
	if !snapfmt.HostZeroCopy() {
		stats.CopiedBytes = stats.SlabBytes
	} else if head.FormatVersion == 4 {
		b, _ := f.Section(secClasses)
		stats.CopiedBytes = int64(len(b))
	}
	stats.Decode = time.Since(t)
	t = time.Now()
	for _, h := range head.Contracts {
		c, err := cur.restoreContract(h, &stats)
		if err != nil {
			return nil, stats, fmt.Errorf("core: load: %w", err)
		}
		if err := db.publishRestored(c); err != nil {
			return nil, stats, fmt.Errorf("core: load: %w", err)
		}
	}
	if err := cur.assertDrained(); err != nil {
		return nil, stats, fmt.Errorf("core: load: %w", err)
	}
	stats.Contracts = len(head.Contracts)
	stats.Restore = time.Since(t)
	return db, stats, nil
}
