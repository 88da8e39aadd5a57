package shard

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"time"

	"contractdb/internal/core"
	"contractdb/internal/vocab"
)

// The sharded snapshot deliberately does not record the shard count.
// It is one snapfmt container holding every shard's contracts in name
// order, with Sharded=true in its head and no prefilter sections
// (per-shard indexes depend on the shard count and are rebuilt from
// the adopted compiled forms at load). Placement is a pure function of
// name and shard count, so Load can deal the contracts onto however
// many shards the caller asks for: a corpus saved under 8 shards
// reloads under 4 (or 1) byte-for-byte identically re-saved. That
// property is the backbone of the differential harness and it means
// re-sharding a deployment is a restart, not a migration.
//
// Earlier builds wrote a v1 gob wrapper (a name-sorted list of
// registration records); it remains readable, as do unsharded
// snapshots of every supported version.

// shardSnapshot is the legacy (gob) persisted form of a sharded
// database.
type shardSnapshot struct {
	// ShardFormat versions this wrapper. It also discriminates the
	// container: a legacy core snapshot decodes into this struct (gob
	// matches fields by name) with ShardFormat zero, which routes Load
	// to the unsharded reader.
	ShardFormat int
	Events      []string // shared vocabulary, in id order
	Opts        core.Options
	Records     []core.RegistrationExport // sorted by contract name
}

const shardFormatVersion = 1

// Save writes the database to w as a sharded v4 container. The bytes
// depend only on the registered contracts, the vocabulary and the
// options — not on the shard count — so equivalent databases with
// different shard counts serialize identically.
func (db *DB) Save(w io.Writer) error {
	if err := core.SaveSharded(w, db.voc.Names(), db.options(), db.shards); err != nil {
		return fmt.Errorf("shard: save: %w", err)
	}
	return nil
}

// Load reads a database previously written by Save and deals its
// contracts across n shards. It also accepts a legacy unsharded
// core.DB snapshot, redistributing its contracts — the upgrade path
// from a pre-sharding data directory.
func Load(r io.Reader, n int) (*DB, error) {
	db, _, err := LoadWithStats(r, n)
	return db, err
}

// LoadWithStats is Load, additionally reporting the recovery
// breakdown (wrapper decode vs. per-record artifact restore) summed
// across shards.
func LoadWithStats(r io.Reader, n int) (*DB, core.LoadStats, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, core.LoadStats{}, fmt.Errorf("shard: load: %w", err)
	}
	return LoadBytesWithStats(buf, n)
}

// LoadBytesWithStats loads from an in-memory snapshot image. For v4
// containers the image's slabs are adopted zero-copy, so buf must
// outlive the database (a private file mapping qualifies; the store
// owns that lifetime).
func LoadBytesWithStats(buf []byte, n int) (*DB, core.LoadStats, error) {
	var stats core.LoadStats
	if core.IsContainer(buf) {
		return loadContainer(buf, n)
	}
	t := time.Now()
	var snap shardSnapshot
	derr := gob.NewDecoder(bytes.NewReader(buf)).Decode(&snap)
	stats.Decode = time.Since(t)
	if derr != nil || snap.ShardFormat == 0 {
		// Not a sharded snapshot; try the unsharded format.
		cdb, cstats, cerr := core.LoadWithStats(bytes.NewReader(buf))
		if cerr != nil {
			if derr != nil {
				return nil, stats, fmt.Errorf("shard: load: %w", derr)
			}
			return nil, stats, fmt.Errorf("shard: load: %w", cerr)
		}
		stats = cstats
		t = time.Now()
		db, err := FromCore(cdb, n)
		stats.Restore += time.Since(t)
		if err != nil {
			return nil, stats, err
		}
		return db, stats, nil
	}
	if snap.ShardFormat != shardFormatVersion {
		return nil, stats, fmt.Errorf("shard: load: snapshot has shard format %d, but this build supports only version %d",
			snap.ShardFormat, shardFormatVersion)
	}
	voc, err := vocab.FromNames(snap.Events...)
	if err != nil {
		return nil, stats, fmt.Errorf("shard: load: %w", err)
	}
	db, err := New(voc, snap.Opts, n)
	if err != nil {
		return nil, stats, fmt.Errorf("shard: load: %w", err)
	}
	t = time.Now()
	for _, rec := range snap.Records {
		before := db.Len()
		if err := core.ApplyRegistrationTo(rec.Record, db.shardFor, &stats); err != nil {
			return nil, stats, fmt.Errorf("shard: load: contract %q: %w", rec.Name, err)
		}
		if db.Len() == before {
			return nil, stats, fmt.Errorf("shard: load: duplicate contract name %q", rec.Name)
		}
	}
	stats.Restore += time.Since(t)
	if stats.FormatVersion == 0 {
		stats.FormatVersion = core.SnapshotFormatVersion()
	}
	return db, stats, nil
}

// loadContainer deals a v4 container's contracts — sharded or
// unsharded head alike — across n fresh shards via the placement
// function. The buffer's slabs are adopted zero-copy, so buf must stay
// valid for the database's lifetime (the store owns that when buf is a
// file mapping).
func loadContainer(buf []byte, n int) (*DB, core.LoadStats, error) {
	var stats core.LoadStats
	info, err := core.PeekV4(buf)
	if err != nil {
		return nil, stats, fmt.Errorf("shard: load: %w", err)
	}
	voc, err := vocab.FromNames(info.Events...)
	if err != nil {
		return nil, stats, fmt.Errorf("shard: load: %w", err)
	}
	db, err := New(voc, info.Opts, n)
	if err != nil {
		return nil, stats, fmt.Errorf("shard: load: %w", err)
	}
	if err := core.LoadShardedV4(buf, db.shardFor, &stats); err != nil {
		return nil, stats, fmt.Errorf("shard: load: %w", err)
	}
	return db, stats, nil
}

// FromCore redistributes an unsharded database's contracts across n
// shards, sharing its vocabulary. The source database is not modified;
// its precomputed artifacts (automata, projections) are re-encoded and
// re-imported rather than re-derived, so conversion costs decode time,
// not registration time.
func FromCore(cdb *core.DB, n int) (*DB, error) {
	db, err := New(cdb.Vocabulary(), cdb.Options(), n)
	if err != nil {
		return nil, err
	}
	records, err := cdb.ExportRegistrations()
	if err != nil {
		return nil, fmt.Errorf("shard: from core: %w", err)
	}
	for _, rec := range records {
		if err := db.ApplyRegistration(rec.Record); err != nil {
			return nil, fmt.Errorf("shard: from core: contract %q: %w", rec.Name, err)
		}
	}
	return db, nil
}
