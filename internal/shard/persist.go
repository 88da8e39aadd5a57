package shard

import (
	"fmt"
	"io"

	"contractdb/internal/core"
	"contractdb/internal/vocab"
)

// The sharded snapshot deliberately does not record the shard count.
// It is one snapfmt container holding every shard's contracts in name
// order, with Sharded=true in its head and no prefilter sections
// (per-shard indexes depend on the shard count and are rebuilt from
// the adopted compiled forms at load) — the same bytes core.DB.Save
// writes for the same corpus. Placement is a pure function of name and
// shard count, so a load can deal the contracts onto however many
// shards the caller asks for: a corpus saved under 8 shards reloads
// under 4 (or 1) byte-for-byte identically re-saved. That property is
// the backbone of the differential harness and it means re-sharding a
// deployment is a restart, not a migration.

// Save writes the database to w as a sharded v4 container. The bytes
// depend only on the registered contracts, the vocabulary and the
// options — not on the shard count — so equivalent databases with
// different shard counts serialize identically.
func (db *DB) Save(w io.Writer) error {
	if err := core.SaveSharded(w, db.options(), db.shards); err != nil {
		return fmt.Errorf("shard: save: %w", err)
	}
	return nil
}

// LoadBytesWithStats deals a v4 container's contracts — sharded or
// older unsharded head alike — across n fresh shards via the placement
// function, reporting the recovery breakdown summed across shards.
// The image's slabs are adopted zero-copy, so buf must stay valid for
// the database's lifetime (a private file mapping qualifies; the store
// owns that lifetime).
func LoadBytesWithStats(buf []byte, n int) (*DB, core.LoadStats, error) {
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
		db.Close()
		return nil, stats, fmt.Errorf("shard: load: %w", err)
	}
	return db, stats, nil
}
