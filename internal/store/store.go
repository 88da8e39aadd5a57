// Package store is the broker's durable storage engine: it owns a
// data directory and keeps one core.DB crash-safe through
// internal/journal's write-ahead log and snapshot generations.
//
// Layout of a data directory:
//
//	snapshot-<boundary>.ctdb   core.DB.Save snapshot covering every
//	                           op with sequence < boundary
//	wal/wal-<firstSeq>.seg     log segments (see internal/wal)
//
// Open recovers through the journal: the newest snapshot that decodes
// (memory-mapped when it is a container), then every record past
// its boundary. Replay restores the precomputed registration artifacts
// from the records themselves — no automata are re-translated — so
// recovery cost is I/O, not the paper's hours-long registration step.
// Replay is idempotent (core's Apply* operations skip what is already
// present / already absent), as the journal's conservative boundary
// requires.
//
// Checkpointing runs in the background when the record- or byte-count
// since the last snapshot crosses a threshold, and on demand (the
// server's POST /v1/checkpoint). Close checkpoints one final time, so
// a cleanly shut down store reopens with zero replay.
package store

import (
	"fmt"
	"os"
	"sync"
	"time"

	"contractdb/internal/core"
	"contractdb/internal/journal"
	"contractdb/internal/metrics"
	"contractdb/internal/vocab"
	"contractdb/internal/wal"
)

// WAL record types.
const (
	recordRegister   = byte(1)
	recordUnregister = byte(2)
)

// Defaults for Config's zero values.
const (
	DefaultCheckpointRecords = 1024
	DefaultCheckpointBytes   = 64 << 20
)

// Config configures a Store. The zero value is usable: an empty
// vocabulary, default core options, fsync on every append, automatic
// checkpoints at the defaults.
type Config struct {
	// Events is the vocabulary of a freshly created database; ignored
	// when the directory already holds a snapshot.
	Events []string
	// Shards is ignored: one database serves every store. Nothing
	// persisted names a shard count, so a directory written under any
	// value reopens with equal answers and bytes. The field stays
	// only because the benchmark harness still sets it.
	Shards int
	// Core are the registration options of a freshly created database;
	// ignored when a snapshot exists (options travel in the snapshot).
	Core core.Options
	// Sync is the WAL fsync policy; SyncInterval uses SyncInterval as
	// the period.
	Sync         wal.SyncPolicy
	SyncInterval time.Duration
	// SegmentBytes is the WAL segment rotation threshold.
	SegmentBytes int64
	// CheckpointRecords and CheckpointBytes trigger a background
	// checkpoint once that many records / framed bytes accumulate since
	// the last snapshot. Zero selects the defaults; negative disables
	// that trigger. With both disabled only explicit Checkpoint calls
	// (and Close) snapshot.
	CheckpointRecords int
	CheckpointBytes   int64
	// KeepSnapshots is how many snapshot generations to retain (the WAL
	// is pruned against the oldest retained one). Zero selects
	// journal.DefaultKeep.
	KeepSnapshots int
	// Metrics receives durability counters; a fresh registry is created
	// when nil.
	Metrics *metrics.Durability
	// Logf, when non-nil, receives operational log lines (background
	// checkpoint failures and recovery notes).
	Logf func(format string, args ...any)
}

func (c Config) checkpointRecords() int {
	if c.CheckpointRecords == 0 {
		return DefaultCheckpointRecords
	}
	return c.CheckpointRecords
}

func (c Config) checkpointBytes() int64 {
	if c.CheckpointBytes == 0 {
		return DefaultCheckpointBytes
	}
	return c.CheckpointBytes
}

// RecoveryInfo reports what Open had to do to reach a servable state.
type RecoveryInfo struct {
	SnapshotSeq      uint64   // boundary of the snapshot loaded (0 = started empty)
	SnapshotPath     string   // file it came from ("" = started empty)
	SkippedSnapshots []string // newer snapshots that failed to decode
	ReplayedRecords  int      // WAL records applied past the snapshot
	TruncatedBytes   int64    // torn-tail bytes the WAL discarded
	Duration         time.Duration
	// Clean reports a recovery that found exactly the state the last
	// process left: nothing replayed, nothing truncated, no snapshot
	// skipped.
	Clean bool

	// Cold-start breakdown (/v1/health's recovery block surfaces
	// these): where the recovery time went, and how
	// much re-derivation the persisted artifacts avoided.
	SnapshotFormat  int           // per-contract format version loaded (0 = started empty)
	SnapshotDecode  time.Duration // container parse + head decode + slab view setup
	ArtifactRestore time.Duration // validation + artifact adoption + index/projection rebuild
	WALReplay       time.Duration // replaying the log suffix
	CompiledAdopted int           // automata whose CSR form came from disk (none built from rows)

	// Load mechanics of the snapshot bytes: how the slabs entered
	// memory. MappedBytes is the file mapping adopted in place (0 when
	// the file was read into the heap); CopiedBytes is slab bytes
	// element-wise copied instead of viewed (0 on little-endian hosts
	// but a v4 file's classes slab); Sections is the container's
	// directory size. MmapFallback names the reason mapping was not used
	// ("unsupported-platform", "empty-file", or
	// "mmap-failed: ..."; empty when mapped or when no snapshot was
	// loaded).
	MappedBytes  int64
	CopiedBytes  int64
	Sections     int
	MmapFallback string
}

// Store is an open durable contract database. All methods are safe
// for concurrent use.
type Store struct {
	cfg Config
	db  *core.DB
	j   *journal.Journal
	met *metrics.Durability

	// mapping is the snapshot file mapping the database's slabs alias
	// (nil when the snapshot was read into the heap or absent). The
	// store owns its lifetime: it stays valid until Close, which
	// releases it after the final checkpoint.
	mapping []byte

	// Recovery describes what Open did; read-only afterwards.
	Recovery RecoveryInfo

	mu           sync.Mutex // guards the fields below
	sinceRecords int        // appends since the last snapshot
	sinceBytes   int64
	closed       bool

	ckptMu sync.Mutex // serializes checkpoint runs
	ckptC  chan struct{}
	stop   chan struct{}
	wg     sync.WaitGroup
}

// readSnapshotFile brings a snapshot's bytes into memory, preferring
// a private mapping: the loader adopts the slabs in place, so a mapped
// cold start pages data in on demand instead of decoding it up front.
// Where mapping is impossible (no mmap on the platform, an empty file,
// a failed map) it reads the file into the heap, and the slabs are
// adopted zero-copy from that buffer. mapped reports whether data is a
// mapping the caller must eventually munmap; fallback names the reason
// it is not.
func readSnapshotFile(path string) (data []byte, mapped bool, fallback string, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, "", err
	}
	defer f.Close()
	readHeap := func(reason string) ([]byte, bool, string, error) {
		data, err := os.ReadFile(path)
		return data, false, reason, err
	}
	if !mmapSupported {
		return readHeap("unsupported-platform")
	}
	st, err := f.Stat()
	if err != nil {
		return nil, false, "", err
	}
	if st.Size() == 0 || st.Size() > int64(int(^uint(0)>>1)) {
		return readHeap("empty-file")
	}
	b, merr := mmapPrivate(f, int(st.Size()))
	if merr != nil {
		return readHeap("mmap-failed: " + merr.Error())
	}
	return b, true, "", nil
}

// Open recovers (or creates) the store in dir and returns it ready to
// serve. The returned store has installed itself as the database's
// OpLog, so every mutation on DB() is durably logged before it
// applies.
func Open(dir string, cfg Config) (*Store, error) {
	met := cfg.Metrics
	if met == nil {
		met = &metrics.Durability{}
	}
	var info RecoveryInfo
	var db *core.DB
	var mapping []byte // live snapshot mapping; munmapped at Close
	load := func(path string) error {
		if path == "" {
			voc, err := vocab.FromNames(cfg.Events...)
			if err != nil {
				return fmt.Errorf("store: %w", err)
			}
			db = core.NewDB(voc, cfg.Core)
			return nil
		}
		data, mapped, fallback, err := readSnapshotFile(path)
		if err != nil {
			return err
		}
		// Pre-v4 gob snapshots and legacy v4 shapes are refused with
		// core.ErrUnsupportedFormat.
		var lstats core.LoadStats
		if db, lstats, err = core.LoadBytesWithStats(data); err != nil {
			if mapped {
				munmap(data)
			}
			if cfg.Logf != nil {
				cfg.Logf("store: skipping snapshot %s: %v", path, err)
			}
			return err
		}
		if mapped {
			mapping = data
			info.MappedBytes = int64(len(data))
		}
		info.SnapshotFormat = lstats.FormatVersion
		info.SnapshotDecode = lstats.Decode
		info.ArtifactRestore = lstats.Restore
		info.CompiledAdopted = lstats.CompiledAdopted
		info.CopiedBytes = lstats.CopiedBytes
		info.Sections = lstats.Sections
		info.MmapFallback = fallback
		if !mapped && info.CopiedBytes < int64(len(data)) {
			// Nothing mapped, so every byte of the file reached the heap
			// by ReadFile (the adopted slabs alias that buffer).
			info.CopiedBytes = int64(len(data))
		}
		return nil
	}
	apply := func(r wal.Record) error {
		switch r.Type {
		case recordRegister:
			return db.ApplyRegistration(r.Data, nil)
		case recordUnregister:
			return db.ApplyUnregister(string(r.Data))
		}
		return fmt.Errorf("store: replay: unknown record type %d at seq %d (written by a newer build?)", r.Type, r.Seq)
	}
	j, rec, err := journal.Open(journal.Config{
		Dir:    dir,
		Prefix: "snapshot-",
		Suffix: ".ctdb",
		Keep:   cfg.KeepSnapshots,
		WAL: wal.Options{
			SegmentBytes: cfg.SegmentBytes,
			Sync:         cfg.Sync,
			SyncInterval: cfg.SyncInterval,
			Metrics:      met,
		},
	}, load, apply)
	if err != nil {
		if mapping != nil {
			munmap(mapping)
		}
		return nil, err
	}
	info.SnapshotSeq = rec.Boundary
	info.SnapshotPath = rec.Path
	info.SkippedSnapshots = rec.Skipped
	info.ReplayedRecords = rec.Replayed
	info.TruncatedBytes = rec.Truncated
	info.WALReplay = rec.WALReplay
	info.Duration = rec.Duration
	info.Clean = rec.Clean()

	s := &Store{
		cfg:      cfg,
		db:       db,
		j:        j,
		met:      met,
		mapping:  mapping,
		Recovery: info,
		ckptC:    make(chan struct{}, 1),
		stop:     make(chan struct{}),
	}
	if rec.Path == "" {
		// Materialize the empty state so the vocabulary and options
		// survive even if the process dies before the first checkpoint.
		if _, err := s.checkpoint(); err != nil {
			j.Close()
			return nil, err
		}
	}
	db.SetOpLog(s)
	s.wg.Add(1)
	go s.checkpointLoop()
	return s, nil
}

// DB returns the recovered database. Mutations on it are logged
// through the store; queries touch the store not at all.
func (s *Store) DB() *core.DB { return s.db }

// Router returns the same database as DB. It is kept only because the
// benchmark harness still calls it by this name.
func (s *Store) Router() *core.DB { return s.db }

// Metrics returns the store's durability registry.
func (s *Store) Metrics() *metrics.Durability { return s.met }

// LogRegister implements core.OpLog. Called under the database's
// write lock, so append order is apply order.
func (s *Store) LogRegister(encoded []byte) error {
	return s.logOp(recordRegister, encoded)
}

// LogUnregister implements core.OpLog.
func (s *Store) LogUnregister(name string) error {
	return s.logOp(recordUnregister, []byte(name))
}

func (s *Store) logOp(typ byte, data []byte) error {
	if _, err := s.j.Append(typ, data); err != nil {
		return err
	}
	s.mu.Lock()
	s.sinceRecords++
	s.sinceBytes += wal.FrameSize(len(data))
	trigger := (s.cfg.checkpointRecords() > 0 && s.sinceRecords >= s.cfg.checkpointRecords()) ||
		(s.cfg.checkpointBytes() > 0 && s.sinceBytes >= s.cfg.checkpointBytes())
	s.mu.Unlock()
	if trigger {
		select {
		case s.ckptC <- struct{}{}:
		default: // one already queued
		}
	}
	return nil
}

// checkpointLoop runs threshold-triggered checkpoints off the write
// path (a checkpoint read-locks the database to copy its contract
// list; the trigger fires under the write lock).
func (s *Store) checkpointLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case <-s.ckptC:
			if _, err := s.Checkpoint(); err != nil {
				if s.cfg.Logf != nil {
					s.cfg.Logf("store: background checkpoint: %v", err)
				}
			}
		}
	}
}

// Checkpoint seals the WAL, writes a snapshot covering everything
// below the returned boundary, and prunes obsolete snapshots and
// segments. Concurrent registrations and queries keep running; only
// one checkpoint runs at a time. A no-op (nothing appended since the
// last snapshot) returns the existing boundary.
func (s *Store) Checkpoint() (uint64, error) {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, fmt.Errorf("store: closed")
	}
	s.mu.Unlock()
	return s.checkpoint()
}

// checkpoint is Checkpoint without the closed guard; Open and Close
// use it for the first and final snapshots. Callers hold ckptMu or
// own the store exclusively.
func (s *Store) checkpoint() (uint64, error) {
	boundary, fresh, err := s.j.Seal()
	if err != nil {
		return 0, err
	}
	if !fresh {
		return boundary, nil // nothing new to cover
	}
	err = s.j.Commit(boundary, s.db.Save)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	// Appends racing the snapshot write are both in it and still in the
	// WAL suffix; resetting to zero over-covers them, which only delays
	// the next checkpoint, never loses data.
	s.sinceRecords, s.sinceBytes = 0, 0
	s.mu.Unlock()
	return boundary, nil
}

// Close checkpoints any unsnapshotted suffix, flushes and closes the
// WAL, stops the background work, and releases the snapshot mapping
// if the database was loaded from one. When recovery read the
// snapshot into the heap (RecoveryInfo.MmapFallback set) the database stays
// queryable in memory afterwards; when it was memory-mapped
// (Recovery.MappedBytes > 0) its artifacts alias the released
// mapping, so the database must not be used after Close.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()

	close(s.stop)
	s.wg.Wait()

	s.ckptMu.Lock()
	_, cerr := s.checkpoint()
	s.ckptMu.Unlock()

	werr := s.j.Close()
	// Last: the final checkpoint above read the mapped slabs while
	// re-saving, so the mapping must outlive it.
	if s.mapping != nil {
		if merr := munmap(s.mapping); merr != nil && werr == nil && cerr == nil {
			cerr = fmt.Errorf("store: unmap snapshot: %w", merr)
		}
		s.mapping = nil
	}
	if cerr != nil {
		return cerr
	}
	return werr
}
