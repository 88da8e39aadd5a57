// Package store is the broker's durable storage engine: it owns a
// data directory and keeps a database — the shard router of
// internal/shard at Config.Shards shards (one by default) — crash-safe
// by combining the write-ahead log of internal/wal with periodic
// snapshots.
//
// Layout of a data directory:
//
//	snapshot-<boundary>.ctdb   shard.DB.Save snapshot covering every
//	                           op with sequence < boundary
//	wal/wal-<firstSeq>.seg     log segments (see internal/wal)
//
// Open recovers: it loads the newest snapshot that still decodes,
// opens the WAL (which truncates a torn tail and refuses mid-log
// corruption), and replays every record past the snapshot's boundary.
// Replay restores the precomputed registration artifacts from the
// records themselves — no automata are re-translated — so recovery
// cost is I/O, not the paper's hours-long registration step.
//
// The snapshot boundary is a conservative lower bound: a checkpoint
// seals the WAL at boundary B and then snapshots, so ops ≥ B that land
// while the snapshot is being written are both in the snapshot and in
// the replayed suffix. Replay is therefore idempotent (core's
// Apply* operations skip what is already present / already absent),
// which makes the recovered state converge on exactly the state a
// never-crashed database would hold.
//
// Checkpointing runs in the background when the record- or byte-count
// since the last snapshot crosses a threshold, and on demand (the
// server's POST /v1/checkpoint). A checkpoint writes the snapshot to a
// temp file, fsyncs, atomically renames, fsyncs the directory, then
// prunes snapshots beyond the retention count and every WAL segment
// the oldest retained snapshot makes obsolete. Close checkpoints one
// final time, so a cleanly shut down store reopens with zero replay.
package store

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"contractdb/internal/core"
	"contractdb/internal/metrics"
	"contractdb/internal/shard"
	"contractdb/internal/trace"
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
	DefaultKeepSnapshots     = 2
)

// Config configures a Store. The zero value is usable: an empty
// vocabulary, default core options, fsync on every append, automatic
// checkpoints at the defaults.
type Config struct {
	// Events is the vocabulary of a freshly created database; ignored
	// when the directory already holds a snapshot.
	Events []string
	// Shards is the scatter-gather engine's shard count (internal/
	// shard); 0 or 1 means one shard. The WAL stays a single
	// interleaved stream, and each record replays onto the shard that
	// owns its contract name. The count is a runtime choice, not a
	// property of the data — the same directory reopens under any
	// count, and a directory whose newest snapshot is an unsharded
	// container upgrades transparently (the loader deals its contracts
	// across the shards).
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
	// DefaultKeepSnapshots.
	KeepSnapshots int
	// NoMmap disables memory-mapping v4 snapshot containers at Open;
	// the file is read into the heap instead (the slabs are still
	// adopted zero-copy from that buffer). Mapping is also skipped
	// automatically on platforms without mmap and for legacy gob
	// snapshots; RecoveryInfo.MmapFallback records why.
	NoMmap bool
	// Metrics receives durability counters; a fresh registry is created
	// when nil.
	Metrics *metrics.Durability
	// Tracer, when non-nil, records a span tree for recovery (at Open)
	// and for every checkpoint; nil disables storage tracing.
	Tracer *trace.Tracer
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

func (c Config) keepSnapshots() int {
	if c.KeepSnapshots <= 0 {
		return DefaultKeepSnapshots
	}
	return c.KeepSnapshots
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

	// Cold-start breakdown (the ctdb_cold_start_* metric families and
	// /v1/health surface these): where the recovery time went, and how
	// much re-derivation the persisted artifacts avoided.
	SnapshotFormat  int           // per-contract format version loaded (0 = started empty)
	SnapshotDecode  time.Duration // snapshot wire decode (gob, or v4 container parse + view setup)
	ArtifactRestore time.Duration // validation + artifact adoption + index/projection rebuild
	WALReplay       time.Duration // replaying the log suffix
	CompiledAdopted int           // automata whose CSR form came from disk (no flattening)
	DegradedLoaded  int           // contracts restored at the degraded tier and re-pended

	// Load mechanics of the snapshot bytes (formatVersion 4): how the
	// slabs entered memory. MappedBytes is the file mapping adopted
	// in place (0 when the file was read into the heap); CopiedBytes
	// is slab bytes element-wise copied instead of viewed (0 on
	// little-endian hosts); Sections is the container's directory
	// size. MmapFallback names the reason mapping was not used
	// ("disabled", "unsupported-platform", "legacy-gob-snapshot",
	// "empty-file", or "mmap-failed: ..."; empty when mapped or when
	// no snapshot was loaded).
	MappedBytes  int64
	CopiedBytes  int64
	Sections     int
	MmapFallback string
}

// Store is an open durable contract database. All methods are safe
// for concurrent use.
type Store struct {
	dir string
	cfg Config
	db  *shard.DB
	log *wal.Log
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
	lastBoundary uint64 // boundary of the newest snapshot on disk
	closed       bool

	ckptMu sync.Mutex // serializes checkpoint runs
	ckptC  chan struct{}
	stop   chan struct{}
	wg     sync.WaitGroup
}

func snapshotName(boundary uint64) string {
	return fmt.Sprintf("snapshot-%020d.ctdb", boundary)
}

type snapshotFile struct {
	path     string
	boundary uint64
}

// listSnapshots returns the directory's snapshots, newest first.
func listSnapshots(dir string) ([]snapshotFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var out []snapshotFile
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "snapshot-") || !strings.HasSuffix(name, ".ctdb") {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snapshot-"), ".ctdb"), 10, 64)
		if err != nil {
			continue // not ours
		}
		out = append(out, snapshotFile{path: filepath.Join(dir, name), boundary: seq})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].boundary > out[j].boundary })
	return out, nil
}

// readSnapshotFile brings a snapshot's bytes into memory, preferring
// a private mapping for v4 containers: the loader adopts the slabs in
// place, so a mapped cold start pages data in on demand instead of
// decoding it up front. mapped reports whether data is a mapping the
// caller must eventually munmap; fallback names the reason it is not.
func readSnapshotFile(path string, noMmap bool) (data []byte, mapped bool, fallback string, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, "", err
	}
	defer f.Close()
	var magic [8]byte
	n, _ := io.ReadFull(f, magic[:])
	if !core.IsContainer(magic[:n]) {
		data, err := os.ReadFile(path)
		return data, false, "legacy-gob-snapshot", err
	}
	readHeap := func(reason string) ([]byte, bool, string, error) {
		data, err := os.ReadFile(path)
		return data, false, reason, err
	}
	if noMmap {
		return readHeap("disabled")
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
	start := time.Now()
	// The recovery trace is always retained (Start bypasses sampling);
	// a failed open still finishes it, recording how far recovery got.
	rctx, rtr := cfg.Tracer.Start(context.Background(), "recovery")
	defer cfg.Tracer.Finish(rtr)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	met := cfg.Metrics
	if met == nil {
		met = &metrics.Durability{}
	}
	// A crash mid-checkpoint leaves a temp file the rename never
	// promoted; it holds nothing the WAL does not.
	stale, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	for _, p := range stale {
		os.Remove(p)
	}

	snaps, err := listSnapshots(dir)
	if err != nil {
		return nil, err
	}
	var info RecoveryInfo
	var db *shard.DB
	shards := max(1, cfg.Shards)
	loaded := false
	boundary := uint64(1)
	var mapping []byte // live snapshot mapping; munmapped at Close
	_, lsp := trace.StartSpan(rctx, "load_snapshot")
	for _, sn := range snaps {
		data, mapped, fallback, err := readSnapshotFile(sn.path, cfg.NoMmap)
		if err != nil {
			info.SkippedSnapshots = append(info.SkippedSnapshots, sn.path)
			continue
		}
		// The loader reads sharded and unsharded snapshots alike and
		// deals the contracts across the configured count, so changing
		// Shards across restarts never strands a directory.
		var lstats core.LoadStats
		db, lstats, err = shard.LoadBytesWithStats(data, shards)
		if err != nil {
			if mapped {
				munmap(data)
			}
			if cfg.Logf != nil {
				cfg.Logf("store: skipping snapshot %s: %v", sn.path, err)
			}
			info.SkippedSnapshots = append(info.SkippedSnapshots, sn.path)
			continue
		}
		loaded = true
		boundary = sn.boundary
		if mapped {
			mapping = data
			info.MappedBytes = int64(len(data))
		}
		info.SnapshotSeq = sn.boundary
		info.SnapshotPath = sn.path
		info.SnapshotFormat = lstats.FormatVersion
		info.SnapshotDecode = lstats.Decode
		info.ArtifactRestore = lstats.Restore
		info.CompiledAdopted = lstats.CompiledAdopted
		info.DegradedLoaded = lstats.Degraded
		info.CopiedBytes = lstats.CopiedBytes
		info.Sections = lstats.Sections
		info.MmapFallback = fallback
		if !mapped && info.CopiedBytes < int64(len(data)) {
			// Nothing mapped, so every byte of the file reached the heap
			// — by ReadFile for a v4 container (the adopted slabs alias
			// that buffer), or through the gob decoder for legacy.
			info.CopiedBytes = int64(len(data))
		}
		break
	}
	if lsp != nil {
		lsp.SetAttr("boundary", boundary)
		lsp.SetAttr("skipped", len(info.SkippedSnapshots))
		if info.SnapshotPath != "" {
			lsp.SetAttr("path", filepath.Base(info.SnapshotPath))
		}
	}
	lsp.End()
	fresh := false
	if !loaded {
		if len(snaps) > 0 {
			// Snapshots existed and none decodes: the WAL alone cannot
			// reach back to sequence 1 (it is pruned against snapshots),
			// so recovering here would fabricate state. Refuse loudly.
			return nil, fmt.Errorf("store: all %d snapshots in %s are unreadable; refusing to recover from the WAL alone", len(snaps), dir)
		}
		voc, err := vocab.FromNames(cfg.Events...)
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		if db, err = shard.New(voc, cfg.Core, shards); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		fresh = true
	}

	_, osp := trace.StartSpan(rctx, "wal_open")
	w, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{
		SegmentBytes: cfg.SegmentBytes,
		Sync:         cfg.Sync,
		SyncInterval: cfg.SyncInterval,
		StartSeq:     boundary,
		Metrics:      met,
	})
	osp.SetError(err)
	if err != nil {
		osp.End()
		if mapping != nil {
			munmap(mapping)
		}
		return nil, fmt.Errorf("store: %w", err)
	}
	if osp != nil {
		osp.SetAttr("segments", w.SegmentCount())
		osp.SetAttr("truncated_bytes", w.TruncatedBytes)
	}
	osp.End()
	ok := false
	defer func() {
		if !ok {
			w.Close()
			if mapping != nil {
				munmap(mapping)
			}
		}
	}()
	info.TruncatedBytes = w.TruncatedBytes

	// The log must reach back to the snapshot boundary: a first
	// retained record later than the boundary means ops were pruned
	// that the snapshot does not cover.
	if first := w.FirstSeq(); first != 0 && first > boundary {
		return nil, fmt.Errorf("store: WAL starts at seq %d but snapshot covers only seq < %d (log gap)", first, boundary)
	}
	if next := w.NextSeq(); next < boundary {
		return nil, fmt.Errorf("store: snapshot covers seq < %d but the WAL ends at %d (log lost)", boundary, next)
	}

	replayed := 0
	replayStart := time.Now()
	pctx, psp := trace.StartSpan(rctx, "wal_replay")
	err = w.ReplayCtx(pctx, boundary, func(r wal.Record) error {
		switch r.Type {
		case recordRegister:
			if err := db.ApplyRegistration(r.Data); err != nil {
				return err
			}
		case recordUnregister:
			if err := db.ApplyUnregister(string(r.Data)); err != nil {
				return err
			}
		default:
			return fmt.Errorf("store: replay: unknown record type %d at seq %d (written by a newer build?)", r.Type, r.Seq)
		}
		replayed++
		return nil
	})
	if psp != nil {
		psp.SetAttr("replayed", replayed)
	}
	psp.SetError(err)
	psp.End()
	if err != nil {
		return nil, err
	}
	info.ReplayedRecords = replayed
	info.WALReplay = time.Since(replayStart)
	info.Duration = time.Since(start)
	info.Clean = replayed == 0 && info.TruncatedBytes == 0 && len(info.SkippedSnapshots) == 0
	met.RecoveryReplayed.Add(int64(replayed))
	met.RecoveryTruncated.Add(info.TruncatedBytes)
	met.Recovery.Observe(info.Duration)

	s := &Store{
		dir:          dir,
		cfg:          cfg,
		db:           db,
		log:          w,
		met:          met,
		mapping:      mapping,
		Recovery:     info,
		lastBoundary: boundary,
		ckptC:        make(chan struct{}, 1),
		stop:         make(chan struct{}),
	}
	if fresh {
		// Materialize the empty state so the vocabulary and options
		// survive even if the process dies before the first checkpoint.
		if err := s.writeSnapshot(boundary); err != nil {
			return nil, err
		}
	}
	db.SetOpLog(s)
	s.wg.Add(1)
	go s.checkpointLoop()
	ok = true
	return s, nil
}

// DB returns the recovered database. Mutations on it are logged
// through the store; queries touch the store not at all.
func (s *Store) DB() *shard.DB { return s.db }

// Router is an alias of DB; e2ebench's replay calls it by this name.
func (s *Store) Router() *shard.DB { return s.db }

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
	if _, err := s.log.Append(typ, data); err != nil {
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
// path (a checkpoint read-locks each shard to copy its contract list;
// the trigger fires under the write lock).
func (s *Store) checkpointLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case <-s.ckptC:
			if _, err := s.Checkpoint(); err != nil {
				s.met.CheckpointErrors.Inc()
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

// checkpoint is Checkpoint without the closed guard; Close uses it for
// the final flush. Callers hold ckptMu.
func (s *Store) checkpoint() (uint64, error) {
	ctx, tr := s.cfg.Tracer.Start(context.Background(), "checkpoint")
	defer s.cfg.Tracer.Finish(tr)
	root := trace.SpanFrom(ctx)

	_, ssp := trace.StartSpan(ctx, "seal")
	boundary, err := s.log.Seal()
	ssp.SetError(err)
	ssp.End()
	if err != nil {
		return 0, err
	}
	if root != nil {
		root.SetAttr("boundary", boundary)
	}
	s.mu.Lock()
	last := s.lastBoundary
	s.mu.Unlock()
	if boundary == last {
		if root != nil {
			root.SetAttr("noop", true)
		}
		return boundary, nil // nothing new to cover
	}

	start := time.Now()
	_, wsp := trace.StartSpan(ctx, "snapshot")
	err = s.writeSnapshot(boundary)
	wsp.SetError(err)
	wsp.End()
	if err != nil {
		return 0, err
	}
	s.met.CheckpointWrite.Observe(time.Since(start))
	s.met.Checkpoints.Inc()

	s.mu.Lock()
	s.lastBoundary = boundary
	// Appends racing the snapshot write are both in it and still in the
	// WAL suffix; resetting to zero over-covers them, which only delays
	// the next checkpoint, never loses data.
	s.sinceRecords, s.sinceBytes = 0, 0
	s.mu.Unlock()

	_, psp := trace.StartSpan(ctx, "prune")
	err = s.prune()
	psp.SetError(err)
	psp.End()
	if err != nil {
		return boundary, err
	}
	return boundary, nil
}

// writeSnapshot persists the current state as covering seq < boundary:
// temp file, fsync, atomic rename, directory fsync. The ingest
// pipeline is drained first so the snapshot holds full-tier state —
// recovery from it redoes no projection work.
func (s *Store) writeSnapshot(boundary uint64) error {
	s.db.WaitIdle()
	final := filepath.Join(s.dir, snapshotName(boundary))
	tmp := final + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: checkpoint: %w", err)
	}
	if err := s.db.Save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: checkpoint: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: checkpoint: %w", err)
	}
	d, err := os.Open(s.dir)
	if err != nil {
		return fmt.Errorf("store: checkpoint: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: checkpoint: %w", err)
	}
	return nil
}

// prune removes snapshots beyond the retention count and WAL segments
// entirely covered by the oldest retained snapshot.
func (s *Store) prune() error {
	snaps, err := listSnapshots(s.dir)
	if err != nil {
		return err
	}
	keep := s.cfg.keepSnapshots()
	if len(snaps) > keep {
		for _, sn := range snaps[keep:] {
			if err := os.Remove(sn.path); err != nil {
				return fmt.Errorf("store: prune: %w", err)
			}
			s.met.SnapshotsPruned.Inc()
		}
		snaps = snaps[:keep]
	}
	oldest := snaps[len(snaps)-1].boundary
	if _, err := s.log.PruneBelow(oldest); err != nil {
		return err
	}
	return nil
}

// Close checkpoints any unsnapshotted suffix, flushes and closes the
// WAL, stops the background work, and releases the snapshot mapping
// if the database was loaded from one. When recovery read the
// snapshot into the heap (legacy gob, -mmap off) the database stays
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

	// The final checkpoint drained the pipeline; now stop its workers.
	s.db.Close()

	werr := s.log.Close()
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
