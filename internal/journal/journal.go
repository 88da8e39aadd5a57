// Package journal owns the crash-safe protocol shared by every durable
// subsystem that pairs a write-ahead log with snapshot generations: the
// contract store and the stream broker.
//
// Layout of a journal directory:
//
//	<Prefix><boundary><Suffix>   snapshot generation covering every
//	                             record with sequence < boundary
//	wal/wal-<firstSeq>.seg       log segments (see internal/wal)
//
// Open recovers: it deletes stale temp files, hands generations to the
// caller's load newest first until one loads, opens the WAL, checks
// that the log reaches from the boundary on, and replays the suffix
// through the caller's apply. A checkpoint is Seal (make every record
// durable and fix the boundary) followed by Commit (write the
// generation through temp file, fsync, rename and directory fsync, then
// prune generations and WAL segments nothing retained still needs).
//
// The boundary is conservative: records appended between Seal and the
// caller's capture of its state are both in the generation and in the
// replayed suffix, so callers must apply records idempotently.
package journal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"contractdb/internal/metrics"
	"contractdb/internal/wal"
)

// Recovery refusals. Each names a directory the WAL cannot bring back
// to the state the last process acknowledged.
var (
	// ErrUnreadable: generations exist but none loads. The WAL is pruned
	// against them, so replaying it alone would fabricate state.
	ErrUnreadable = errors.New("journal: every snapshot generation is unreadable")
	// ErrGap: the WAL's first record lies past the boundary, so records
	// the loaded generation does not cover were pruned.
	ErrGap = errors.New("journal: log gap")
	// ErrLost: the WAL ends below the boundary. Appends would reuse
	// sequence numbers the generation already covers, and the next
	// recovery would skip them.
	ErrLost = errors.New("journal: log lost")
)

// DefaultKeep is the generation count Commit retains by default.
const DefaultKeep = 2

// Config names a journal's files and its retention.
type Config struct {
	// Dir holds the generations; the WAL lives in Dir/wal.
	Dir string
	// Prefix and Suffix frame a generation's file name around its
	// zero-padded boundary.
	Prefix, Suffix string
	// Keep is how many generations Commit retains; zero or less
	// selects DefaultKeep.
	Keep int
	// WAL configures the log. Its Metrics registry is required and also
	// receives the checkpoint and recovery counters.
	WAL wal.Options
}

// Recovery reports what Open did.
type Recovery struct {
	Boundary  uint64   // boundary of the loaded generation (0 = none on disk)
	Path      string   // its file ("" = none on disk)
	Skipped   []string // newer generations load refused
	Replayed  int      // WAL records applied
	Truncated int64    // torn-tail bytes the WAL discarded
	WALReplay time.Duration
	Duration  time.Duration
}

// Clean reports a recovery that found exactly the state the last
// process left: nothing replayed, nothing truncated, no generation
// skipped.
func (r Recovery) Clean() bool {
	return r.Replayed == 0 && r.Truncated == 0 && len(r.Skipped) == 0
}

// Journal is an open journal. The embedded log takes the caller's
// appends and is safe for concurrent use; Seal and Commit are not safe
// to run concurrently with each other, so the caller serializes its
// checkpoints.
type Journal struct {
	*wal.Log
	cfg  Config
	met  *metrics.Durability
	last uint64 // boundary of the newest generation on disk (0 = none)
}

// Open recovers the journal in cfg.Dir (created if missing). load is
// called with each generation's path, newest first, until one returns
// nil; a load that fails must leave the caller's state untouched. When
// the directory holds no generation at all, load is called once with
// an empty path and sets up the caller's empty state; its error is
// returned. When generations exist but none loads, the ErrUnreadable
// refusal also wraps the newest generation's load error. apply
// receives every WAL record at or past the loaded boundary, in
// sequence order.
func Open(cfg Config, load func(path string) error, apply func(wal.Record) error) (*Journal, Recovery, error) {
	start := time.Now()
	var rec Recovery
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, rec, fmt.Errorf("journal: %w", err)
	}
	// A crash mid-checkpoint leaves a temp file the rename never
	// promoted; it holds nothing the WAL does not.
	stale, _ := filepath.Glob(filepath.Join(cfg.Dir, "*.tmp"))
	for _, p := range stale {
		os.Remove(p)
	}
	j := &Journal{cfg: cfg, met: cfg.WAL.Metrics}
	gens, err := j.generations()
	if err != nil {
		return nil, rec, err
	}

	var newestErr error // why the newest generation did not load
	for _, g := range gens {
		err := load(g.path)
		if err == nil {
			rec.Boundary, rec.Path = g.boundary, g.path
			break
		}
		if newestErr == nil {
			newestErr = err
		}
		rec.Skipped = append(rec.Skipped, g.path)
	}
	if rec.Path == "" {
		if len(gens) > 0 {
			return nil, rec, fmt.Errorf("%w: all %d in %s; refusing to recover from the WAL alone; newest: %w",
				ErrUnreadable, len(gens), cfg.Dir, newestErr)
		}
		if err := load(""); err != nil {
			return nil, rec, err
		}
	}
	j.last = rec.Boundary
	boundary := max(rec.Boundary, 1)

	// The log opens at its default start sequence, not at the boundary:
	// a healthy directory always keeps the active segment, so a log
	// created here under a generation past 1 was lost, and the ErrLost
	// check below refuses it.
	w, err := wal.Open(filepath.Join(cfg.Dir, "wal"), cfg.WAL)
	if err != nil {
		return nil, rec, err
	}
	j.Log = w
	rec.Truncated = w.TruncatedBytes
	if first := w.FirstSeq(); first > boundary {
		w.Close()
		return nil, rec, fmt.Errorf("%w: the WAL starts at seq %d but the snapshot covers only seq < %d", ErrGap, first, boundary)
	}
	if next := w.NextSeq(); next < boundary {
		w.Close()
		return nil, rec, fmt.Errorf("%w: the snapshot covers seq < %d but the WAL ends at %d", ErrLost, boundary, next)
	}

	replayStart := time.Now()
	err = w.Replay(boundary, func(r wal.Record) error {
		if err := apply(r); err != nil {
			return err
		}
		rec.Replayed++
		return nil
	})
	if err != nil {
		w.Close()
		return nil, rec, err
	}
	rec.WALReplay = time.Since(replayStart)
	rec.Duration = time.Since(start)
	j.met.RecoveryReplayed.Add(int64(rec.Replayed))
	j.met.RecoveryTruncated.Add(rec.Truncated)
	j.met.Recovery.Observe(rec.Duration)
	return j, rec, nil
}

// Seal makes every appended record durable in a sealed segment and
// returns the checkpoint boundary, plus whether anything was appended
// since the newest generation was written — false means a checkpoint
// at this boundary would rewrite that generation, so callers skip it.
func (j *Journal) Seal() (uint64, bool, error) {
	boundary, err := j.Log.Seal()
	if err != nil {
		j.met.CheckpointErrors.Inc()
		return 0, false, err
	}
	return boundary, boundary != j.last, nil
}

// Commit writes the generation covering every record below boundary
// (write renders it), then keeps the newest Keep generations and
// prunes the WAL below the oldest one kept, so every retained
// generation can still replay its suffix.
func (j *Journal) Commit(boundary uint64, write func(io.Writer) error) error {
	start := time.Now()
	if err := j.writeGeneration(boundary, write); err != nil {
		j.met.CheckpointErrors.Inc()
		return err
	}
	j.last = boundary
	j.met.CheckpointWrite.Observe(time.Since(start))
	j.met.Checkpoints.Inc()

	err := j.prune()
	if err != nil {
		j.met.CheckpointErrors.Inc()
	}
	return err
}

// writeGeneration persists one generation: temp file, fsync, atomic
// rename, directory fsync.
func (j *Journal) writeGeneration(boundary uint64, write func(io.Writer) error) error {
	final := filepath.Join(j.cfg.Dir, fmt.Sprintf("%s%020d%s", j.cfg.Prefix, boundary, j.cfg.Suffix))
	tmp := final + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("journal: checkpoint: %w", err)
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, final)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: checkpoint: %w", err)
	}
	return wal.SyncDir(j.cfg.Dir)
}

// prune removes generations beyond the retention count and every WAL
// segment wholly below the oldest retained boundary. The WAL counts the
// segments it removes.
func (j *Journal) prune() error {
	gens, err := j.generations()
	if err != nil {
		return err
	}
	keep := j.cfg.Keep
	if keep <= 0 {
		keep = DefaultKeep
	}
	if len(gens) > keep {
		for _, g := range gens[keep:] {
			if err := os.Remove(g.path); err != nil {
				return fmt.Errorf("journal: prune: %w", err)
			}
			j.met.SnapshotsPruned.Inc()
		}
		gens = gens[:keep]
	}
	_, err = j.Log.PruneBelow(gens[len(gens)-1].boundary)
	return err
}

type generation struct {
	path     string
	boundary uint64
}

// generations lists the directory's generations, newest first. The
// boundary is parsed numerically, so names of any zero padding sort
// correctly.
func (j *Journal) generations() ([]generation, error) {
	entries, err := os.ReadDir(j.cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var out []generation
	for _, e := range entries {
		digits, ok := strings.CutPrefix(e.Name(), j.cfg.Prefix)
		if !ok {
			continue
		}
		if digits, ok = strings.CutSuffix(digits, j.cfg.Suffix); !ok {
			continue
		}
		seq, err := strconv.ParseUint(digits, 10, 64)
		if err != nil {
			continue // not ours
		}
		out = append(out, generation{path: filepath.Join(j.cfg.Dir, e.Name()), boundary: seq})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].boundary > out[b].boundary })
	return out, nil
}
