package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"contractdb/internal/journal"
	"contractdb/internal/metrics"
	"contractdb/internal/vocab"
	"contractdb/internal/wal"
)

// Journal records.
//
// A durable broker keeps an internal/journal in Config.Dir: a WAL of
// stream creates, deletes and event batches, each appended before the
// operation is acknowledged, plus generations streams-<boundary>.snap
// holding every stream's attachments, frontiers, applied-event count
// and verdict history (see checkpoint.go). Recovery resumes from the
// checkpointed frontier, not from event zero. Each event record
// carries the index of its first snapshot in the stream's event
// sequence, so a record that overlaps the checkpoint replays
// idempotently: already-consumed snapshots are skipped by index.
const (
	recCreate byte = 1
	recDelete byte = 2
	// recEventsRaw is the event-batch record of earlier builds, with
	// each snapshot a raw 8-byte set. It is replayed, never written.
	recEventsRaw byte = 3
	recEvents    byte = 4
)

// openJournal opens (or creates) the journal under cfg.Dir, recovers
// checkpointed streams and replays the WAL suffix. Called by New
// before the shard workers start, so apply helpers run unraced.
func (b *Broker) openJournal(cfg Config) error {
	dur := cfg.Durability
	if dur == nil {
		dur = &metrics.Durability{}
	}
	load := func(path string) error {
		if path == "" {
			return nil // no checkpoint yet: start with no streams
		}
		data, err := os.ReadFile(path)
		if err == nil {
			err = b.loadGeneration(data)
		}
		if err != nil {
			b.logf("stream: recovery: skipping snapshot %s: %v", path, err)
		}
		return err
	}
	j, rec, err := journal.Open(journal.Config{
		Dir:    cfg.Dir,
		Prefix: "streams-",
		Suffix: ".snap",
		Keep:   cfg.KeepSnapshots,
		WAL: wal.Options{
			SegmentBytes: cfg.SegmentBytes,
			Sync:         cfg.Sync,
			SyncInterval: cfg.SyncInterval,
			Metrics:      dur,
		},
	}, load, b.applyRecord)
	if err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	b.journal = j
	b.recordsSince.Store(int64(rec.Replayed))
	b.Recovery = RecoveryInfo{
		Clean:            rec.Clean(),
		SnapshotSeq:      rec.Boundary,
		SnapshotPath:     rec.Path,
		SkippedSnapshots: rec.Skipped,
		ReplayedRecords:  rec.Replayed,
		Streams:          len(b.List()),
		Duration:         rec.Duration,
	}
	return nil
}

// applyRecord replays one journal record. Decode failures and unknown
// types abort recovery (the journal was written by a newer build, or
// is corrupt past what the WAL's CRC caught); apply-level failures —
// a create that was refused when first acknowledged, events for a
// stream deleted later in the log — are skipped, matching the original
// run's outcome.
func (b *Broker) applyRecord(rec wal.Record) error {
	switch rec.Type {
	case recCreate:
		name, contracts, err := decodeCreate(rec.Data)
		if err != nil {
			return fmt.Errorf("stream: journal record %d: %w", rec.Seq, err)
		}
		if err := b.shardFor(name).applyCreate(name, contracts); err != nil {
			b.met.Dropped.Inc()
			b.logf("stream: replay: %v", err)
		}
	case recDelete:
		name, _, err := readString(rec.Data)
		if err != nil {
			return fmt.Errorf("stream: journal record %d: %w", rec.Seq, err)
		}
		if err := b.shardFor(name).applyDelete(name); err != nil {
			b.met.Dropped.Inc()
			b.logf("stream: replay: %v", err)
		}
	case recEvents, recEventsRaw:
		name, first, snaps, err := decodeEvents(rec.Type, rec.Data)
		if err != nil {
			return fmt.Errorf("stream: journal record %d: %w", rec.Seq, err)
		}
		if err := b.shardFor(name).applyEvents(name, first, snaps); err != nil {
			b.met.Dropped.Inc()
			b.logf("stream: replay: %v", err)
		}
	default:
		return fmt.Errorf("stream: journal record %d has unknown type %d (written by a newer build?)", rec.Seq, rec.Type)
	}
	return nil
}

// Checkpoint quiesces intake, seals the WAL, persists every stream's
// frontier and verdict history, and prunes what the retained
// generations no longer need. It returns the boundary sequence: every
// journal record below it is covered by the fsynced snapshot. With
// nothing journaled since the last checkpoint it writes nothing and
// returns the existing boundary. Only the seal and the capture run
// with intake stopped; the generation is encoded and written after it
// resumes.
func (b *Broker) Checkpoint() (uint64, error) {
	j := b.journal
	if j == nil {
		return 0, errors.New("stream: no journal configured")
	}
	b.ckptMu.Lock()
	defer b.ckptMu.Unlock()
	for _, sh := range b.shards {
		sh.ingestMu.Lock()
	}
	// Intake is stopped; drain so every acknowledged record is applied
	// and therefore captured below.
	for _, sh := range b.shards {
		for sh.pending.Load() != 0 {
			time.Sleep(50 * time.Microsecond)
		}
	}
	boundary, fresh, err := j.Seal()
	// Records acknowledged once intake resumes stay counted as lag.
	sealed := b.recordsSince.Load()
	var gen generation
	if fresh {
		gen = b.capture()
	}
	for _, sh := range b.shards {
		sh.ingestMu.Unlock()
	}
	if err != nil || !fresh {
		return boundary, err
	}
	err = j.Commit(boundary, func(w io.Writer) error {
		return gen.write(w, boundary)
	})
	if err != nil {
		return 0, err
	}
	b.recordsSince.Add(-sealed)
	return boundary, nil
}

// Record encoding: length-prefixed strings and uvarints. An event
// record is the stream name, the index of its first snapshot, the
// snapshot count, and each snapshot as the uvarint of its vocab.Set, so
// an empty instant takes one byte (recEventsRaw wrote 8 per snapshot).
// The per-shard scratch buffer (under ingestMu) keeps the append path
// allocation-light. Decoders bound every count by the bytes that
// remain before allocating, so a damaged or hostile record fails with
// errCorruptRecord instead of a panic.

var errCorruptRecord = errors.New("corrupt journal record")

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func readString(b []byte) (string, []byte, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 || uint64(len(b)-k) < n {
		return "", nil, fmt.Errorf("%w: string", errCorruptRecord)
	}
	return string(b[k : k+int(n)]), b[k+int(n):], nil
}

func encodeCreate(b []byte, name string, contracts []string) []byte {
	b = appendString(b, name)
	b = binary.AppendUvarint(b, uint64(len(contracts)))
	for _, c := range contracts {
		b = appendString(b, c)
	}
	return b
}

func (sh *shard) appendCreate(name string, contracts []string) error {
	sh.encBuf = encodeCreate(sh.encBuf[:0], name, contracts)
	_, err := sh.b.journal.Append(recCreate, sh.encBuf)
	return err
}

func decodeCreate(b []byte) (string, []string, error) {
	name, b, err := readString(b)
	if err != nil {
		return "", nil, err
	}
	n, k := binary.Uvarint(b)
	// Each contract name takes at least its one-byte length prefix.
	if k <= 0 || n > uint64(len(b)-k) {
		return "", nil, fmt.Errorf("%w: contract count", errCorruptRecord)
	}
	b = b[k:]
	contracts := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		var c string
		c, b, err = readString(b)
		if err != nil {
			return "", nil, err
		}
		contracts = append(contracts, c)
	}
	return name, contracts, nil
}

func (sh *shard) appendDelete(name string) error {
	sh.encBuf = appendString(sh.encBuf[:0], name)
	_, err := sh.b.journal.Append(recDelete, sh.encBuf)
	return err
}

func encodeEvents(b []byte, name string, first uint64, snaps []vocab.Set) []byte {
	b = appendString(b, name)
	b = binary.AppendUvarint(b, first)
	b = binary.AppendUvarint(b, uint64(len(snaps)))
	for _, s := range snaps {
		b = binary.AppendUvarint(b, uint64(s))
	}
	return b
}

func (sh *shard) appendEvents(name string, first uint64, snaps []vocab.Set) error {
	sh.encBuf = encodeEvents(sh.encBuf[:0], name, first, snaps)
	_, err := sh.b.journal.Append(recEvents, sh.encBuf)
	return err
}

// decodeEvents decodes an event record of type typ, recEvents or
// recEventsRaw.
func decodeEvents(typ byte, b []byte) (string, uint64, []vocab.Set, error) {
	name, b, err := readString(b)
	if err != nil {
		return "", 0, nil, err
	}
	first, k := binary.Uvarint(b)
	if k <= 0 {
		return "", 0, nil, fmt.Errorf("%w: first index", errCorruptRecord)
	}
	b = b[k:]
	n, k := binary.Uvarint(b)
	// A snapshot takes at least one byte, a raw one exactly 8. Compare
	// by division: 8*n overflows for a hostile count.
	raw := typ == recEventsRaw
	if k <= 0 || n > uint64(len(b)-k) || raw && (n > uint64(len(b)-k)/8 || uint64(len(b)-k) != 8*n) {
		return "", 0, nil, fmt.Errorf("%w: snapshot count", errCorruptRecord)
	}
	b = b[k:]
	snaps := make([]vocab.Set, n)
	if raw {
		for i := range snaps {
			snaps[i] = vocab.Set(binary.LittleEndian.Uint64(b[8*i:]))
		}
		return name, first, snaps, nil
	}
	for i := range snaps {
		s, k := binary.Uvarint(b)
		if k <= 0 {
			return "", 0, nil, fmt.Errorf("%w: snapshot %d", errCorruptRecord, i)
		}
		snaps[i], b = vocab.Set(s), b[k:]
	}
	if len(b) != 0 {
		return "", 0, nil, fmt.Errorf("%w: %d bytes past the last snapshot", errCorruptRecord, len(b))
	}
	return name, first, snaps, nil
}
