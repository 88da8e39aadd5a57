package stream

import (
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"contractdb/internal/journal"
	"contractdb/internal/metrics"
	"contractdb/internal/monitor"
	"contractdb/internal/vocab"
	"contractdb/internal/wal"
)

// Journal records and checkpoint payload.
//
// A durable broker keeps an internal/journal in Config.Dir: a WAL of
// stream creates, deletes and event batches, each appended before the
// operation is acknowledged, plus generations
// streams-<boundary>.snap holding, per stream, the contract list, the
// current frontier bitset words, the applied-event count, and the full
// verdict history with its sequence numbers. Recovery resumes from the
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

	snapshotFormat = 1
)

// snapshotFile is the gob-encoded checkpoint payload.
type snapshotFile struct {
	Format   int
	Boundary uint64
	Streams  []streamSnap
}

// streamSnap is one stream's checkpointed state. States holds each
// attachment's automaton size at checkpoint time: if the contract's
// automaton has a different size at recovery (re-registered under the
// same name), the persisted frontier indexes the wrong state space and
// the attachment is reset to the initial frontier instead.
type streamSnap struct {
	Name      string
	Contracts []string
	States    []int
	Frontiers [][]uint64
	Statuses  []int
	Events    uint64
	Verdicts  []Verdict
}

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
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		var snap snapshotFile
		err = gob.NewDecoder(f).Decode(&snap)
		if err == nil && snap.Format != snapshotFormat {
			err = fmt.Errorf("snapshot format %d, want %d", snap.Format, snapshotFormat)
		}
		if err != nil {
			b.logf("stream: recovery: skipping snapshot %s: %v", path, err)
			return err
		}
		for _, ss := range snap.Streams {
			b.restoreStream(ss)
		}
		return nil
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

// restoreStream rebuilds one checkpointed stream: shared automaton
// groups re-resolved by contract name, frontier words copied into
// fresh arena slots. A contract that no longer resolves drops the
// stream (logged); a changed automaton resets that attachment.
func (b *Broker) restoreStream(ss streamSnap) {
	sh := b.shardFor(ss.Name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	groups := make([]*group, len(ss.Contracts))
	for i, cname := range ss.Contracts {
		g, err := sh.groupFor(cname)
		if err != nil {
			b.met.Dropped.Inc()
			b.logf("stream: recovery: stream %q: %v; stream dropped", ss.Name, err)
			return
		}
		groups[i] = g
	}
	st := &stream{
		name:      ss.Name,
		contracts: append([]string(nil), ss.Contracts...),
		atts:      make([]attachment, len(ss.Contracts)),
		notify:    make(chan struct{}),
		verdicts:  ss.Verdicts,
	}
	for i, g := range groups {
		g.refs++
		a := attachment{g: g, slot: g.alloc()}
		if i < len(ss.States) && ss.States[i] == g.auto.N && i < len(ss.Frontiers) {
			a.setFrontier(ss.Frontiers[i])
			a.status = monitor.Status(ss.Statuses[i])
		} else {
			a.status = g.initialStatus()
			b.logf("stream: recovery: stream %q contract %q automaton changed; frontier reset", ss.Name, g.contract)
		}
		st.atts[i] = a
	}
	st.events = ss.Events
	st.accepted.Store(ss.Events)
	sh.streams[ss.Name] = st
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
// returns the existing boundary.
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
	var snaps []streamSnap
	if fresh {
		snaps = b.capture()
	}
	for _, sh := range b.shards {
		sh.ingestMu.Unlock()
	}
	if err != nil || !fresh {
		return boundary, err
	}
	err = j.Commit(boundary, func(w io.Writer) error {
		return gob.NewEncoder(w).Encode(snapshotFile{Format: snapshotFormat, Boundary: boundary, Streams: snaps})
	})
	if err != nil {
		return 0, err
	}
	b.recordsSince.Add(-sealed)
	return boundary, nil
}

// capture deep-copies every stream's checkpointable state. Callers
// hold every ingestMu with queues drained, so the copy is a consistent
// cut; shard mutexes still guard against concurrent readers.
func (b *Broker) capture() []streamSnap {
	var out []streamSnap
	for _, sh := range b.shards {
		sh.mu.Lock()
		for _, st := range sh.streams {
			ss := streamSnap{
				Name:      st.name,
				Contracts: append([]string(nil), st.contracts...),
				Events:    st.events,
				Verdicts:  append([]Verdict(nil), st.verdicts...),
			}
			for i := range st.atts {
				a := &st.atts[i]
				ss.States = append(ss.States, a.g.auto.N)
				ss.Frontiers = append(ss.Frontiers, a.frontier())
				ss.Statuses = append(ss.Statuses, int(a.status))
			}
			out = append(out, ss)
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
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
