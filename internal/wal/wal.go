// Package wal implements a segmented append-only write-ahead log for
// the contract broker's durable storage engine.
//
// Records are framed as
//
//	uint32 LE  payload length n (n = 8 seq + 1 type + len(data))
//	uint32 LE  CRC32C (Castagnoli) over the n payload bytes
//	uint64 LE  sequence number (dense, starting at 1)
//	byte       record type (opaque to this package)
//	n-9 bytes  payload data
//
// The log is a directory of segment files wal-<firstSeq>.seg, each
// starting with a 16-byte header (magic + first sequence number).
// Appends go to the last (active) segment; when it exceeds
// Options.SegmentBytes it is fsynced, sealed and a new active segment
// begins. Sealed segments are immutable and always durable, so crash
// damage is confined to the active segment's tail.
//
// Open validates the entire log. A framing failure in the active
// segment with no decodable record after it is a torn tail — the
// partial final record a crash mid-append leaves behind — and is
// truncated away. A framing failure in a sealed segment, or one with
// valid records after it, is real corruption and Open refuses with a
// *CorruptionError rather than silently skipping data: replaying
// around a hole would resurrect a state no sequence of operations ever
// produced.
//
// Durability is configurable per log: SyncAlways fsyncs after every
// append (every acknowledged record survives power loss), SyncInterval
// fsyncs on a background ticker (bounded data-loss window, much higher
// throughput), SyncNever leaves flushing to the OS. Rotation and Close
// always fsync regardless of policy.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"contractdb/internal/metrics"
)

const (
	magic           = "CTDBWAL1"
	headerSize      = 16 // magic (8) + first sequence number (8)
	frameHeaderSize = 8  // length (4) + CRC32C (4)
	recordOverhead  = 9  // sequence (8) + type (1)

	// DefaultSegmentBytes is the rotation threshold for segments.
	DefaultSegmentBytes = 16 << 20
	// DefaultSyncInterval is the flush period under SyncInterval.
	DefaultSyncInterval = 100 * time.Millisecond
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SyncPolicy selects when appends are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append before it is acknowledged.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a background ticker (Options.SyncInterval).
	SyncInterval
	// SyncNever never fsyncs on the append path; the OS flushes when it
	// pleases. Rotation, Seal and Close still fsync.
	SyncNever
)

// ParseSyncPolicy maps the flag spellings "always", "interval" and
// "never" to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or never)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// Options configure a Log. The zero value is usable: default segment
// size, SyncAlways, sequences starting at 1.
type Options struct {
	// SegmentBytes rotates the active segment once it reaches this many
	// bytes. Zero selects DefaultSegmentBytes.
	SegmentBytes int64
	// Sync is the fsync policy for appends.
	Sync SyncPolicy
	// SyncInterval is the flush period under SyncInterval policy. Zero
	// selects DefaultSyncInterval.
	SyncInterval time.Duration
	// Metrics, when non-nil, receives append/sync latency and byte
	// counters.
	Metrics *metrics.Durability
}

func (o Options) segmentBytes() int64 {
	if o.SegmentBytes <= 0 {
		return DefaultSegmentBytes
	}
	return o.SegmentBytes
}

func (o Options) syncInterval() time.Duration {
	if o.SyncInterval <= 0 {
		return DefaultSyncInterval
	}
	return o.SyncInterval
}

// Record is one log entry as handed to Replay callbacks.
type Record struct {
	Seq  uint64
	Type byte
	Data []byte
}

// CorruptionError reports a record that cannot be a torn tail: either
// it sits in a sealed segment, or decodable records follow it. The log
// refuses to open rather than skip it.
type CorruptionError struct {
	Segment string // file path
	Offset  int64  // byte offset of the bad frame within the segment
	Reason  string
}

func (e *CorruptionError) Error() string {
	return fmt.Sprintf("wal: corrupt record in %s at offset %d: %s", e.Segment, e.Offset, e.Reason)
}

// segment is one log file. first is the sequence of its first record;
// last is the sequence of its final record, or first-1 while empty.
type segment struct {
	path  string
	first uint64
	last  uint64
}

func (s segment) empty() bool { return s.last < s.first }

// Log is an open write-ahead log. All methods are safe for concurrent
// use.
type Log struct {
	dir  string
	opts Options

	mu      sync.Mutex
	segs    []segment // sealed segments then the active one
	f       *os.File  // active segment, opened for append
	size    int64     // bytes in the active segment
	nextSeq uint64
	dirty   bool // unsynced appends under SyncInterval/SyncNever
	closed  bool
	frame   []byte // Append's encode buffer
	// activeSince is when the active segment started accepting
	// appends: creation time for a fresh segment, file mtime for one
	// adopted on Open. Observability only — "how stale is the oldest
	// unsealed data" in /v1/health.
	activeSince time.Time

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// TruncatedBytes is the size of the torn tail Open discarded, for
	// recovery reporting. Zero on a clean open.
	TruncatedBytes int64
}

// FrameSize returns the on-disk size of a record with a data payload
// of n bytes.
func FrameSize(n int) int64 { return int64(frameHeaderSize + recordOverhead + n) }

// Open validates the log in dir (created if missing), truncates a torn
// tail if the final segment has one, and returns the log ready for
// appends. Mid-log corruption yields a *CorruptionError.
func Open(dir string, opts Options) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir, opts: opts, stop: make(chan struct{})}

	paths, err := segmentPaths(dir)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		if err := l.createSegment(1); err != nil {
			return nil, err
		}
	} else {
		expect := uint64(0) // 0: take the first segment's header as truth
		for i, path := range paths {
			tail := i == len(paths)-1
			seg, truncated, err := scanSegment(path, expect, tail)
			if err != nil {
				return nil, err
			}
			if expect == 0 && seg.first == 0 {
				return nil, &CorruptionError{Segment: path, Offset: 8, Reason: "first sequence number is zero"}
			}
			l.TruncatedBytes += truncated
			l.segs = append(l.segs, seg)
			expect = seg.last + 1
			if seg.empty() {
				expect = seg.first
			}
		}
		last := l.segs[len(l.segs)-1]
		l.nextSeq = last.last + 1
		if last.empty() {
			l.nextSeq = last.first
		}
		f, err := os.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: %w", err)
		}
		l.f, l.size = f, st.Size()
		l.activeSince = st.ModTime()
	}

	if opts.Sync == SyncInterval {
		l.wg.Add(1)
		go l.syncLoop()
	}
	return l, nil
}

// segmentPaths lists the segment files in dir sorted by first
// sequence (the zero-padded name makes that lexicographic).
func segmentPaths(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".seg") {
			out = append(out, filepath.Join(dir, name))
		}
	}
	sort.Strings(out)
	return out, nil
}

func segmentName(first uint64) string {
	return fmt.Sprintf("wal-%020d.seg", first)
}

// scanSegment validates one segment file. expect is the sequence the
// segment must start with (0 = accept whatever the header declares).
// For the tail segment a trailing undecodable region is truncated off
// and its size returned; anywhere else it is corruption.
func scanSegment(path string, expect uint64, tail bool) (segment, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return segment{}, 0, fmt.Errorf("wal: %w", err)
	}
	corrupt := func(off int, reason string) (segment, int64, error) {
		return segment{}, 0, &CorruptionError{Segment: path, Offset: int64(off), Reason: reason}
	}
	if len(data) < headerSize {
		// Even the header is incomplete. A crash can tear a freshly
		// created tail segment; anywhere else the log is damaged.
		if !tail {
			return corrupt(0, "segment header truncated")
		}
		// Rewrite the header from the filename rather than guess.
		first, err := seqFromName(path)
		if err != nil {
			return corrupt(0, "segment header truncated and name unparseable")
		}
		if expect != 0 && first != expect {
			return corrupt(0, fmt.Sprintf("torn segment named for seq %d, want %d", first, expect))
		}
		if err := rewriteHeader(path, first); err != nil {
			return segment{}, 0, err
		}
		return segment{path: path, first: first, last: first - 1}, int64(len(data)), nil
	}
	if string(data[:8]) != magic {
		return corrupt(0, "bad magic")
	}
	first := binary.LittleEndian.Uint64(data[8:16])
	if nameSeq, err := seqFromName(path); err != nil || nameSeq != first {
		return corrupt(8, "header sequence disagrees with file name")
	}
	if expect != 0 && first != expect {
		return corrupt(8, fmt.Sprintf("segment starts at seq %d, want %d (gap or reordered log)", first, expect))
	}

	seg := segment{path: path, first: first, last: first - 1}
	off := headerSize
	seq := first
	for off < len(data) {
		_, n, err := parseFrame(data[off:], seq)
		if err != nil {
			if !tail {
				return corrupt(off, err.Error())
			}
			if at, ok := findLaterFrame(data, off+1, seq); ok {
				return corrupt(off, fmt.Sprintf("%s, but a decodable record follows at offset %d (mid-log corruption, not a torn tail)", err, at))
			}
			// Torn tail: drop it.
			if err := os.Truncate(path, int64(off)); err != nil {
				return segment{}, 0, fmt.Errorf("wal: truncating torn tail: %w", err)
			}
			return seg, int64(len(data) - off), nil
		}
		seg.last = seq
		seq++
		off += n
	}
	return seg, 0, nil
}

func seqFromName(path string) (uint64, error) {
	name := filepath.Base(path)
	name = strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg")
	return strconv.ParseUint(name, 10, 64)
}

func rewriteHeader(path string, first uint64) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	if _, err := f.Write(header(first)); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return f.Sync()
}

func header(first uint64) []byte {
	h := make([]byte, headerSize)
	copy(h, magic)
	binary.LittleEndian.PutUint64(h[8:], first)
	return h
}

// parseFrame decodes one frame from b, checking length bounds, CRC and
// the expected sequence number. It returns the record and the total
// frame size consumed.
func parseFrame(b []byte, expectSeq uint64) (Record, int, error) {
	if len(b) < frameHeaderSize {
		return Record{}, 0, fmt.Errorf("partial frame header (%d bytes)", len(b))
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	if n < recordOverhead {
		return Record{}, 0, fmt.Errorf("frame length %d below record minimum", n)
	}
	if int(n) > len(b)-frameHeaderSize {
		return Record{}, 0, fmt.Errorf("frame declares %d payload bytes, only %d present", n, len(b)-frameHeaderSize)
	}
	payload := b[frameHeaderSize : frameHeaderSize+int(n)]
	if crc := crc32.Checksum(payload, castagnoli); crc != binary.LittleEndian.Uint32(b[4:8]) {
		return Record{}, 0, fmt.Errorf("CRC mismatch")
	}
	seq := binary.LittleEndian.Uint64(payload[0:8])
	if expectSeq != 0 && seq != expectSeq {
		return Record{}, 0, fmt.Errorf("record has seq %d, want %d", seq, expectSeq)
	}
	// Each record gets its own allocation: replay adopts a register
	// record's slabs in place, which needs bytes that are 8-byte
	// aligned and never reused.
	data := make([]byte, len(payload)-recordOverhead)
	copy(data, payload[recordOverhead:])
	return Record{Seq: seq, Type: payload[8], Data: data}, frameHeaderSize + int(n), nil
}

// findLaterFrame scans for any decodable frame starting at or after
// offset from — evidence that a framing failure before it is not a
// torn tail. The sequence check (any seq ≥ minSeq within a generous
// window) makes a false positive on random bytes vanishingly unlikely
// on top of the 2^-32 CRC coincidence.
func findLaterFrame(data []byte, from int, minSeq uint64) (int, bool) {
	for off := from; off+frameHeaderSize+recordOverhead <= len(data); off++ {
		rec, _, err := parseFrame(data[off:], 0)
		if err != nil {
			continue
		}
		if rec.Seq >= minSeq && rec.Seq < minSeq+(1<<20) {
			return off, true
		}
	}
	return 0, false
}

// encodeFrame encodes one frame into buf, growing it as needed.
func encodeFrame(buf []byte, seq uint64, typ byte, data []byte) []byte {
	n := recordOverhead + len(data)
	buf = slices.Grow(buf[:0], frameHeaderSize+n)[:frameHeaderSize+n]
	binary.LittleEndian.PutUint32(buf[0:4], uint32(n))
	payload := buf[frameHeaderSize:]
	binary.LittleEndian.PutUint64(payload[0:8], seq)
	payload[8] = typ
	copy(payload[recordOverhead:], data)
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	return buf
}

func (l *Log) createSegment(first uint64) error {
	path := filepath.Join(l.dir, segmentName(first))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(header(first)); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := SyncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f, l.size = f, headerSize
	l.segs = append(l.segs, segment{path: path, first: first, last: first - 1})
	l.nextSeq = first
	l.activeSince = time.Now()
	return nil
}

// ActiveSince returns when the active (unsealed) segment started
// accepting appends — the upper bound on how long its records have
// been waiting for a Seal/checkpoint. Surfaced as journal lag in
// /v1/health.
func (l *Log) ActiveSince() time.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.activeSince
}

// SyncDir fsyncs a directory so renames and creates within it are
// durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: sync %s: %w", dir, err)
	}
	return nil
}

// ErrClosed reports an operation on a closed log.
var ErrClosed = fmt.Errorf("wal: log closed")

// Append writes one record, fsyncing according to the sync policy, and
// returns its sequence number. A failed append leaves at most a torn
// tail, which the next Open truncates.
func (l *Log) Append(typ byte, data []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	seq := l.nextSeq
	l.frame = encodeFrame(l.frame, seq, typ, data)
	start := time.Now()
	if _, err := l.f.Write(l.frame); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.size += int64(len(l.frame))
	active := &l.segs[len(l.segs)-1]
	active.last = seq
	l.nextSeq++
	l.dirty = true
	if l.opts.Sync == SyncAlways {
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	}
	if m := l.opts.Metrics; m != nil {
		m.WALAppends.Inc()
		m.WALBytes.Add(int64(len(l.frame)))
		m.WALAppend.Observe(time.Since(start))
	}
	if l.size >= l.opts.segmentBytes() {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	return seq, nil
}

// syncLocked fsyncs the active segment. Callers hold l.mu.
func (l *Log) syncLocked() error {
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.dirty = false
	if m := l.opts.Metrics; m != nil {
		m.WALSyncs.Inc()
		m.WALSync.Observe(time.Since(start))
	}
	return nil
}

// rotateLocked seals the active segment (fsync + close, regardless of
// policy: sealed segments are always durable) and starts a new one.
func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return l.createSegment(l.nextSeq)
}

// Sync flushes buffered appends to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

// syncLoop is the SyncInterval background flusher.
func (l *Log) syncLoop() {
	defer l.wg.Done()
	t := time.NewTicker(l.opts.syncInterval())
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.closed && l.dirty {
				// An fsync failure here surfaces on the next Sync/Close.
				_ = l.syncLocked()
			}
			l.mu.Unlock()
		}
	}
}

// Seal makes every existing record durable in a sealed segment and
// returns the checkpoint boundary: the sequence number the new active
// segment starts at. All records with seq < boundary live in sealed,
// fsynced segments. An empty active segment is reused rather than
// rotated.
func (l *Log) Seal() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.segs[len(l.segs)-1].empty() {
		return l.nextSeq, nil
	}
	if err := l.rotateLocked(); err != nil {
		return 0, err
	}
	return l.nextSeq, nil
}

// PruneBelow deletes sealed segments whose every record has seq <
// keep. The active segment is never deleted. Returns the number of
// segments removed.
func (l *Log) PruneBelow(keep uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	pruned := 0
	for len(l.segs) > 1 && !l.segs[0].empty() && l.segs[0].last < keep {
		if err := os.Remove(l.segs[0].path); err != nil {
			return pruned, fmt.Errorf("wal: prune: %w", err)
		}
		l.segs = l.segs[1:]
		pruned++
	}
	if pruned > 0 {
		if m := l.opts.Metrics; m != nil {
			m.SegmentsPruned.Add(int64(pruned))
		}
		if err := SyncDir(l.dir); err != nil {
			return pruned, err
		}
	}
	return pruned, nil
}

// Replay calls fn for every record with seq ≥ from, in sequence
// order. It re-reads the segment files, so it must not run
// concurrently with appends; recovery calls it before the log is
// handed to writers.
func (l *Log) Replay(from uint64, fn func(Record) error) error {
	l.mu.Lock()
	segs := append([]segment(nil), l.segs...)
	l.mu.Unlock()
	for _, seg := range segs {
		if seg.empty() || seg.last < from {
			continue
		}
		if err := l.replaySegment(seg, from, fn); err != nil {
			return err
		}
	}
	return nil
}

func (l *Log) replaySegment(seg segment, from uint64, fn func(Record) error) error {
	data, err := os.ReadFile(seg.path)
	if err != nil {
		return fmt.Errorf("wal: replay: %w", err)
	}
	off := headerSize
	for seq := seg.first; seq <= seg.last; seq++ {
		rec, n, err := parseFrame(data[off:], seq)
		if err != nil {
			return &CorruptionError{Segment: seg.path, Offset: int64(off), Reason: err.Error()}
		}
		off += n
		if seq < from {
			continue
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
	return nil
}

// NextSeq returns the sequence number the next append will get.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// FirstSeq returns the sequence of the oldest retained record, or 0
// when the log holds no records.
func (l *Log) FirstSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, seg := range l.segs {
		if !seg.empty() {
			return seg.first
		}
	}
	return 0
}

// SegmentCount returns the number of segment files, including the
// active one.
func (l *Log) SegmentCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// Close flushes and closes the log. Further appends fail with
// ErrClosed.
func (l *Log) Close() error {
	l.stopOnce.Do(func() { close(l.stop) })
	l.wg.Wait()

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return fmt.Errorf("wal: close: %w", err)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: close: %w", err)
	}
	return nil
}
