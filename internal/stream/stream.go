// Package stream implements live compliance monitoring as a
// subscription subsystem: clients open named streams, attach one or
// more registered contracts, push event snapshots, and receive
// verdict transitions (compliant → doomed → violated, in the
// finite-trace semantics of internal/monitor).
//
// The hot path never touches the boolean-frontier monitor.Monitor.
// Each attached contract's automaton is shared by every stream on the
// shard that monitors the same contract; a stream's reachable-state
// frontier is a few uint64 bitset words living in the group's arena,
// double-buffered per attachment and stepped by walking the
// automaton's EdgeOff/EdgeTo/EdgeLabel arrays. A
// precomputed live bitmask (states from which an accepting cycle is
// reachable) makes the doomed check a word-wise AND. Steady-state
// ingest allocates nothing per event; only verdict transitions — at
// most two per attachment, since doomed is a trap — allocate.
//
// Streams are partitioned across N ingest shards by FNV-1a over the
// stream name. Each shard owns a mutex domain, an arena per contract,
// and one worker goroutine draining a bounded queue, so pushes to
// different shards never contend. With a journal directory configured,
// every create, delete and event batch is WAL-appended before it is
// acknowledged, and checkpoints persist the per-stream frontiers and
// verdict history so a restart resumes from the last checkpointed
// frontier instead of replaying every event from zero (see journal.go
// and internal/journal).
package stream

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"contractdb/internal/buchi"
	"contractdb/internal/core"
	"contractdb/internal/journal"
	"contractdb/internal/metrics"
	"contractdb/internal/vocab"
	"contractdb/internal/wal"
)

const (
	// DefaultQueueDepth bounds each shard's pending event batches;
	// Append blocks (backpressure) when the shard's worker falls behind.
	DefaultQueueDepth = 1024
	// DefaultCheckpointRecords is the journaled-record count that
	// triggers a background checkpoint.
	DefaultCheckpointRecords = 8192
	// MaxNameLen bounds stream names.
	MaxNameLen = 200
)

// ErrNotFound reports an unknown stream name.
var ErrNotFound = errors.New("stream: not found")

// ErrClosed reports an operation on a closed broker.
var ErrClosed = errors.New("stream: broker closed")

// ErrExists reports a stream name already in use.
var ErrExists = errors.New("stream: already exists")

// Status classifies the prefix a stream has consumed against one
// attached contract, in the finite-trace semantics of
// internal/monitor, whose Status it mirrors code for code and name for
// name. Checkpoints store the code.
type Status uint8

const (
	// Compliant: the prefix is consistent with the contract and an
	// accepting continuation exists.
	Compliant Status = iota
	// Doomed: the prefix has not violated the contract, but no
	// continuation satisfies it; it never becomes Compliant again.
	Doomed
	// Violated: the prefix itself is not allowed by the contract.
	Violated

	numStatuses
)

var statusNames = [numStatuses]string{"compliant", "doomed", "violated"}

func (s Status) String() string {
	if s < numStatuses {
		return statusNames[s]
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// parseStatus is String's inverse.
func parseStatus(name string) (Status, bool) {
	for s, n := range statusNames {
		if n == name {
			return Status(s), true
		}
	}
	return 0, false
}

// ContractSource resolves contract names to their automata; *core.DB
// satisfies it.
type ContractSource interface {
	ByName(name string) (*core.Contract, bool)
	Vocabulary() *vocab.Vocabulary
}

// Config configures a Broker. The zero value is a usable in-memory
// single-shard broker.
type Config struct {
	// Shards is the number of ingest workers; 0 or 1 selects one.
	Shards int
	// QueueDepth bounds each shard's pending batches; 0 selects
	// DefaultQueueDepth.
	QueueDepth int
	// Dir, when non-empty, makes the broker durable: a WAL in Dir/wal
	// plus frontier snapshots in Dir. Empty keeps everything in memory.
	Dir string
	// Sync, SyncInterval and SegmentBytes configure the journal WAL.
	Sync         wal.SyncPolicy
	SyncInterval time.Duration
	SegmentBytes int64
	// CheckpointRecords auto-checkpoints after this many journaled
	// records; 0 selects DefaultCheckpointRecords, negative disables.
	CheckpointRecords int
	// KeepSnapshots retains this many old snapshot files; 0 selects 2.
	KeepSnapshots int
	// Metrics receives stream counters; nil allocates a private set.
	Metrics *metrics.Stream
	// Durability receives the journal WAL's counters; nil allocates a
	// private set. Kept separate from the contract store's instance.
	Durability *metrics.Durability
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// Verdict is one status transition of one (stream, contract)
// attachment. Seq numbers verdicts per stream from 1; EventIndex is
// the number of snapshots consumed when the transition happened (0 for
// the initial verdict emitted at attach time, whose From is empty).
type Verdict struct {
	Seq        int    `json:"seq"`
	Contract   string `json:"contract"`
	EventIndex uint64 `json:"event_index"`
	From       string `json:"from,omitempty"`
	To         string `json:"to"`
}

// Info describes one stream: its contracts with their current
// statuses (parallel slices), consumed events, and verdict count.
type Info struct {
	Name      string   `json:"name"`
	Contracts []string `json:"contracts"`
	Statuses  []string `json:"statuses"`
	Events    uint64   `json:"events"`
	Verdicts  int      `json:"verdicts"`
	Shard     int      `json:"shard"`
}

// RecoveryInfo reports what opening a journaled broker did.
type RecoveryInfo struct {
	Clean            bool
	SnapshotSeq      uint64
	SnapshotPath     string
	SkippedSnapshots []string
	ReplayedRecords  int
	Streams          int
	Duration         time.Duration
}

// group is one contract's compiled automaton plus the shard-local
// arena holding every attached stream's frontier bitsets. Slot i's
// double buffer occupies arena[i*2*words : (i+1)*2*words].
type group struct {
	contract string
	auto     *buchi.BA
	events   vocab.Set
	// live[w] bit b set ⇔ an accepting cycle is reachable from state
	// w*64+b; the doomed check is frontier&live == 0.
	live  []uint64
	words int
	arena []uint64
	free  []int32
	next  int32
	refs  int
}

func newGroup(contract string, ba *buchi.BA) *group {
	words := wordsFor(ba.NumStates())
	g := &group{contract: contract, auto: ba, events: ba.Events, words: words, live: make([]uint64, words)}
	for s, ok := range ba.CanReachAcceptingCycle() {
		if ok {
			g.live[s>>6] |= 1 << (uint(s) & 63)
		}
	}
	return g
}

// wordsFor is the frontier width, in bitset words, of an automaton
// with n states: one bit per state, and at least one word.
func wordsFor(n int) int { return max(1, (n+63)>>6) }

// alloc hands out a frontier slot with the initial state set in its
// phase-0 half. Growth doubles the arena; it only happens at attach
// time, never on the event path.
func (g *group) alloc() int32 {
	var slot int32
	if n := len(g.free); n > 0 {
		slot, g.free = g.free[n-1], g.free[:n-1]
	} else {
		slot = g.next
		g.next++
	}
	need := (int(slot) + 1) * 2 * g.words
	if need > len(g.arena) {
		na := make([]uint64, max(need, 2*len(g.arena)))
		copy(na, g.arena)
		g.arena = na
	}
	base := int(slot) * 2 * g.words
	clear(g.arena[base : base+2*g.words])
	init := int32(g.auto.Init)
	g.arena[base+int(init>>6)] |= 1 << (uint32(init) & 63)
	return slot
}

func (g *group) initialStatus() Status {
	init := int32(g.auto.Init)
	if g.live[init>>6]&(1<<(uint32(init)&63)) != 0 {
		return Compliant
	}
	return Doomed
}

// attachment is one (stream, contract) monitor: a slot in the group's
// arena plus which half of the double buffer is current.
type attachment struct {
	g      *group
	slot   int32
	phase  uint8
	status Status
}

// step advances the frontier by one snapshot and returns the new
// status. This is the compiled hot path: bitset words in, bitset words
// out, no allocation.
func (a *attachment) step(snapshot vocab.Set) Status {
	if a.status == Violated {
		return Violated
	}
	g := a.g
	projected := snapshot.Intersect(g.events)
	words := g.words
	base := int(a.slot) * 2 * words
	cur := g.arena[base+int(a.phase)*words:]
	a.phase ^= 1
	nxt := g.arena[base+int(a.phase)*words:]
	cur, nxt = cur[:words:words], nxt[:words:words]
	clear(nxt)
	edgeOff, edgeTo, edgeLabel, labels := g.auto.EdgeOff, g.auto.EdgeTo, g.auto.EdgeLabel, g.auto.Labels
	any := false
	for wi, w := range cur {
		for w != 0 {
			s := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			for e := edgeOff[s]; e < edgeOff[s+1]; e++ {
				if labels[edgeLabel[e]].Matches(projected) {
					to := edgeTo[e]
					nxt[to>>6] |= 1 << (uint32(to) & 63)
					any = true
				}
			}
		}
	}
	switch {
	case !any:
		a.status = Violated
	case a.status == Compliant:
		// Doomed is a trap (a successor of a non-live state is never
		// live), so only a compliant attachment needs the live check.
		doomed := true
		for i, w := range nxt {
			if w&g.live[i] != 0 {
				doomed = false
				break
			}
		}
		if doomed {
			a.status = Doomed
		}
	}
	return a.status
}

// appendFrontier appends the attachment's current frontier words to
// dst (for checkpoints).
func (a *attachment) appendFrontier(dst []uint64) []uint64 {
	base := int(a.slot)*2*a.g.words + int(a.phase)*a.g.words
	return append(dst, a.g.arena[base:base+a.g.words]...)
}

// setFrontier installs a checkpointed frontier into the slot.
func (a *attachment) setFrontier(words []uint64) {
	base := int(a.slot) * 2 * a.g.words
	clear(a.g.arena[base : base+2*a.g.words])
	copy(a.g.arena[base:base+a.g.words], words)
	a.phase = 0
}

// stream is one monitored event sequence.
type stream struct {
	name      string
	contracts []string
	atts      []attachment
	// events counts applied snapshots; accepted counts acknowledged
	// ones (journaled and queued), read lock-free by Append.
	events   uint64
	accepted atomic.Uint64
	verdicts []Verdict
	// notify is closed and replaced whenever a verdict is appended;
	// long-pollers wait on the channel they saw under the lock.
	notify chan struct{}
}

func (st *stream) appendVerdict(v Verdict) {
	v.Seq = len(st.verdicts) + 1
	st.verdicts = append(st.verdicts, v)
	close(st.notify)
	st.notify = make(chan struct{})
}

const (
	taskEvents = iota
	taskCreate
	taskDelete
	taskBarrier
)

type task struct {
	kind      int
	name      string
	first     uint64
	snaps     []vocab.Set
	contracts []string
	done      chan error
}

// shard owns one partition of the stream space: a mutex domain, the
// per-contract groups (and their arenas), and one worker draining the
// ingest queue. ingestMu serializes journal appends with queue order;
// mu guards the monitored state.
type shard struct {
	b        *Broker
	id       int
	ingestMu sync.Mutex
	mu       sync.Mutex
	streams  map[string]*stream
	groups   map[string]*group
	queue    chan task
	pending  atomic.Int64
	// highWater is the deepest the queue has ever been (pending
	// tasks), the backpressure gauge — a queue that filled and drained
	// between scrapes still shows.
	highWater atomic.Int64
	encBuf    []byte // journal encode scratch, under ingestMu
}

// noteDepth records the queue depth after an enqueue for the
// high-watermark gauge.
func (sh *shard) noteDepth(depth int64) {
	for {
		hw := sh.highWater.Load()
		if depth <= hw || sh.highWater.CompareAndSwap(hw, depth) {
			return
		}
	}
}

// Broker is the streaming-monitor subsystem. Create with New.
type Broker struct {
	src     ContractSource
	shards  []*shard
	met     *metrics.Stream
	logf    func(string, ...any)
	journal *journal.Journal
	ckptMu  sync.Mutex // serializes checkpoints (explicit, auto, final)

	checkpointRecords int64
	recordsSince      atomic.Int64
	checkpointing     atomic.Bool
	closed            atomic.Bool
	wg                sync.WaitGroup

	// Recovery reports what Open-time recovery did (zero for in-memory
	// brokers).
	Recovery RecoveryInfo
}

// New opens a broker over the contract source. With cfg.Dir set it
// recovers any journaled streams before accepting traffic.
func New(src ContractSource, cfg Config) (*Broker, error) {
	n := max(1, cfg.Shards)
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	b := &Broker{
		src:  src,
		met:  cfg.Metrics,
		logf: cfg.Logf,
	}
	if b.met == nil {
		b.met = &metrics.Stream{}
	}
	if b.logf == nil {
		b.logf = func(string, ...any) {}
	}
	switch {
	case cfg.CheckpointRecords > 0:
		b.checkpointRecords = int64(cfg.CheckpointRecords)
	case cfg.CheckpointRecords == 0:
		b.checkpointRecords = DefaultCheckpointRecords
	default:
		b.checkpointRecords = 0 // disabled
	}
	for i := 0; i < n; i++ {
		b.shards = append(b.shards, &shard{
			b:       b,
			id:      i,
			streams: make(map[string]*stream),
			groups:  make(map[string]*group),
			queue:   make(chan task, depth),
		})
	}
	if cfg.Dir != "" {
		if err := b.openJournal(cfg); err != nil {
			return nil, err
		}
	}
	for _, sh := range b.shards {
		b.wg.Add(1)
		go sh.run()
	}
	return b, nil
}

// NumShards returns the ingest-shard count.
func (b *Broker) NumShards() int { return len(b.shards) }

func (b *Broker) shardFor(name string) *shard {
	h := fnv.New64a()
	h.Write([]byte(name))
	return b.shards[h.Sum64()%uint64(len(b.shards))]
}

func validName(name string) error {
	switch {
	case name == "":
		return errors.New("stream: name is required")
	case len(name) > MaxNameLen:
		return fmt.Errorf("stream: name longer than %d bytes", MaxNameLen)
	case strings.ContainsAny(name, "/\n\r"):
		return fmt.Errorf("stream: invalid name %q", name)
	}
	return nil
}

// Create opens a named stream monitoring the given contracts. It
// returns once the create is journaled and applied; the stream's
// initial verdicts (one per contract) are then visible.
func (b *Broker) Create(ctx context.Context, name string, contracts []string) (Info, error) {
	if b.closed.Load() {
		return Info{}, ErrClosed
	}
	if err := validName(name); err != nil {
		return Info{}, err
	}
	if len(contracts) == 0 {
		return Info{}, errors.New("stream: at least one contract is required")
	}
	for _, c := range contracts {
		if _, ok := b.src.ByName(c); !ok {
			return Info{}, fmt.Errorf("stream: no contract named %q", c)
		}
	}
	sh := b.shardFor(name)
	done := make(chan error, 1)
	sh.ingestMu.Lock()
	if b.closed.Load() {
		sh.ingestMu.Unlock()
		return Info{}, ErrClosed
	}
	if b.journal != nil {
		if err := sh.appendCreate(name, contracts); err != nil {
			sh.ingestMu.Unlock()
			return Info{}, err
		}
	}
	sh.noteDepth(sh.pending.Add(1))
	sh.queue <- task{kind: taskCreate, name: name, contracts: contracts, done: done}
	b.bumpRecords()
	sh.ingestMu.Unlock()
	select {
	case err := <-done:
		if err != nil {
			return Info{}, err
		}
	case <-ctx.Done():
		return Info{}, ctx.Err()
	}
	return b.Info(name)
}

// Delete closes a stream and frees its monitor slots.
func (b *Broker) Delete(ctx context.Context, name string) error {
	if b.closed.Load() {
		return ErrClosed
	}
	sh := b.shardFor(name)
	done := make(chan error, 1)
	sh.ingestMu.Lock()
	if b.closed.Load() {
		sh.ingestMu.Unlock()
		return ErrClosed
	}
	if sh.lookup(name) == nil {
		sh.ingestMu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if b.journal != nil {
		if err := sh.appendDelete(name); err != nil {
			sh.ingestMu.Unlock()
			return err
		}
	}
	sh.noteDepth(sh.pending.Add(1))
	sh.queue <- task{kind: taskDelete, name: name, done: done}
	b.bumpRecords()
	sh.ingestMu.Unlock()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Append acknowledges a batch of event snapshots for the stream:
// journaled (when durable) and queued for the shard's worker. It
// returns the index of the batch's first snapshot in the stream's
// event sequence. A full shard queue blocks (backpressure).
func (b *Broker) Append(ctx context.Context, name string, snaps []vocab.Set) (uint64, error) {
	if b.closed.Load() {
		return 0, ErrClosed
	}
	if len(snaps) == 0 {
		return 0, errors.New("stream: empty event batch")
	}
	sh := b.shardFor(name)
	sh.ingestMu.Lock()
	if b.closed.Load() {
		sh.ingestMu.Unlock()
		return 0, ErrClosed
	}
	st := sh.lookup(name)
	if st == nil {
		sh.ingestMu.Unlock()
		return 0, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	first := st.accepted.Load()
	if b.journal != nil {
		if err := sh.appendEvents(name, first, snaps); err != nil {
			sh.ingestMu.Unlock()
			return 0, err
		}
	}
	st.accepted.Store(first + uint64(len(snaps)))
	sh.noteDepth(sh.pending.Add(1))
	sh.queue <- task{kind: taskEvents, name: name, first: first, snaps: snaps}
	b.bumpRecords()
	sh.ingestMu.Unlock()
	return first, nil
}

// AppendEvents resolves event-name batches against the source
// vocabulary and appends them. Unknown events are an error.
func (b *Broker) AppendEvents(ctx context.Context, name string, batches [][]string) (uint64, error) {
	voc := b.src.Vocabulary()
	snaps := make([]vocab.Set, len(batches))
	for i, evs := range batches {
		s, err := voc.SetOf(evs...)
		if err != nil {
			return 0, fmt.Errorf("stream: events[%d]: %w", i, err)
		}
		snaps[i] = s
	}
	return b.Append(ctx, name, snaps)
}

// Vocabulary returns the vocabulary AppendEvents resolves names
// against.
func (b *Broker) Vocabulary() *vocab.Vocabulary { return b.src.Vocabulary() }

// Verdicts returns the stream's verdicts with Seq > after. When none
// exist yet and wait is positive, it long-polls until a verdict
// arrives, the wait elapses (empty slice), or ctx is done.
func (b *Broker) Verdicts(ctx context.Context, name string, after int, wait time.Duration) ([]Verdict, error) {
	if after < 0 {
		after = 0
	}
	sh := b.shardFor(name)
	deadline := time.Now().Add(wait)
	for {
		sh.mu.Lock()
		st := sh.streams[name]
		if st == nil {
			sh.mu.Unlock()
			return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
		}
		if len(st.verdicts) > after {
			out := append([]Verdict(nil), st.verdicts[after:]...)
			sh.mu.Unlock()
			return out, nil
		}
		ch := st.notify
		sh.mu.Unlock()
		remain := time.Until(deadline)
		if wait <= 0 || remain <= 0 {
			return []Verdict{}, nil
		}
		timer := time.NewTimer(remain)
		select {
		case <-ch:
			timer.Stop()
		case <-timer.C:
			return []Verdict{}, nil
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		}
	}
}

// Info describes one stream.
func (b *Broker) Info(name string) (Info, error) {
	sh := b.shardFor(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := sh.streams[name]
	if st == nil {
		return Info{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return sh.infoLocked(st), nil
}

func (sh *shard) infoLocked(st *stream) Info {
	info := Info{
		Name:      st.name,
		Contracts: append([]string(nil), st.contracts...),
		Statuses:  make([]string, len(st.atts)),
		Events:    st.events,
		Verdicts:  len(st.verdicts),
		Shard:     sh.id,
	}
	for i := range st.atts {
		info.Statuses[i] = st.atts[i].status.String()
	}
	return info
}

// List returns every stream's Info, sorted by name.
func (b *Broker) List() []Info {
	var out []Info
	for _, sh := range b.shards {
		sh.mu.Lock()
		for _, st := range sh.streams {
			out = append(out, sh.infoLocked(st))
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Gauges samples the broker's point-in-time shape for scrapers.
func (b *Broker) Gauges() metrics.StreamGauges {
	g := metrics.StreamGauges{
		QueueDepths:    make([]int, len(b.shards)),
		QueueHighWater: make([]int64, len(b.shards)),
		VerdictLag:     make([]uint64, len(b.shards)),
	}
	for i, sh := range b.shards {
		g.QueueDepths[i] = len(sh.queue)
		g.QueueHighWater[i] = sh.highWater.Load()
		sh.mu.Lock()
		g.Active += len(sh.streams)
		for _, st := range sh.streams {
			g.Attachments += len(st.atts)
			// accepted can be mid-store while we read; lag is a gauge,
			// not an invariant, so clamp instead of locking ingest.
			if acc := st.accepted.Load(); acc > st.events {
				g.VerdictLag[i] += acc - st.events
			}
		}
		sh.mu.Unlock()
	}
	return g
}

// JournalStats is the stream journal's checkpoint-lag view: how much
// acknowledged data the next crash would have to replay.
type JournalStats struct {
	// RecordsSinceCheckpoint counts the journal records past the last
	// completed checkpoint's boundary: the records a crash would
	// replay.
	RecordsSinceCheckpoint int64 `json:"records_since_checkpoint"`
	// Segments is the journal's on-disk segment-file count.
	Segments int `json:"segments"`
	// OldestUnsealedAgeMS is how long the active (unsealed) segment
	// has been accepting appends, in milliseconds.
	OldestUnsealedAgeMS int64 `json:"oldest_unsealed_age_ms"`
}

// JournalStats reports checkpoint lag; zero value (and false) for
// in-memory brokers.
func (b *Broker) JournalStats() (JournalStats, bool) {
	if b.journal == nil {
		return JournalStats{}, false
	}
	return JournalStats{
		RecordsSinceCheckpoint: b.recordsSince.Load(),
		Segments:               b.journal.SegmentCount(),
		OldestUnsealedAgeMS:    time.Since(b.journal.ActiveSince()).Milliseconds(),
	}, true
}

// Metrics returns the broker's counter registry.
func (b *Broker) Metrics() *metrics.Stream { return b.met }

// WaitIdle blocks until every shard has drained its queue of the work
// accepted before the call.
func (b *Broker) WaitIdle() {
	for _, sh := range b.shards {
		done := make(chan error, 1)
		sh.ingestMu.Lock()
		sh.pending.Add(1)
		sh.queue <- task{kind: taskBarrier, done: done}
		sh.ingestMu.Unlock()
		<-done
	}
}

// Close drains every shard, takes a final checkpoint (when durable)
// and stops the workers. Idempotent.
func (b *Broker) Close() error {
	if b.closed.Swap(true) {
		return nil
	}
	for _, sh := range b.shards {
		sh.ingestMu.Lock()
	}
	for _, sh := range b.shards {
		for sh.pending.Load() != 0 {
			time.Sleep(50 * time.Microsecond)
		}
		close(sh.queue)
	}
	for _, sh := range b.shards {
		sh.ingestMu.Unlock()
	}
	b.wg.Wait()
	if b.journal == nil {
		return nil
	}
	var firstErr error
	if _, err := b.Checkpoint(); err != nil {
		firstErr = err
	}
	if err := b.journal.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// bumpRecords counts one journaled record; callers hold the shard's
// ingestMu, so a checkpoint, which holds every ingestMu while it
// seals, sees every record below its boundary counted.
func (b *Broker) bumpRecords() {
	if b.journal == nil {
		return
	}
	// Counted even with auto-checkpoints disabled: JournalStats
	// reports it as checkpoint lag.
	n := b.recordsSince.Add(1)
	if b.checkpointRecords <= 0 || n < b.checkpointRecords {
		return
	}
	if !b.checkpointing.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer b.checkpointing.Store(false)
		if _, err := b.Checkpoint(); err != nil {
			b.logf("stream: auto checkpoint: %v", err)
		}
	}()
}

func (sh *shard) lookup(name string) *stream {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.streams[name]
}

func (sh *shard) run() {
	defer sh.b.wg.Done()
	for t := range sh.queue {
		var err error
		switch t.kind {
		case taskEvents:
			start := time.Now()
			err = sh.applyEvents(t.name, t.first, t.snaps)
			sh.b.met.Apply.Observe(time.Since(start))
		case taskCreate:
			err = sh.applyCreate(t.name, t.contracts)
		case taskDelete:
			err = sh.applyDelete(t.name)
		case taskBarrier:
		}
		sh.pending.Add(-1)
		if t.done != nil {
			t.done <- err
		} else if err != nil {
			sh.b.met.Dropped.Inc()
			sh.b.logf("stream: shard %d: %v", sh.id, err)
		}
	}
}

// groupFor returns the shard's group for the contract, creating (and
// compiling) it on first use.
func (sh *shard) groupFor(contract string) (*group, error) {
	if g := sh.groups[contract]; g != nil {
		return g, nil
	}
	c, ok := sh.b.src.ByName(contract)
	if !ok {
		return nil, fmt.Errorf("stream: no contract named %q", contract)
	}
	g := newGroup(contract, c.Automaton())
	sh.groups[contract] = g
	return g, nil
}

func (sh *shard) applyCreate(name string, contracts []string) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.streams[name]; dup {
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	groups := make([]*group, len(contracts))
	for i, c := range contracts {
		g, err := sh.groupFor(c)
		if err != nil {
			return err
		}
		groups[i] = g
	}
	st := &stream{
		name:      name,
		contracts: append([]string(nil), contracts...),
		atts:      make([]attachment, len(contracts)),
		notify:    make(chan struct{}),
	}
	for i, g := range groups {
		g.refs++
		st.atts[i] = attachment{g: g, slot: g.alloc(), status: g.initialStatus()}
		st.appendVerdict(Verdict{Contract: g.contract, To: st.atts[i].status.String()})
		sh.b.met.Verdicts.Inc()
	}
	sh.streams[name] = st
	sh.b.met.Creates.Inc()
	return nil
}

func (sh *shard) applyDelete(name string) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := sh.streams[name]
	if st == nil {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	for i := range st.atts {
		a := &st.atts[i]
		a.g.free = append(a.g.free, a.slot)
		a.g.refs--
		if a.g.refs == 0 {
			delete(sh.groups, a.g.contract)
		}
	}
	delete(sh.streams, name)
	close(st.notify) // wake long-pollers; they observe ErrNotFound
	sh.b.met.Deletes.Inc()
	return nil
}

// applyEvents steps every attachment of the stream through the batch.
// first is the batch's position in the stream's event sequence;
// snapshots the stream has already consumed (journal replay overlap)
// are skipped, which makes replay idempotent.
func (sh *shard) applyEvents(name string, first uint64, snaps []vocab.Set) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := sh.streams[name]
	if st == nil {
		return fmt.Errorf("stream: events for unknown stream %q dropped", name)
	}
	if first+uint64(len(snaps)) <= st.events {
		return nil
	}
	if first < st.events {
		snaps = snaps[st.events-first:]
	}
	met := sh.b.met
	for _, snap := range snaps {
		st.events++
		for i := range st.atts {
			a := &st.atts[i]
			old := a.status
			if a.step(snap) != old {
				st.appendVerdict(Verdict{
					Contract:   a.g.contract,
					EventIndex: st.events,
					From:       old.String(),
					To:         a.status.String(),
				})
				met.Verdicts.Inc()
				met.Transitions.Inc()
			}
		}
	}
	met.Events.Add(int64(len(snaps)))
	met.Batches.Inc()
	if acc := st.accepted.Load(); st.events > acc {
		// Replay applies events that were never re-accepted this run.
		st.accepted.Store(st.events)
	}
	return nil
}
