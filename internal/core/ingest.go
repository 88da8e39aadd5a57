package core

import (
	"context"
	"sync"
	"time"

	"contractdb/internal/bisim"
	"contractdb/internal/trace"
)

// promoteTask is one queued promotion plus the trace identity of the
// registration that caused it (invalid when the registration was
// untraced).
type promoteTask struct {
	c    *Contract
	link trace.SpanContext
}

// ingestPipeline completes degraded registrations in the background:
// Register (and WAL replay of deferred records) enqueues the contract
// after it is already queryable, and a fixed pool of workers runs the
// projection precompute and promotes it to the full tier.
//
// The queue is a bounded slice guarded by one mutex/cond pair rather
// than a channel: enqueue must be able to observe a closed pipeline
// and fall back to a synchronous promote (a send on a closed channel
// panics, and registration must never lose a promotion), and stop must
// drain — workers finish everything enqueued before exiting, so a
// checkpoint or Close never snapshots a contract that would silently
// stay degraded forever.
type ingestPipeline struct {
	db      *DB
	workers int

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []promoteTask
	pending int // queued + in flight; waitIdle waits for zero
	// highWater is the largest pending ever observed — the
	// backpressure gauge /metrics exports, so a queue that filled and
	// drained between scrapes still shows.
	highWater int
	closed    bool

	wg sync.WaitGroup
	// maxQueue bounds queue length; enqueue blocks (backpressure) when
	// the queue is full, so sustained over-rate registration degrades to
	// the synchronous cost instead of growing memory without limit.
	maxQueue int
}

func newIngestPipeline(db *DB, workers int) *ingestPipeline {
	p := &ingestPipeline{db: db, workers: workers, maxQueue: 4 * workers}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// enqueue hands a degraded contract to the workers, blocking while the
// queue is full. On a closed pipeline it promotes synchronously — the
// contract still reaches the full tier, just on the caller's time.
func (p *ingestPipeline) enqueue(c *Contract) {
	p.enqueueLinked(c, trace.SpanContext{})
}

// enqueueLinked is enqueue carrying the registering request's trace
// identity for the worker's linked promote trace.
func (p *ingestPipeline) enqueueLinked(c *Contract, link trace.SpanContext) {
	p.mu.Lock()
	for len(p.queue) >= p.maxQueue && !p.closed {
		p.cond.Wait()
	}
	if p.closed {
		p.mu.Unlock()
		p.db.promoteLinked(c, link)
		return
	}
	p.queue = append(p.queue, promoteTask{c: c, link: link})
	p.pending++
	if p.pending > p.highWater {
		p.highWater = p.pending
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

func (p *ingestPipeline) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 { // closed and drained
			p.mu.Unlock()
			return
		}
		task := p.queue[0]
		p.queue = p.queue[1:]
		// Space freed: wake any enqueue blocked on backpressure before
		// starting the (slow) promote, or it would wait a full
		// precompute for no reason.
		p.cond.Broadcast()
		p.mu.Unlock()

		p.db.promoteLinked(task.c, task.link)

		p.mu.Lock()
		p.pending--
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// waitIdle blocks until every enqueued promotion has completed.
func (p *ingestPipeline) waitIdle() {
	p.mu.Lock()
	for p.pending > 0 {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// pendingCount reports queued + in-flight promotions.
func (p *ingestPipeline) pendingCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pending
}

// pendingHighWater reports the largest pending count ever observed.
func (p *ingestPipeline) pendingHighWater() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.highWater
}

// stop closes the pipeline and waits for the workers to drain the
// queue. Enqueues arriving after stop promote synchronously.
func (p *ingestPipeline) stop() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// promote runs the projection precompute for a degraded contract and
// installs the result, bumping the epoch so cached query results from
// the degraded period cannot outlive the better projections. The
// precompute runs without any lock held — it is the expensive part —
// and installation is idempotent: a contract promoted twice (replay
// overlap, Stop/Start races) keeps the first result.
//
// Lock ordering: promote takes proj.mu and db.mu strictly one after
// the other, never nested, so it cannot deadlock against
// RegistrationStats (which nests proj.mu inside db.mu's read lock).
func (db *DB) promote(c *Contract) {
	db.promoteLinked(c, trace.SpanContext{})
}

// promoteLinked is promote with the originating registration's trace
// identity: a valid link (the registration was traced) makes the
// promotion record its own linked trace under the same trace ID.
func (db *DB) promoteLinked(c *Contract, link trace.SpanContext) {
	c.proj.mu.Lock()
	done := c.proj.ps != nil
	c.proj.mu.Unlock()
	if done {
		return
	}
	var tr *trace.Trace
	var tctx context.Context
	tracer := db.tracer.Load()
	if link.Valid() && tracer != nil {
		tctx, tr = tracer.StartLinked(context.Background(), "promote", link)
	}
	t := time.Now()
	ps := bisim.Precompute(c.auto, db.effectiveBudget(c.auto))
	elapsed := time.Since(t)
	// Export once, here, off every lock: the next checkpoint renders
	// the contract from this memo instead of flattening its partitions.
	ps.PrepareExport()
	if tr != nil {
		if sp := trace.SpanFrom(tctx); sp != nil {
			sp.SetAttr("contract", c.Name)
			sp.SetAttr("precompute_us", elapsed.Microseconds())
			sp.SetAttr("subsets", ps.PrecomputedSubsets)
		}
		defer tracer.Finish(tr)
	}
	c.proj.mu.Lock()
	if c.proj.ps != nil {
		c.proj.mu.Unlock()
		return
	}
	c.proj.ps = ps
	c.proj.mu.Unlock()

	db.mu.Lock()
	db.projectionTime += elapsed
	db.promotions++
	// Only a still-registered contract invalidates caches; promoting a
	// contract that was unregistered mid-flight must not.
	if db.byName[c.Name] == c {
		db.epoch++
	}
	db.mu.Unlock()
}

// WaitIdle blocks until the ingest pipeline (if any) has promoted
// every pending registration to the full tier. Checkpoints and the
// differential tests call it to reach the same state a synchronous
// registration would have produced.
func (db *DB) WaitIdle() {
	db.mu.RLock()
	p := db.ingest
	db.mu.RUnlock()
	if p != nil {
		p.waitIdle()
	}
}

// SetIngestWorkers reconfigures the registration pipeline width at
// runtime: n > 0 installs a fresh pipeline with n workers, n <= 0
// makes registration synchronous again. The previous pipeline, if any,
// is drained before the call returns, so no promotion is lost.
func (db *DB) SetIngestWorkers(n int) {
	db.mu.Lock()
	old := db.ingest
	db.opts.IngestWorkers = n
	if n > 0 {
		db.ingest = newIngestPipeline(db, n)
	} else {
		db.ingest = nil
	}
	db.mu.Unlock()
	if old != nil {
		old.stop()
	}
}

// Close drains and stops the ingest pipeline. The database remains
// queryable and even registrable afterwards (registration falls back
// to synchronous); Close exists so owners of pipelined databases can
// bound shutdown. It never fails; the error return matches io.Closer.
func (db *DB) Close() error {
	db.mu.Lock()
	p := db.ingest
	db.ingest = nil
	db.mu.Unlock()
	if p != nil {
		p.stop()
	}
	return nil
}
