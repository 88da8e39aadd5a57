// Package metrics provides the engine's observability primitives:
// lock-free atomic counters and power-of-two latency histograms cheap
// enough to live on the query hot path, plus the aggregate Query
// registry the database updates on every evaluation.
//
// The design goal is "always on": a counter bump is one atomic add and
// a histogram observation is three, so there is no sampled mode and no
// build tag — production traffic and the experiment harness see the
// same instrumented code. Snapshots are consistent enough for
// monitoring (each field is read atomically; fields are not read under
// a common lock) and marshal directly to the JSON served by
// GET /v1/metrics.
package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero
// value is ready to use.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative n is ignored; counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// NumBuckets is the number of histogram buckets. Bucket i counts
// observations whose microsecond value has bit-length i, i.e. bucket 0
// is 0µs, bucket 1 is 1µs, bucket 2 is 2–3µs, bucket 3 is 4–7µs, …;
// the last bucket absorbs everything from ~4.2s up.
const NumBuckets = 24

// Histogram records durations in power-of-two microsecond buckets.
// The zero value is ready to use; all methods are safe for concurrent
// use.
type Histogram struct {
	count   atomic.Int64
	sumUS   atomic.Int64
	maxUS   atomic.Int64
	buckets [NumBuckets]atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	h.count.Add(1)
	h.sumUS.Add(us)
	for {
		cur := h.maxUS.Load()
		if us <= cur || h.maxUS.CompareAndSwap(cur, us) {
			break
		}
	}
	b := bits.Len64(uint64(us))
	if b >= NumBuckets {
		b = NumBuckets - 1
	}
	h.buckets[b].Add(1)
}

// HistogramSnapshot is a point-in-time view of a Histogram. P50/P99
// are upper-bound estimates from the bucket boundaries; a quantile that
// lands in the open-ended last bucket reports MaxUS.
type HistogramSnapshot struct {
	Count int64 `json:"count"`
	SumUS int64 `json:"sum_us"`
	AvgUS int64 `json:"avg_us"`
	MaxUS int64 `json:"max_us"`
	P50US int64 `json:"p50_us"`
	P99US int64 `json:"p99_us"`
	// Buckets holds the per-bucket counts (NumBuckets entries, not
	// cumulative). The Prometheus renderer consumes them; they are kept
	// out of the JSON payload, which already carries the quantile
	// estimates.
	Buckets []int64 `json:"-"`
}

// Snapshot captures the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		SumUS: h.sumUS.Load(),
		MaxUS: h.maxUS.Load(),
	}
	if s.Count > 0 {
		s.AvgUS = s.SumUS / s.Count
	}
	counts := make([]int64, NumBuckets)
	for i := range counts {
		counts[i] = h.buckets[i].Load()
	}
	s.Buckets = counts
	s.P50US = percentile(counts, s.Count, s.MaxUS, 0.50)
	s.P99US = percentile(counts, s.Count, s.MaxUS, 0.99)
	return s
}

// percentile returns the upper bound of the bucket in which the q-th
// quantile observation falls (nearest-rank definition). The last bucket
// has no upper bound, so a rank landing there reports the largest
// observation, maxUS.
func percentile(counts []int64, total, maxUS int64, q float64) int64 {
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range counts[:len(counts)-1] {
		seen += c
		if seen >= rank {
			if i == 0 {
				return 0
			}
			return (int64(1) << i) - 1 // upper bound of [2^(i-1), 2^i)
		}
	}
	return maxUS
}

// Query aggregates the per-stage observability of the online query
// path: one instance lives on each core.DB and is updated by every
// evaluation. All fields are safe for concurrent update.
type Query struct {
	// Outcome counters.
	Queries        Counter // evaluations started
	Errored        Counter // evaluations failing for any reason
	Canceled       Counter // aborted by context cancellation/deadline
	BudgetExceeded Counter // aborted by the kernel step budget

	// Per-stage latency. Translate, Prefilter and Kernel are wall
	// time per query; ProjectionPick is the summed per-candidate
	// projection lookup time (CPU time when workers overlap).
	// CachedServe is the end-to-end latency of queries answered
	// entirely from the result cache.
	Translate      Histogram
	Prefilter      Histogram
	ProjectionPick Histogram
	Kernel         Histogram
	CachedServe    Histogram

	// Query-cache counters (see the qcache package). Tier 1 memoizes
	// LTL→BA translation per canonical query; tier 2 memoizes whole
	// results per (canonical query, mode) under the registration epoch.
	QueryCacheHits          Counter
	QueryCacheMisses        Counter
	QueryCacheEvictions     Counter
	ResultCacheHits         Counter
	ResultCacheMisses       Counter
	ResultCacheEvictions    Counter
	ResultCacheInvalidation Counter // stale-epoch entries dropped at lookup

	// Work counters.
	CandidatesScanned Counter // permission checks executed
	CandidatesPruned  Counter // contracts removed by the prefilter
	ProjCacheHits     Counter // projection-checker cache hits
	ProjCacheMisses   Counter // projection checkers built on demand
	KernelSteps       Counter // product pairs/cycle nodes expanded
	Permitted         Counter // matches returned across all queries
}

// QuerySnapshot is the JSON view of Query served by /v1/metrics.
type QuerySnapshot struct {
	Queries        int64 `json:"queries"`
	Errored        int64 `json:"errored"`
	Canceled       int64 `json:"canceled"`
	BudgetExceeded int64 `json:"budget_exceeded"`

	Translate      HistogramSnapshot `json:"translate"`
	Prefilter      HistogramSnapshot `json:"prefilter"`
	ProjectionPick HistogramSnapshot `json:"projection_pick"`
	Kernel         HistogramSnapshot `json:"kernel"`
	CachedServe    HistogramSnapshot `json:"cached_serve"`

	QueryCacheHits          int64 `json:"query_cache_hits"`
	QueryCacheMisses        int64 `json:"query_cache_misses"`
	QueryCacheEvictions     int64 `json:"query_cache_evictions"`
	ResultCacheHits         int64 `json:"result_cache_hits"`
	ResultCacheMisses       int64 `json:"result_cache_misses"`
	ResultCacheEvictions    int64 `json:"result_cache_evictions"`
	ResultCacheInvalidation int64 `json:"result_cache_invalidations"`

	CandidatesScanned int64 `json:"candidates_scanned"`
	CandidatesPruned  int64 `json:"candidates_pruned"`
	ProjCacheHits     int64 `json:"proj_cache_hits"`
	ProjCacheMisses   int64 `json:"proj_cache_misses"`
	KernelSteps       int64 `json:"kernel_steps"`
	Permitted         int64 `json:"permitted"`
}

// Durability aggregates the storage engine's observability: WAL
// append and fsync latency, bytes written, checkpoint and prune
// activity, and what recovery had to do at open. One instance lives
// on each store.Store (the wal.Log shares it) and is surfaced through
// GET /v1/metrics when the server fronts a durable store.
type Durability struct {
	// WAL write path.
	WALAppends Counter // records appended
	WALBytes   Counter // framed bytes written (payload + framing)
	WALSyncs   Counter // fsync calls on the active segment
	WALAppend  Histogram
	WALSync    Histogram

	// Checkpointing.
	Checkpoints      Counter // snapshots written and renamed into place
	CheckpointErrors Counter // failed checkpoint attempts (auto or explicit)
	CheckpointWrite  Histogram
	SegmentsPruned   Counter // WAL segment files deleted after checkpoints
	SnapshotsPruned  Counter // obsolete snapshot files deleted

	// Recovery (observed once per Open).
	RecoveryReplayed  Counter // WAL records replayed past the snapshot
	RecoveryTruncated Counter // torn-tail bytes discarded at open
	Recovery          Histogram
}

// DurabilitySnapshot is the JSON view of Durability.
type DurabilitySnapshot struct {
	WALAppends int64             `json:"wal_appends"`
	WALBytes   int64             `json:"wal_bytes"`
	WALSyncs   int64             `json:"wal_syncs"`
	WALAppend  HistogramSnapshot `json:"wal_append"`
	WALSync    HistogramSnapshot `json:"wal_sync"`

	Checkpoints      int64             `json:"checkpoints"`
	CheckpointErrors int64             `json:"checkpoint_errors"`
	CheckpointWrite  HistogramSnapshot `json:"checkpoint_write"`
	SegmentsPruned   int64             `json:"segments_pruned"`
	SnapshotsPruned  int64             `json:"snapshots_pruned"`

	RecoveryReplayed  int64             `json:"recovery_replayed"`
	RecoveryTruncated int64             `json:"recovery_truncated_bytes"`
	Recovery          HistogramSnapshot `json:"recovery"`
}

// Snapshot captures every durability counter and histogram.
func (d *Durability) Snapshot() DurabilitySnapshot {
	return DurabilitySnapshot{
		WALAppends: d.WALAppends.Value(),
		WALBytes:   d.WALBytes.Value(),
		WALSyncs:   d.WALSyncs.Value(),
		WALAppend:  d.WALAppend.Snapshot(),
		WALSync:    d.WALSync.Snapshot(),

		Checkpoints:      d.Checkpoints.Value(),
		CheckpointErrors: d.CheckpointErrors.Value(),
		CheckpointWrite:  d.CheckpointWrite.Snapshot(),
		SegmentsPruned:   d.SegmentsPruned.Value(),
		SnapshotsPruned:  d.SnapshotsPruned.Value(),

		RecoveryReplayed:  d.RecoveryReplayed.Value(),
		RecoveryTruncated: d.RecoveryTruncated.Value(),
		Recovery:          d.Recovery.Snapshot(),
	}
}

// Snapshot captures every counter and histogram.
func (q *Query) Snapshot() QuerySnapshot {
	return QuerySnapshot{
		Queries:        q.Queries.Value(),
		Errored:        q.Errored.Value(),
		Canceled:       q.Canceled.Value(),
		BudgetExceeded: q.BudgetExceeded.Value(),

		Translate:      q.Translate.Snapshot(),
		Prefilter:      q.Prefilter.Snapshot(),
		ProjectionPick: q.ProjectionPick.Snapshot(),
		Kernel:         q.Kernel.Snapshot(),
		CachedServe:    q.CachedServe.Snapshot(),

		QueryCacheHits:          q.QueryCacheHits.Value(),
		QueryCacheMisses:        q.QueryCacheMisses.Value(),
		QueryCacheEvictions:     q.QueryCacheEvictions.Value(),
		ResultCacheHits:         q.ResultCacheHits.Value(),
		ResultCacheMisses:       q.ResultCacheMisses.Value(),
		ResultCacheEvictions:    q.ResultCacheEvictions.Value(),
		ResultCacheInvalidation: q.ResultCacheInvalidation.Value(),

		CandidatesScanned: q.CandidatesScanned.Value(),
		CandidatesPruned:  q.CandidatesPruned.Value(),
		ProjCacheHits:     q.ProjCacheHits.Value(),
		ProjCacheMisses:   q.ProjCacheMisses.Value(),
		KernelSteps:       q.KernelSteps.Value(),
		Permitted:         q.Permitted.Value(),
	}
}
