package metrics

import (
	"fmt"
	"io"
	"math/bits"
	"runtime"
	"strconv"
)

// PromWriter renders metrics in the Prometheus text exposition format
// (version 0.0.4): a # HELP and # TYPE header per family followed by
// its samples. The server's GET /metrics endpoint streams one of these
// over every counter and histogram of the Query and Durability
// registries plus process runtime gauges, so any Prometheus-compatible
// scraper can consume the engine's telemetry without the JSON
// /v1/metrics shape.
type PromWriter struct {
	w   io.Writer
	err error
	// openMetrics switches the renderer to the OpenMetrics 1.0 text
	// format, which is a superset of 0.0.4 plus exemplars: histogram
	// _bucket samples carry "# {trace_id=...} value ts" when the
	// snapshot has one, and the exposition ends with "# EOF". Strict
	// 0.0.4 parsers reject exemplar syntax, so this is only enabled
	// when the scraper negotiated it via Accept.
	openMetrics bool
}

// NewPromWriter returns a renderer writing to w.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// SetOpenMetrics switches the writer to OpenMetrics output (exemplars
// on histogram buckets; the caller must finish with EOF).
func (p *PromWriter) SetOpenMetrics(on bool) { p.openMetrics = on }

// EOF terminates an OpenMetrics exposition. No-op in 0.0.4 mode.
func (p *PromWriter) EOF() {
	if p.openMetrics {
		p.printf("# EOF\n")
	}
}

// Err returns the first write error, if any.
func (p *PromWriter) Err() error { return p.err }

func (p *PromWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

func (p *PromWriter) header(name, help, typ string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Counter emits one monotonically increasing sample. Prometheus
// convention wants counter names suffixed _total; callers pass the
// full name.
func (p *PromWriter) Counter(name, help string, v int64) {
	p.header(name, help, "counter")
	p.printf("%s %d\n", name, v)
}

// Gauge emits one point-in-time sample.
func (p *PromWriter) Gauge(name, help string, v float64) {
	p.header(name, help, "gauge")
	p.printf("%s %s\n", name, strconv.FormatFloat(v, 'g', -1, 64))
}

// Histogram emits a snapshot as a Prometheus histogram in seconds:
// cumulative _bucket samples at the power-of-two microsecond
// boundaries, then _sum and _count. The last internal bucket (which
// absorbs everything from ~4.2s up) maps to le="+Inf".
func (p *PromWriter) Histogram(name, help string, h HistogramSnapshot) {
	p.header(name, help, "histogram")
	// In OpenMetrics mode the exemplar rides on the first bucket whose
	// range contains its value (the spec's placement rule).
	exBucket := -1
	if p.openMetrics && h.Exemplar != nil {
		exBucket = bucketOf(h.Exemplar.ValueUS)
	}
	var cum int64
	for i, c := range h.Buckets {
		cum += c
		if i == len(h.Buckets)-1 {
			break // the overflow bucket is folded into +Inf below
		}
		// Bucket i counts microsecond values of bit-length i, so its
		// inclusive upper bound is 2^i - 1 µs (bucket 0 is exactly 0).
		le := float64((int64(1)<<i)-1) / 1e6
		p.printf("%s_bucket{le=%q} %d%s\n", name, strconv.FormatFloat(le, 'g', -1, 64), cum, p.exemplar(exBucket == i, h.Exemplar))
	}
	p.printf("%s_bucket{le=\"+Inf\"} %d%s\n", name, h.Count, p.exemplar(exBucket == len(h.Buckets)-1, h.Exemplar))
	p.printf("%s_sum %s\n", name, strconv.FormatFloat(float64(h.SumUS)/1e6, 'g', -1, 64))
	p.printf("%s_count %d\n", name, h.Count)
}

// bucketOf mirrors Observe's bucket selection.
func bucketOf(us int64) int {
	if us < 0 {
		us = 0
	}
	b := bits.Len64(uint64(us))
	if b >= NumBuckets {
		b = NumBuckets - 1
	}
	return b
}

// exemplar renders the OpenMetrics exemplar suffix for a bucket
// sample, or "".
func (p *PromWriter) exemplar(attach bool, ex *Exemplar) string {
	if !attach || ex == nil {
		return ""
	}
	return fmt.Sprintf(" # {trace_id=%q} %s %s",
		ex.TraceID,
		strconv.FormatFloat(float64(ex.ValueUS)/1e6, 'g', -1, 64),
		strconv.FormatFloat(float64(ex.UnixMS)/1e3, 'f', 3, 64))
}

// WriteQuery renders every counter and histogram of a Query snapshot
// under the ctdb_ prefix.
func (p *PromWriter) WriteQuery(s QuerySnapshot) {
	p.Counter("ctdb_queries_total", "Query evaluations started.", s.Queries)
	p.Counter("ctdb_queries_errored_total", "Query evaluations failing for any reason.", s.Errored)
	p.Counter("ctdb_queries_canceled_total", "Queries aborted by context cancellation or deadline.", s.Canceled)
	p.Counter("ctdb_queries_budget_exceeded_total", "Queries aborted by the kernel step budget.", s.BudgetExceeded)

	p.Histogram("ctdb_translate_seconds", "LTL to Buchi translation time per query.", s.Translate)
	p.Histogram("ctdb_prefilter_seconds", "Prefilter candidate retrieval time per query.", s.Prefilter)
	p.Histogram("ctdb_projection_pick_seconds", "Summed per-candidate projection lookup time per query.", s.ProjectionPick)
	p.Histogram("ctdb_kernel_seconds", "Candidate scan (permission check) wall time per query.", s.Kernel)
	p.Histogram("ctdb_cached_serve_seconds", "End-to-end latency of result-cache hits.", s.CachedServe)

	p.Counter("ctdb_query_cache_hits_total", "Tier-1 compilation cache hits.", s.QueryCacheHits)
	p.Counter("ctdb_query_cache_misses_total", "Tier-1 compilation cache misses.", s.QueryCacheMisses)
	p.Counter("ctdb_query_cache_evictions_total", "Tier-1 compilation cache evictions.", s.QueryCacheEvictions)
	p.Counter("ctdb_result_cache_hits_total", "Tier-2 result cache hits.", s.ResultCacheHits)
	p.Counter("ctdb_result_cache_misses_total", "Tier-2 result cache misses.", s.ResultCacheMisses)
	p.Counter("ctdb_result_cache_evictions_total", "Tier-2 result cache evictions.", s.ResultCacheEvictions)
	p.Counter("ctdb_result_cache_invalidations_total", "Stale-epoch result cache entries dropped at lookup.", s.ResultCacheInvalidation)

	p.Counter("ctdb_candidates_scanned_total", "Permission checks executed.", s.CandidatesScanned)
	p.Counter("ctdb_candidates_pruned_total", "Contracts removed by the prefilter.", s.CandidatesPruned)
	p.Counter("ctdb_proj_cache_hits_total", "Projection-checker cache hits.", s.ProjCacheHits)
	p.Counter("ctdb_proj_cache_misses_total", "Projection checkers built on demand.", s.ProjCacheMisses)
	p.Counter("ctdb_kernel_steps_total", "Product pairs and cycle nodes expanded.", s.KernelSteps)
	p.Counter("ctdb_permitted_total", "Matches returned across all queries.", s.Permitted)
}

// WriteDurability renders every counter and histogram of a Durability
// snapshot under the ctdb_ prefix.
func (p *PromWriter) WriteDurability(s DurabilitySnapshot) {
	p.Counter("ctdb_wal_appends_total", "WAL records appended.", s.WALAppends)
	p.Counter("ctdb_wal_bytes_total", "Framed WAL bytes written.", s.WALBytes)
	p.Counter("ctdb_wal_syncs_total", "fsync calls on the active WAL segment.", s.WALSyncs)
	p.Histogram("ctdb_wal_append_seconds", "WAL append latency.", s.WALAppend)
	p.Histogram("ctdb_wal_sync_seconds", "WAL fsync latency.", s.WALSync)

	p.Counter("ctdb_checkpoints_total", "Snapshots written and renamed into place.", s.Checkpoints)
	p.Counter("ctdb_checkpoint_errors_total", "Failed checkpoint attempts.", s.CheckpointErrors)
	p.Histogram("ctdb_checkpoint_write_seconds", "Checkpoint snapshot write latency.", s.CheckpointWrite)
	p.Counter("ctdb_wal_segments_pruned_total", "WAL segment files deleted after checkpoints.", s.SegmentsPruned)
	p.Counter("ctdb_snapshots_pruned_total", "Obsolete snapshot files deleted.", s.SnapshotsPruned)

	p.Counter("ctdb_recovery_replayed_total", "WAL records replayed past the snapshot at open.", s.RecoveryReplayed)
	p.Counter("ctdb_recovery_truncated_bytes_total", "Torn-tail bytes discarded at open.", s.RecoveryTruncated)
	p.Histogram("ctdb_recovery_seconds", "Recovery duration at open.", s.Recovery)
}

// WriteShardRouter renders the scatter-gather router's counters and
// per-shard gauges under the ctdb_shard_ prefix. sizes and epochs are
// indexed by shard; either may be nil.
func (p *PromWriter) WriteShardRouter(s ShardRouterSnapshot, sizes []int, epochs []uint64) {
	p.Counter("ctdb_shard_probes_total", "Per-shard query probes dispatched by the router.", s.Probes)
	p.Counter("ctdb_shard_early_exits_total", "FindAny scatters canceled after the first witness.", s.EarlyExits)
	p.Counter("ctdb_shard_full_cache_hits_total", "Scatters answered entirely from shard result caches.", s.FullHits)
	p.Counter("ctdb_shard_partial_cache_hits_total", "Scatters where only some shards served cached results.", s.PartialHits)
	p.Histogram("ctdb_shard_scatter_seconds", "Fan-out wall time until the last shard probe finishes.", s.Scatter)
	p.Histogram("ctdb_shard_merge_seconds", "Deterministic result-merge time after the scatter.", s.Merge)

	if len(sizes) > 0 {
		p.header("ctdb_shard_contracts", "Contracts resident per shard.", "gauge")
		for i, n := range sizes {
			p.printf("ctdb_shard_contracts{shard=\"%d\"} %d\n", i, n)
		}
	}
	if len(epochs) > 0 {
		p.header("ctdb_shard_epoch", "Registration epoch per shard.", "gauge")
		for i, e := range epochs {
			p.printf("ctdb_shard_epoch{shard=\"%d\"} %d\n", i, e)
		}
	}
}

// WriteRuntime renders the process gauges: goroutines, heap, and GC
// pause accounting from runtime.MemStats.
func (p *PromWriter) WriteRuntime() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.Gauge("go_goroutines", "Number of goroutines.", float64(runtime.NumGoroutine()))
	p.Gauge("go_memstats_heap_alloc_bytes", "Bytes of allocated heap objects.", float64(ms.HeapAlloc))
	p.Gauge("go_memstats_heap_objects", "Number of allocated heap objects.", float64(ms.HeapObjects))
	p.Gauge("go_memstats_sys_bytes", "Bytes obtained from the OS.", float64(ms.Sys))
	p.Counter("go_gc_cycles_total", "Completed GC cycles.", int64(ms.NumGC))
	p.Gauge("go_gc_pause_total_seconds", "Cumulative GC stop-the-world pause time.", float64(ms.PauseTotalNs)/1e9)
	p.Gauge("go_gc_pause_last_seconds", "Most recent GC stop-the-world pause.", lastPause(&ms))
}

func lastPause(ms *runtime.MemStats) float64 {
	if ms.NumGC == 0 {
		return 0
	}
	return float64(ms.PauseNs[(ms.NumGC+255)%256]) / 1e9
}
