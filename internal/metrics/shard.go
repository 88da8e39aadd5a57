package metrics

// Sharded-router observability. The scatter-gather router
// (internal/shard) keeps its own Query registry for query-level
// outcomes — started/errored/canceled, translation latency, compile-
// cache traffic — while each shard's core.DB accrues the work it
// actually performed (candidate scans, kernel steps, result-cache
// traffic). ShardRouter adds the routing-specific counters neither
// side can see alone, and MergeQuery folds the per-shard registries
// into one corpus-wide work view for /v1/metrics.

// ShardRouter counts scatter-gather routing activity. One instance
// lives on each shard.DB; all fields are safe for concurrent update.
type ShardRouter struct {
	// Probes counts per-shard evaluations dispatched (one scatter over
	// N shards adds N).
	Probes Counter
	// EarlyExits counts FindAny scatters that broadcast cancellation to
	// outstanding probes after the first witness arrived.
	EarlyExits Counter
	// FullHits counts scatters answered entirely from shard result
	// caches; PartialHits counts scatters where only some shards hit.
	// Because each shard owns its cache and epoch, a registration
	// invalidates 1/N of the corpus — partial hits are the sharded
	// cache's signature behavior.
	FullHits    Counter
	PartialHits Counter

	// Scatter is the wall time from fan-out to the last probe
	// finishing; Merge is the deterministic combine that follows.
	Scatter Histogram
	Merge   Histogram
}

// ShardRouterSnapshot is the JSON view of ShardRouter.
type ShardRouterSnapshot struct {
	Probes      int64 `json:"probes"`
	EarlyExits  int64 `json:"early_exits"`
	FullHits    int64 `json:"full_hits"`
	PartialHits int64 `json:"partial_hits"`

	Scatter HistogramSnapshot `json:"scatter"`
	Merge   HistogramSnapshot `json:"merge"`
}

// Snapshot captures every router counter and histogram.
func (r *ShardRouter) Snapshot() ShardRouterSnapshot {
	return ShardRouterSnapshot{
		Probes:      r.Probes.Value(),
		EarlyExits:  r.EarlyExits.Value(),
		FullHits:    r.FullHits.Value(),
		PartialHits: r.PartialHits.Value(),
		Scatter:     r.Scatter.Snapshot(),
		Merge:       r.Merge.Snapshot(),
	}
}

// MergeHistograms combines histogram snapshots by adding bucket
// counts and recomputing the derived fields; the quantile estimates
// are recomputed from the merged buckets, not averaged. Snapshots
// taken before any observation (nil Buckets) contribute nothing.
func MergeHistograms(snaps ...HistogramSnapshot) HistogramSnapshot {
	var out HistogramSnapshot
	counts := make([]int64, NumBuckets)
	for _, s := range snaps {
		out.Count += s.Count
		out.SumUS += s.SumUS
		if s.MaxUS > out.MaxUS {
			out.MaxUS = s.MaxUS
		}
		for i, c := range s.Buckets {
			if i < NumBuckets {
				counts[i] += c
			}
		}
	}
	if out.Count > 0 {
		out.AvgUS = out.SumUS / out.Count
	}
	out.Buckets = counts
	out.P50US = percentile(counts, out.Count, out.MaxUS, 0.50)
	out.P99US = percentile(counts, out.Count, out.MaxUS, 0.99)
	return out
}

// MergeQuery folds query snapshots into one by summing counters and
// merging histograms. The sharded router uses it to present its
// shards' work registries as a single corpus-wide view; callers that
// want router-level outcomes (queries started, errors) overlay the
// router's own registry on the merged result.
func MergeQuery(snaps ...QuerySnapshot) QuerySnapshot {
	var out QuerySnapshot
	hists := func(pick func(*QuerySnapshot) *HistogramSnapshot) HistogramSnapshot {
		parts := make([]HistogramSnapshot, len(snaps))
		for i := range snaps {
			parts[i] = *pick(&snaps[i])
		}
		return MergeHistograms(parts...)
	}
	for i := range snaps {
		s := &snaps[i]
		out.Queries += s.Queries
		out.Errored += s.Errored
		out.Canceled += s.Canceled
		out.BudgetExceeded += s.BudgetExceeded

		out.QueryCacheHits += s.QueryCacheHits
		out.QueryCacheMisses += s.QueryCacheMisses
		out.QueryCacheEvictions += s.QueryCacheEvictions
		out.ResultCacheHits += s.ResultCacheHits
		out.ResultCacheMisses += s.ResultCacheMisses
		out.ResultCacheEvictions += s.ResultCacheEvictions
		out.ResultCacheInvalidation += s.ResultCacheInvalidation

		out.CandidatesScanned += s.CandidatesScanned
		out.CandidatesPruned += s.CandidatesPruned
		out.ProjCacheHits += s.ProjCacheHits
		out.ProjCacheMisses += s.ProjCacheMisses
		out.KernelSteps += s.KernelSteps
		out.Permitted += s.Permitted
	}
	out.Translate = hists(func(s *QuerySnapshot) *HistogramSnapshot { return &s.Translate })
	out.Prefilter = hists(func(s *QuerySnapshot) *HistogramSnapshot { return &s.Prefilter })
	out.ProjectionPick = hists(func(s *QuerySnapshot) *HistogramSnapshot { return &s.ProjectionPick })
	out.Kernel = hists(func(s *QuerySnapshot) *HistogramSnapshot { return &s.Kernel })
	out.CachedServe = hists(func(s *QuerySnapshot) *HistogramSnapshot { return &s.CachedServe })
	return out
}
