package metrics

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("Value() = %d, want 5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, us := range []int64{0, 1, 3, 1000, 1_000_000} {
		h.Observe(time.Duration(us) * time.Microsecond)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("Count = %d, want 5", s.Count)
	}
	if s.SumUS != 1_001_004 {
		t.Fatalf("SumUS = %d, want 1001004", s.SumUS)
	}
	if s.MaxUS != 1_000_000 {
		t.Fatalf("MaxUS = %d, want 1000000", s.MaxUS)
	}
	if s.AvgUS != 1_001_004/5 {
		t.Fatalf("AvgUS = %d, want %d", s.AvgUS, 1_001_004/5)
	}
	// Median observation is 3µs → bucket upper bound 3.
	if s.P50US != 3 {
		t.Fatalf("P50US = %d, want 3", s.P50US)
	}
	if s.P99US < 1_000_000-1 {
		t.Fatalf("P99US = %d, want ≥ the top observation's bucket", s.P99US)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Observe(-time.Second)
	s := h.Snapshot()
	if s.Count != 1 || s.SumUS != 0 || s.MaxUS != 0 {
		t.Fatalf("negative observation not clamped: %+v", s)
	}
}

func TestQuerySnapshotConcurrent(t *testing.T) {
	var q Query
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				q.Queries.Inc()
				q.KernelSteps.Add(3)
				q.Kernel.Observe(5 * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	s := q.Snapshot()
	if s.Queries != workers*per {
		t.Fatalf("Queries = %d, want %d", s.Queries, workers*per)
	}
	if s.KernelSteps != 3*workers*per {
		t.Fatalf("KernelSteps = %d, want %d", s.KernelSteps, 3*workers*per)
	}
	if s.Kernel.Count != workers*per {
		t.Fatalf("Kernel.Count = %d, want %d", s.Kernel.Count, workers*per)
	}
}

func TestPercentileEmpty(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.P50US != 0 || s.P99US != 0 || s.AvgUS != 0 {
		t.Fatalf("empty histogram snapshot not all zero: %+v", s)
	}
}

// TestHistogramBucketBoundaries pins the pow2 bucketing exactly:
// bucket i counts microsecond values of bit-length i, so bucket i's
// inclusive range is [2^(i-1), 2^i - 1] (bucket 0 is exactly 0, the
// last bucket absorbs everything past the range).
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		us     int64
		bucket int
	}{
		{0, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4}, {15, 4},
		{1024, 11},
		{-5, 0},             // negative durations clamp to 0
		{(1 << 21) - 1, 21}, // top of bucket 21
		{1 << 21, 22},       // bottom of bucket 22
		{(1 << (NumBuckets - 1)), NumBuckets - 1}, // first overflow value
		{1 << 40, NumBuckets - 1},                 // far past the range: clamped
	}
	for _, tc := range cases {
		var h Histogram
		h.Observe(time.Duration(tc.us) * time.Microsecond)
		s := h.Snapshot()
		if len(s.Buckets) != NumBuckets {
			t.Fatalf("snapshot has %d buckets, want %d", len(s.Buckets), NumBuckets)
		}
		for i, c := range s.Buckets {
			want := int64(0)
			if i == tc.bucket {
				want = 1
			}
			if c != want {
				t.Errorf("observe %dµs: bucket[%d] = %d, want %d", tc.us, i, c, want)
			}
		}
	}
}

// TestHistogramQuantileEstimation checks the snapshot's nearest-rank
// upper-bound estimates.
func TestHistogramQuantileEstimation(t *testing.T) {
	cases := []struct {
		name     string
		observe  []time.Duration
		p50, p99 int64
	}{
		// 99 fast observations and 2 slow ones: the nearest-rank p99 of
		// 101 observations is the 100th, which is slow. 1000µs has
		// bit-length 10, so its bucket's upper bound is 2^10-1.
		{"bimodal", append(repeat(time.Microsecond, 99), time.Millisecond, time.Millisecond), 1, (1 << 10) - 1},
		// The overflow bucket has no upper bound: both quantiles report
		// the largest observation, not the bucket's lower edge.
		{"overflow", []time.Duration{60 * time.Second}, 60_000_000, 60_000_000},
	}
	for _, tc := range cases {
		var h Histogram
		for _, d := range tc.observe {
			h.Observe(d)
		}
		if s := h.Snapshot(); s.P50US != tc.p50 || s.P99US != tc.p99 {
			t.Errorf("%s: p50, p99 = %d, %dµs; want %d, %d (max %d)", tc.name, s.P50US, s.P99US, tc.p50, tc.p99, s.MaxUS)
		}
	}
}

func repeat(d time.Duration, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = d
	}
	return out
}

// TestHistogramConcurrent hammers one histogram from many goroutines:
// under -race this is the data-race check, and the per-bucket counts
// must balance with the total regardless of interleaving.
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration((w*per+i)%512) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Errorf("count = %d, want %d", s.Count, workers*per)
	}
	var inBuckets int64
	for _, c := range s.Buckets {
		inBuckets += c
	}
	if inBuckets != s.Count {
		t.Errorf("bucket counts sum to %d, want count %d", inBuckets, s.Count)
	}
	if s.MaxUS != 511 {
		t.Errorf("max = %d, want 511", s.MaxUS)
	}
	if s.SumUS <= 0 {
		t.Errorf("sum = %d, want positive", s.SumUS)
	}
}

// TestPromExposition sanity-checks the text renderer: families are
// named by their JSON paths, every sample line parses as
// `name[{labels}] value`, histogram buckets are cumulative and end at
// +Inf == count, numeric slices become shard-labelled gauges, and the
// runtime gauges follow. An empty snapshot (nil Buckets) still renders.
func TestPromExposition(t *testing.T) {
	var q Query
	q.Queries.Add(7)
	q.Translate.Observe(3 * time.Microsecond)
	q.Translate.Observe(5 * time.Millisecond)

	payload := struct {
		Queries    QuerySnapshot       `json:"queries"`
		Durability *DurabilitySnapshot `json:"durability,omitempty"`
		Absent     *DurabilitySnapshot `json:"absent,omitempty"`
		Empty      HistogramSnapshot   `json:"empty"`
		Sizes      []int               `json:"sizes"`
		Name       string              `json:"name"`
		Hidden     int64               `json:"-"`
	}{
		Queries:    q.Snapshot(),
		Durability: &DurabilitySnapshot{},
		Sizes:      []int{3, 4},
		Name:       "x",
	}
	var b strings.Builder
	if err := WritePrometheus(&b, payload); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# TYPE ctdb_queries_queries untyped",
		"ctdb_queries_queries 7",
		"# TYPE ctdb_queries_translate_seconds histogram",
		`ctdb_queries_translate_seconds_bucket{le="+Inf"} 2`,
		"ctdb_queries_translate_seconds_count 2",
		"ctdb_durability_wal_appends 0",
		`ctdb_empty_seconds_bucket{le="+Inf"} 0`,
		"# TYPE ctdb_sizes gauge",
		`ctdb_sizes{shard="1"} 4`,
		"# TYPE go_goroutines gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	for _, absent := range []string{"ctdb_absent", "ctdb_name", "ctdb_hidden", "Hidden"} {
		if strings.Contains(out, absent) {
			t.Errorf("exposition has %q, which carries no number in the JSON", absent)
		}
	}

	prevCum := int64(-1)
	for _, line := range strings.Split(out, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable sample line %q", line)
		}
		if _, err := strconv.ParseFloat(line[i+1:], 64); err != nil {
			t.Fatalf("sample %q has non-numeric value: %v", line, err)
		}
		if strings.HasPrefix(line, "ctdb_queries_translate_seconds_bucket") {
			v, _ := strconv.ParseInt(line[i+1:], 10, 64)
			if v < prevCum {
				t.Fatalf("histogram buckets not cumulative at %q", line)
			}
			prevCum = v
		}
	}
}
