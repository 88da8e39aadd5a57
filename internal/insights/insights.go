// Package insights is the query insights log: structured per-query
// cost accounting — prefilter selectivity, candidate counts, cache
// tier, per-shard latency/step breakdown, verdict — retained in a
// lock-free in-memory ring of the 512 most recent entries.
//
// It complements internal/trace from the aggregate side: an inline
// trace answers "why was THIS query slow", the insights log answers
// "what has the workload been doing" (GET /v1/querylog, ctdb top). A
// 1-in-N sampler picks the entries it keeps; slow and failed queries
// are always kept. A nil *Log is a no-op on every method, so the
// disabled path stays allocation free (see
// TestInsightsZeroAllocsWhenDisabled).
package insights

import (
	"sort"
	"sync/atomic"
)

// ShardStat is one shard's share of a scatter-gather query: how long
// the probe ran, how many candidates its prefilter passed, and how
// many kernel checks and product-automaton steps it spent.
type ShardStat struct {
	Shard      int   `json:"shard"`
	DurUS      int64 `json:"dur_us"`
	Candidates int   `json:"candidates"`
	Checked    int   `json:"checked"`
	Steps      int64 `json:"steps"`
}

// Entry is one query's cost accounting.
type Entry struct {
	Seq         uint64 `json:"seq"`
	RequestID   string `json:"request_id,omitempty"`
	Query       string `json:"query"`
	Mode        string `json:"mode,omitempty"`
	StartUnixUS int64  `json:"start_unix_us"`
	DurUS       int64  `json:"dur_us"`
	// Verdict summarizes the outcome: "matches", "empty", "error" or
	// "timeout".
	Verdict string `json:"verdict"`
	Matches int    `json:"matches"`
	Error   string `json:"error,omitempty"`
	// Corpus is the contract count at query time; Candidates is how
	// many survived the prefilter (Selectivity = Candidates/Corpus —
	// the paper's pruning-power measure); Checked is how many reached
	// a kernel check.
	Corpus      int     `json:"corpus"`
	Candidates  int     `json:"candidates"`
	Checked     int     `json:"checked"`
	Selectivity float64 `json:"selectivity"`
	// CacheTier is "compiled" when the canonical compile cache served
	// the query automaton, "miss" when the query was translated.
	CacheTier   string `json:"cache_tier"`
	TranslateUS int64  `json:"translate_us"`
	FilterUS    int64  `json:"filter_us"`
	CheckUS     int64  `json:"check_us"`
	// Slow marks a query at least as slow as the server's slow-query
	// threshold; the log always keeps it.
	Slow   bool        `json:"slow,omitempty"`
	Shards []ShardStat `json:"shards,omitempty"`
}

// bufferSize is the ring capacity: how many recent entries the log
// keeps.
const bufferSize = 512

// Log is the insights log. All methods are safe for concurrent use
// and safe on a nil *Log (no-ops), which is the disabled state.
type Log struct {
	sampleEvery uint64
	counter     atomic.Uint64 // sampler
	seq         atomic.Uint64
	slots       [bufferSize]atomic.Pointer[Entry]
	next        atomic.Uint64
}

// New returns a log that keeps every sampleEvery-th query (1 = all;
// zero or less keeps only slow and failed queries).
func New(sampleEvery int) *Log {
	return &Log{sampleEvery: uint64(max(sampleEvery, 0))}
}

// Enabled reports whether the log is live — the server guards entry
// assembly with it so the disabled path never builds an Entry.
func (l *Log) Enabled() bool { return l != nil }

// Record applies the retention policy to one finished query and, if
// the query is kept, stamps its sequence number and retains it. Slow
// (e.Slow) and failed (e.Error) queries are always kept. Returns
// whether the entry was kept. Safe on a nil log.
func (l *Log) Record(e *Entry) bool {
	if l == nil || e == nil {
		return false
	}
	sampled := l.sampleEvery > 0 && l.counter.Add(1)%l.sampleEvery == 0
	if !sampled && !e.Slow && e.Error == "" {
		return false
	}
	e.Seq = l.seq.Add(1)
	i := l.next.Add(1) - 1
	l.slots[i%bufferSize].Store(e)
	return true
}

// Recent returns up to n retained entries, newest first. n <= 0 means
// all retained.
func (l *Log) Recent(n int) []*Entry {
	if l == nil {
		return nil
	}
	out := make([]*Entry, 0, bufferSize)
	for i := range l.slots {
		if e := l.slots[i].Load(); e != nil {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq > out[j].Seq })
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}
