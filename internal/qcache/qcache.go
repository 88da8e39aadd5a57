// Package qcache implements the query compilation cache behind the
// contract database's hot path.
//
// CompileCache memoizes the expensive LTL → Büchi translation per
// *canonical* query form (ltl.CanonicalKey): queries that differ only
// in derived-operator spelling or commutative-operand order share one
// entry. Each entry lazily holds both the positive automaton and the
// negated-obligation automaton, and translation is deduplicated
// singleflight-style — N concurrent identical queries block on one
// per-entry mutex and translate once. A query's automaton does not
// depend on the registered contracts, so entries survive every write.
//
// The cache is a bounded LRU and safe for concurrent use. Query
// results are never cached: every query runs prefilter, projection
// pick and search against the contracts registered when it starts.
package qcache

import (
	"container/list"
	"sync"

	"contractdb/internal/buchi"
	"contractdb/internal/ltl"
	"contractdb/internal/metrics"
)

// Metrics is the set of optional counters a cache reports into; any
// field may be nil. The owner (core.DB) wires these to its metrics
// registry so hits, misses and evictions show up in DB.Stats and
// GET /v1/metrics.
type Metrics struct {
	Hits      *metrics.Counter
	Misses    *metrics.Counter
	Evictions *metrics.Counter
}

func inc(c *metrics.Counter) {
	if c != nil {
		c.Inc()
	}
}

// Translate builds an automaton for a formula; the CompileCache calls
// it on a slot miss. It is supplied per call so the cache does not
// depend on a specific translator or vocabulary.
type Translate func(*ltl.Expr) (*buchi.BA, error)

// Compiled is one compilation-cache entry: a canonical query class
// with lazily translated automata for the query and its negation.
type Compiled struct {
	// Key is the canonical cache key (ltl.CanonicalKey of the query).
	Key string

	// spec is the first formula seen for this canonical class; the
	// automata are built from it (any member of the class is
	// semantically interchangeable).
	spec *ltl.Expr

	pos, neg compileSlot
}

// compileSlot holds one lazily built automaton. The mutex doubles as
// the singleflight guard: concurrent callers for the same slot block
// while the first translates.
type compileSlot struct {
	mu sync.Mutex
	ba *buchi.BA
}

// Automaton returns the entry's automaton — of the query itself, or of
// its negation when negated is true (the obligation path) — building
// it with tr on first use. Concurrent calls for the same slot
// translate once. Errors are returned but never cached: a failed
// translation (e.g. a vocabulary that is full today) is retried on the
// next call.
func (e *Compiled) Automaton(negated bool, tr Translate) (*buchi.BA, error) {
	s := &e.pos
	if negated {
		s = &e.neg
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ba != nil {
		return s.ba, nil
	}
	spec := e.spec
	if negated {
		spec = ltl.Not(spec) // built on a miss only: a hit allocates nothing
	}
	ba, err := tr(spec)
	if err != nil {
		return nil, err
	}
	s.ba = ba
	return ba, nil
}

// CompileCache is the LRU of canonical query form → Compiled.
type CompileCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recently used
	entries map[string]*list.Element
	m       Metrics
}

// NewCompileCache returns a compile cache holding at most capacity
// entries (capacity must be positive).
func NewCompileCache(capacity int, m Metrics) *CompileCache {
	if capacity <= 0 {
		panic("qcache: NewCompileCache capacity must be positive")
	}
	return &CompileCache{
		cap:     capacity,
		ll:      list.New(),
		entries: make(map[string]*list.Element, capacity),
		m:       m,
	}
}

// Get returns the entry for spec's canonical form, creating (and, when
// over capacity, evicting least-recently-used entries) as needed. The
// returned entry stays usable even if it is evicted while a caller
// still holds it.
func (c *CompileCache) Get(spec *ltl.Expr) *Compiled {
	e, _ := c.Lookup(spec)
	return e
}

// Lookup is Get plus a hit report: the second result is true when the
// canonical form was already cached. Query tracing uses it to stamp the
// compile-cache outcome on the canonicalize span without a second lookup.
func (c *CompileCache) Lookup(spec *ltl.Expr) (*Compiled, bool) {
	key := ltl.CanonicalKey(spec)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		inc(c.m.Hits)
		return el.Value.(*Compiled), true
	}
	inc(c.m.Misses)
	e := &Compiled{Key: key, spec: spec}
	c.entries[key] = c.ll.PushFront(e)
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.entries, back.Value.(*Compiled).Key)
		inc(c.m.Evictions)
	}
	return e, false
}

// Len returns the number of cached entries.
func (c *CompileCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Cap returns the cache's capacity.
func (c *CompileCache) Cap() int { return c.cap }
