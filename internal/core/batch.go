package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"contractdb/internal/bisim"
	"contractdb/internal/buchi"
	"contractdb/internal/ltl"
	"contractdb/internal/permission"
	"contractdb/internal/prefilter"
)

// Registration names one specification for batch loading.
type Registration struct {
	Name string
	Spec *ltl.Expr
}

// BatchResult reports one batch entry's outcome; exactly one of
// Contract and Err is set.
type BatchResult struct {
	Contract *Contract
	Err      error
}

// RegisterBatch registers many contracts, running the expensive
// per-contract work — automaton construction, projection
// precomputation and prefilter preparation — on a worker pool. The
// paper notes this workload is "completely parallel (each contract is
// simplified independently)"; only id assignment and the prefilter
// bitset merges are serialized, and the merge consumes pre-enumerated
// node sets (prefilter.Prepare) so the serial section is bit-ORs, not
// subset enumeration.
//
// Entries with identical specifications (canonical form) are
// *deduplicated structurally*: translated once, sharing one automaton,
// one checker, one projection state — N copies of a boilerplate
// contract cost one translation and one bisimulation lattice. Each
// still registers as a distinct contract under its own name and id.
//
// A database built by RegisterBatch has the same artifacts (and the
// same Save bytes) as one built by Register calls in input order.
//
// workers ≤ 0 selects GOMAXPROCS. Results are returned in input
// order; failed entries (unsatisfiable, oversized, duplicate name) do
// not abort the rest. Translations still running when ctx is done fail
// with ErrCanceled.
func (db *DB) RegisterBatch(ctx context.Context, specs []Registration, workers int) []BatchResult {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Pre-intern every atom serially: translation then only *reads*
	// the vocabulary (Add returns early for known names), so workers
	// cannot race on it.
	var internErr error
	for _, r := range specs {
		for _, atom := range r.Spec.Atoms() {
			if _, err := db.voc.Add(atom); err != nil {
				internErr = err
			}
		}
	}

	// Group structurally identical specifications. Translation and
	// precomputation are deterministic functions of the canonical form,
	// so group members can share every derived artifact.
	type group struct {
		indices []int // input positions, ascending

		auto     *buchi.BA
		checker  *permission.Checker
		proj     *projState
		prep     prefilter.Prepared
		elapsed  time.Duration
		projTime time.Duration
		err      error
		unsat    bool // err is per-name; render it with each member's name
	}
	byKey := make(map[string]*group)
	var groups []*group
	order := make([]*group, len(specs))
	for i, r := range specs {
		key := r.Spec.String()
		g, ok := byKey[key]
		if !ok {
			g = &group{}
			byKey[key] = g
			groups = append(groups, g)
		}
		g.indices = append(g.indices, i)
		order[i] = g
	}

	// Phase 1 (parallel, one task per distinct spec): translate,
	// precompute projections, enumerate prefilter nodes.
	db.mu.RLock()
	maxStates := db.opts.MaxAutomatonStates
	prefilterK := db.index.K()
	logging := db.oplog != nil
	db.mu.RUnlock()
	var wg sync.WaitGroup
	work := make(chan *group)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := range work {
				start := time.Now()
				if internErr != nil {
					g.err = internErr
					continue
				}
				spec := specs[g.indices[0]].Spec
				auto, err := translate(ctx, db.voc, spec, maxStates)
				if err != nil {
					g.err = err
					continue
				}
				if auto.IsEmpty() {
					g.unsat = true
					continue
				}
				tProj := time.Now()
				ps := bisim.Precompute(auto, db.effectiveBudget(auto))
				g.projTime = time.Since(tProj)
				if logging {
					ps.PrepareExport() // phase 2 encodes the records under the lock
				}
				g.auto = auto
				g.checker = permission.NewChecker(auto)
				g.proj = &projState{ps: ps}
				g.prep = prefilter.Prepare(auto, prefilterK)
				g.elapsed = time.Since(start)
			}
		}()
	}
	for _, g := range groups {
		work <- g
	}
	close(work)
	wg.Wait()

	// Phase 2 (serialized): id assignment, duplicate checks, prefilter
	// merges.
	db.mu.Lock()
	defer db.mu.Unlock()
	charged := make(map[*group]bool) // first member pays the group's cost
	out := make([]BatchResult, len(specs))
	for i, g := range order {
		if g.unsat {
			out[i].Err = fmt.Errorf("core: contract %q allows no behavior (unsatisfiable specification)", specs[i].Name)
			continue
		}
		if g.err != nil {
			out[i].Err = g.err
			continue
		}
		name := specs[i].Name
		if name == "" {
			name = db.nextAutoName()
		}
		if _, dup := db.byName[name]; dup {
			out[i].Err = fmt.Errorf("core: contract %q %w", name, ErrDuplicateName)
			continue
		}
		c := &Contract{
			ID:      ContractID(len(db.contracts)),
			Name:    name,
			Spec:    specs[i].Spec,
			auto:    g.auto,
			checker: g.checker,
			proj:    g.proj,
		}
		if err := db.logRegisterLocked(c, nil); err != nil {
			out[i].Err = fmt.Errorf("core: contract %q: %w", name, err)
			continue
		}
		t := time.Now()
		db.index.InsertPrepared(int(c.ID), g.prep)
		db.indexTime += time.Since(t)
		if !charged[g] {
			charged[g] = true
			db.translations++
			db.projectionTime += g.projTime
			db.registerTime += g.elapsed
		}
		db.contracts = append(db.contracts, c)
		db.byName[name] = c
		out[i].Contract = c
	}
	return out
}
