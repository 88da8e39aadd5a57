package core

import (
	"context"
	"runtime"
	"sync"
	"time"

	"contractdb/internal/ltl"
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

// RegisterBatch registers many contracts, running prepare — automaton
// construction, projection precomputation, prefilter preparation —
// and the register-record encoding on a worker pool, off the write
// lock. The paper notes this workload is "completely parallel (each
// contract is simplified independently)"; only the publish step (id
// assignment, log append, prefilter bit-ORs) is serialized.
//
// Entries with identical specifications (canonical form) are
// *deduplicated structurally*: translated once, sharing one automaton,
// one checker, one projection state — N copies of a boilerplate
// contract cost one translation and one bisimulation lattice. Each
// still registers as a distinct contract under its own name and id.
//
// Empty names are minted first, in input order, as Register mints
// before it translates, so a database built by RegisterBatch has the
// same names, artifacts and Save bytes as one built by Register calls
// in input order.
//
// The worker pool is the smallest of workers (≤ 0 selects
// GOMAXPROCS), GOMAXPROCS and the number of distinct specifications;
// see batchWorkers. Results are returned in input
// order; failed entries (unsatisfiable, oversized, duplicate name) do
// not abort the rest. Translations still running when ctx is done fail
// with ErrCanceled. A batch that registers anything adds its own wall
// clock to RegistrationStats.Total, once, not its groups' overlapping
// prepare times.
func (db *DB) RegisterBatch(ctx context.Context, specs []Registration, workers int) []BatchResult {
	start := time.Now()

	// Pre-intern every atom serially: translation then only *reads*
	// the vocabulary (Add returns early for known names), so workers
	// cannot race on it. An entry whose events do not fit fails alone,
	// as its Register call would.
	internErr := make([]error, len(specs))
	for i, r := range specs {
		for _, atom := range r.Spec.Atoms() {
			if _, err := db.voc.Add(atom); err != nil {
				internErr[i] = err
			}
		}
	}

	names := make([]string, len(specs))
	db.mu.Lock()
	for i, r := range specs {
		if names[i] = r.Name; names[i] == "" {
			names[i] = db.nextAutoName()
		}
	}
	logging := db.oplog != nil
	db.mu.Unlock()

	// Group structurally identical specifications. Translation and
	// precomputation are deterministic functions of the canonical form,
	// so group members can share every derived artifact.
	type group struct {
		members []int // input positions, ascending
		art     *artifacts
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
		g.members = append(g.members, i)
		order[i] = g
	}

	// Parallel, one task per distinct spec: prepare it, then pend
	// every member (encoding its record when logging).
	out := make([]BatchResult, len(specs))
	ready := make([]pending, len(specs))
	var wg sync.WaitGroup
	work := make(chan *group)
	for range batchWorkers(workers, len(groups)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := range work {
				err := internErr[g.members[0]] // members share their atoms
				if err == nil {
					g.art, err = db.prepare(ctx, specs[g.members[0]].Spec)
				}
				for _, i := range g.members {
					out[i].Err = err
					if err == nil {
						ready[i], out[i].Err = db.pend(g.art, names[i], specs[i].Spec, logging)
					}
				}
			}
		}()
	}
	for _, g := range groups {
		work <- g
	}
	close(work)
	wg.Wait()

	// Serialized: publish in input order.
	db.mu.Lock()
	defer db.mu.Unlock()
	contracts, total := len(db.contracts), db.registerTime
	for i, g := range order {
		if out[i].Err == nil {
			out[i].Err = db.publishLocked(ready[i], g.art.cost)
		}
		if out[i].Err != nil {
			out[i].Err = contractErr(names[i], out[i].Err)
			continue
		}
		g.art.cost = regCost{} // the group's first published member paid it
		out[i].Contract = ready[i].c
	}
	if len(db.contracts) > contracts {
		db.registerTime = total + time.Since(start)
	}
	return out
}

// batchWorkers sizes RegisterBatch's worker pool: the requested count
// (≤ 0 selects GOMAXPROCS), but never more than GOMAXPROCS, since
// preparation is CPU-bound, nor more than the distinct specifications,
// since each worker prepares whole ones. The request arrives from
// clients unchecked.
func batchWorkers(requested, distinct int) int {
	procs := runtime.GOMAXPROCS(0)
	if requested <= 0 {
		requested = procs
	}
	return min(requested, procs, distinct)
}
