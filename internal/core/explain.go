package core

import (
	"context"
	"fmt"
	"strings"

	"contractdb/internal/buchi"
	"contractdb/internal/ltl"
	"contractdb/internal/vocab"
)

// Witness is a concrete event sequence demonstrating that a contract
// permits a query: the snapshots in Prefix followed by the snapshots
// in Cycle repeated forever form a run that the contract allows, uses
// only events the contract cites, and satisfies the query (Definition
// 1's three conditions, exhibited rather than just decided).
type Witness struct {
	Contract string
	Run      ltl.Lasso
}

// Format renders the witness as a one-snapshot-per-step listing.
// Quiet snapshots (no events) print as "-".
func (w Witness) Format(voc *vocab.Vocabulary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "witness for %s:\n", w.Contract)
	step := func(i int, s vocab.Set, loop bool) {
		marker := " "
		if loop {
			marker = "↻"
		}
		names := "-"
		if !s.IsEmpty() {
			names = strings.Trim(s.Format(voc), "{}")
		}
		fmt.Fprintf(&b, "  %s t=%-3d %s\n", marker, i, names)
	}
	for i, s := range w.Run.Prefix {
		step(i, s, false)
	}
	for i, s := range w.Run.Cycle {
		step(len(w.Run.Prefix)+i, s, true)
	}
	b.WriteString("  (the ↻ steps repeat forever)\n")
	return b.String()
}

// Explain returns a witness run showing that the named contract
// permits the query, or ok=false if it does not. The witness exhibits
// the simultaneous lasso of Theorem 1: it is produced from an
// accepting lasso of the product of the contract automaton with the
// query automaton restricted to the contract's vocabulary, choosing
// for each step the snapshot that sets exactly the positively required
// events. A translation still running when ctx is done fails with
// ErrCanceled.
func (db *DB) Explain(ctx context.Context, contractName string, spec *ltl.Expr) (Witness, bool, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	c, ok := db.byName[contractName]
	if !ok {
		return Witness{}, false, fmt.Errorf("core: no contract named %q", contractName)
	}
	if err := knownEvents(db.voc, spec); err != nil {
		return Witness{}, false, fmt.Errorf("core: explain: %w", err)
	}
	qa, err := translate(ctx, db.voc, spec, 0)
	if err != nil {
		return Witness{}, false, fmt.Errorf("core: explain: %w", err)
	}
	// Restrict the query automaton to edges citing only contract
	// events (compatibility condition (i)); the product then encodes
	// exactly the simultaneous-lasso search space, and any accepting
	// lasso of it is a permission witness.
	restricted := buchi.NewBuilder(qa.NumStates())
	restricted.Init = qa.Init
	copy(restricted.Final, qa.Final)
	for s := range qa.NumStates() {
		for e := range qa.Edges(buchi.StateID(s)) {
			if e.Label.Vars().SubsetOf(c.auto.Events) {
				restricted.AddEdge(buchi.StateID(s), e.Label, e.To)
			}
		}
	}
	product := buchi.Intersect(c.auto, restricted.BA())
	run, found := product.FindAcceptingLasso()
	if !found {
		return Witness{}, false, nil
	}
	return Witness{Contract: c.Name, Run: run}, true, nil
}

// ExplainLTL parses the query and calls Explain.
func (db *DB) ExplainLTL(ctx context.Context, contractName, src string) (Witness, bool, error) {
	spec, err := ltl.Parse(src)
	if err != nil {
		return Witness{}, false, fmt.Errorf("core: explain: %w", err)
	}
	return db.Explain(ctx, contractName, spec)
}
