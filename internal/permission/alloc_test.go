//go:build !race

package permission_test

import (
	"testing"

	"contractdb/internal/permission"
)

// TestSteadyStateZeroAllocs asserts the tentpole property of the
// compiled kernel: once the pooled scratch arena has grown to the
// workload's product size and the automata are compiled, a candidate
// check allocates nothing — for either algorithm, and for query
// automata of more than 64 states (multi-word target rows) too. The
// file is excluded under -race, whose instrumented runtime allocates on
// its own.
func TestSteadyStateZeroAllocs(t *testing.T) {
	contracts, queries := diffWorkload(t, 5, 4, 6)
	wideContracts, wideQueries := wideWorkload(5, 2, 2)
	contracts = append(contracts, wideContracts...)
	queries = append(queries, wideQueries...)
	checkers := make([]*permission.Checker, len(contracts))
	for i, ca := range contracts {
		checkers[i] = permission.NewChecker(ca)
	}
	for _, algo := range []permission.Algorithm{permission.SCC, permission.NestedDFS} {
		run := func() {
			for _, ch := range checkers {
				for _, qa := range queries {
					ch.PermitsAlgo(qa, algo)
				}
			}
		}
		// Warm up: grow the arena and compile the query automata.
		run()
		if avg := testing.AllocsPerRun(20, run); avg != 0 {
			t.Fatalf("algo %d: steady-state candidate checks allocate %.1f times per scan, want 0", algo, avg)
		}
	}
}
