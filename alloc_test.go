package main_test

import (
	"bytes"
	"testing"

	"contractdb/internal/core"
	"contractdb/internal/datagen"
)

// allocTolerance is the fractional growth over a measured count that
// TestQueryAllocCeilings lets pass.
const allocTolerance = 0.15

// TestQueryAllocCeilings pins the allocations of the query path: one
// pass over the Fig. 5 query mix (three queries per class) against the
// 50-contract Simple corpus, loaded from its snapshot as the store
// loads it. The cold cases bypass the compile cache (NoCache) and run
// the mix under Figure 5's mode (Algorithm 2) and under core.Optimized
// (the SCC kernel the daemon serves). The compiled case runs
// core.Optimized through the compile cache, which AllocsPerRun's
// untimed warm-up pass fills, so every measured query is a compile
// hit followed by a full evaluation — the path a daemon's repeated
// queries take. testing.AllocsPerRun runs at GOMAXPROCS 1, so the
// candidate scan is sequential and the counts do not depend on -cpu.
//
// Each ceiling is the count measured when the test was written plus
// allocTolerance. A change that lowers a count should lower its
// ceiling; one that raises a count past it allocates on the hot path
// and must say why before the ceiling moves.
func TestQueryAllocCeilings(t *testing.T) {
	// Allocations per pass, measured under -cpu 1,2,4 (the largest
	// reading). Both kernels allocate nothing in steady state, so the
	// two cold modes share one count.
	const cold, compiled = 3122, 610
	fig5Cold, optimizedCold := fig5Mode, core.Optimized
	fig5Cold.NoCache, optimizedCold.NoCache = true, true
	cases := []struct {
		name     string
		mode     core.Mode
		measured float64
	}{
		{"fig5", fig5Cold, cold},
		{"optimized", optimizedCold, cold},
		{"compiled", core.Optimized, compiled},
	}

	src := contractDB(t, datagen.SimpleContracts, 50)
	queries := benchQueries(t, src.Vocabulary(), 3)
	var snap bytes.Buffer
	if err := src.Save(&snap); err != nil {
		t.Fatal(err)
	}
	db, _, err := core.LoadBytesWithStats(snap.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		limit := c.measured * (1 + allocTolerance)
		// AllocsPerRun's own warm-up pass derives the projection
		// quotients the mix needs (and, for the compiled case, fills
		// the compile cache), so the measured passes are steady state.
		got := testing.AllocsPerRun(5, func() {
			for _, q := range queries {
				if _, err := db.QueryMode(q, c.mode); err != nil {
					t.Fatal(err)
				}
			}
		})
		t.Logf("%s: %.0f allocs per pass (ceiling %.0f)", c.name, got, limit)
		if got > limit {
			t.Errorf("%s: %.0f allocs per pass of %d queries exceeds ceiling %.0f",
				c.name, got, len(queries), limit)
		}
	}
}
