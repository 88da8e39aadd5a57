// Warranty demonstrates the broker at scale: it generates a portfolio
// of synthetic warranty contracts with the paper's workload generator
// (conjunctions of Dwyer temporal-property patterns, §7.2), then runs
// the same query workload twice — once as an unoptimized full scan
// and once with the prefilter index and bisimulation projections —
// and reports the speedup, a miniature of the paper's Figure 5.
//
// Run with:
//
//	go run ./examples/warranty [-contracts N] [-queries M]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"contractdb/contracts"
	"contractdb/internal/datagen"
)

func main() {
	nContracts := flag.Int("contracts", 150, "number of warranty contracts to generate")
	nQueries := flag.Int("queries", 15, "number of customer queries to run")
	flag.Parse()

	// A 20-event warranty vocabulary; the generator draws pattern
	// variables from it.
	events := []string{
		"purchase", "registerProduct", "defectReported", "inspection",
		"repairApproved", "repairDenied", "repaired", "replaced",
		"refunded", "partsOrdered", "claimFiled", "claimClosed",
		"extendedBought", "transferOwner", "expired", "renewed",
		"recallIssued", "upgradeOffered", "disputeOpened", "disputeResolved",
	}
	// Reject pathological automata so the portfolio stays in the size
	// regime of the paper's datasets (see EXPERIMENTS.md).
	broker, err := contracts.NewBroker(events, contracts.Options{MaxAutomatonStates: 300})
	if err != nil {
		log.Fatal(err)
	}

	gen := datagen.New(broker.Vocabulary(), 2026)
	fmt.Printf("registering %d generated warranty contracts...\n", *nContracts)
	start := time.Now()
	for registered := 0; registered < *nContracts; {
		spec := gen.Specification(5)
		if _, err := broker.Register("", spec); err != nil {
			continue // a random conjunction is occasionally unsatisfiable
		}
		registered++
	}
	reg := broker.RegistrationStats()
	fmt.Printf("registered in %v (prefilter: %d nodes / %d KB; projections: %d subsets)\n\n",
		time.Since(start).Round(time.Millisecond),
		reg.IndexNodes, reg.IndexBytes/1024, reg.ProjectionRows)

	queries := make([]*contracts.Formula, *nQueries)
	for i := range queries {
		queries[i] = gen.Specification(2)
	}

	run := func(mode contracts.Mode) (time.Duration, int, int) {
		var total time.Duration
		matches, candidates := 0, 0
		for _, q := range queries {
			res, err := broker.QueryMode(q, mode)
			if err != nil {
				log.Fatal(err)
			}
			total += res.Stats.Elapsed()
			matches += res.Stats.Permitted
			candidates += res.Stats.Candidates
		}
		return total, matches, candidates
	}

	// Bypass the compile cache, so every run translates its queries,
	// and warm the lazy projection caches first so the timed optimized run
	// reflects the steady state (the paper precomputes everything at
	// registration).
	scanMode := contracts.Mode{NoCache: true}
	optMode := contracts.Mode{Prefilter: true, Bisim: true, NoCache: true}
	run(optMode)
	scanTime, scanMatches, _ := run(scanMode)
	optTime, optMatches, optCandidates := run(optMode)
	if scanMatches != optMatches {
		log.Fatalf("optimizations changed the answers: %d vs %d", scanMatches, optMatches)
	}

	fmt.Printf("query workload: %d queries over %d contracts\n", len(queries), broker.Len())
	fmt.Printf("  unoptimized scan:  %10v  (%d matches)\n", scanTime.Round(time.Microsecond), scanMatches)
	fmt.Printf("  optimized:         %10v  (%d matches, %.1f avg candidates/query)\n",
		optTime.Round(time.Microsecond), optMatches,
		float64(optCandidates)/float64(len(queries)))
	if optTime > 0 {
		fmt.Printf("  speedup:           %10.1fx\n", float64(scanTime)/float64(optTime))
	}
}
