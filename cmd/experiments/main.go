// Command experiments regenerates every table and figure of the
// paper's evaluation (§7):
//
//	table1     — Table 1: LTL precedence patterns per scope
//	table3     — Table 3: all behavior/scope pattern LTL
//	table2     — Table 2: dataset statistics (BA states/transitions)
//	fig5       — Figure 5: speedup and running times vs database size
//	fig6       — Figure 6: speedup vs contract and query complexity
//	indexstats — §7.4: index build time and size measurements
//
// By default the data sizes are scaled down so the whole suite runs in
// minutes on a laptop; -full switches to the paper's sizes (3000
// simple contracts etc.), which takes considerably longer. Results are
// printed as markdown; EXPERIMENTS.md records a reference run against
// the paper's reported numbers.
//
// The permission kernel defaults to the paper's Algorithm 2
// (nested-DFS); -kernel=scc selects the linear-time variant, which
// compresses all running times and, with them, the speedups.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"contractdb/internal/buchi"
	"contractdb/internal/core"
	"contractdb/internal/datagen"
	"contractdb/internal/dwyer"
	"contractdb/internal/ltl"
	"contractdb/internal/ltl2ba"
	"contractdb/internal/vocab"
)

var (
	runFlag    = flag.String("run", "all", "experiment to run: all, table1, table2, table3, fig5, fig6, indexstats")
	fullFlag   = flag.Bool("full", false, "use the paper's dataset sizes (slow) instead of scaled-down defaults")
	seedFlag   = flag.Int64("seed", 1, "base seed for dataset generation")
	kernelFlag = flag.String("kernel", "nested", "permission kernel: nested (paper's Algorithm 2) or scc (linear)")
	capFlag    = flag.Int("statecap", 300, "reject generated contracts whose automaton exceeds this many states (0 = unlimited)")
	cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile = flag.String("memprofile", "", "write a heap profile at exit to this file")
)

// dbOptions configures experiment databases: automata beyond the state
// cap are rejected and regenerated, keeping the synthetic datasets in
// the size regime of the paper's Table 2 (see EXPERIMENTS.md).
func dbOptions() core.Options {
	return core.Options{MaxAutomatonStates: *capFlag}
}

func kernel() core.Algorithm {
	switch *kernelFlag {
	case "nested":
		return core.AlgorithmNestedDFS
	case "scc":
		return core.AlgorithmSCC
	default:
		log.Fatalf("unknown -kernel %q (want nested or scc)", *kernelFlag)
		return 0
	}
}

func main() {
	flag.Parse()
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Fatalf("memprofile: %v", err)
			}
			defer f.Close()
			runtime.GC() // settle live-heap accounting before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatalf("memprofile: %v", err)
			}
		}()
	}
	experiments := map[string]func(){
		"table1":     table1,
		"table3":     table3,
		"table2":     table2,
		"fig5":       fig5,
		"fig6":       fig6,
		"indexstats": indexstats,
	}
	order := []string{"table1", "table3", "table2", "fig5", "fig6", "indexstats"}
	if *runFlag == "all" {
		for _, name := range order {
			experiments[name]()
		}
		return
	}
	fn, ok := experiments[*runFlag]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *runFlag)
		os.Exit(2)
	}
	fn()
}

func table1() {
	fmt.Println("## Table 1: LTL precedence pattern (s precedes p)")
	fmt.Println()
	fmt.Println("| Scope | LTL |")
	fmt.Println("|-------|-----|")
	p := dwyer.Params{P: "p", S: "s", Q: "q", R: "r"}
	for _, s := range dwyer.Scopes() {
		f, err := dwyer.Instantiate(dwyer.Precedence, s, p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("| %s | `%s` |\n", scopeLabel(s), f)
	}
	fmt.Println()
}

func table3() {
	fmt.Println("## Table 3: LTL patterns (all behaviors and scopes)")
	fmt.Println()
	p := dwyer.Params{P: "p", S: "s", Q: "q", R: "r"}
	for _, b := range dwyer.Behaviors() {
		fmt.Printf("### %s\n\n", b)
		fmt.Println("| Scope | LTL |")
		fmt.Println("|-------|-----|")
		for _, s := range dwyer.Scopes() {
			f, err := dwyer.Instantiate(b, s, p)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("| %s | `%s` |\n", scopeLabel(s), f)
		}
		fmt.Println()
	}
}

func scopeLabel(s dwyer.Scope) string {
	switch s {
	case dwyer.Global:
		return "Global"
	case dwyer.Before:
		return "Before r"
	case dwyer.After:
		return "After q"
	default:
		return "Between q and r"
	}
}

// classSpec is a dataset class with a size overridden for scaled runs.
type classSpec struct {
	datagen.Class
	size int
}

func scaled(c datagen.Class, scaledSize int) classSpec {
	if *fullFlag {
		return classSpec{Class: c, size: c.Size}
	}
	return classSpec{Class: c, size: scaledSize}
}

// buildSpecs generates `size` satisfiable specifications of a class
// and their automata, for the dataset statistics.
func buildSpecs(voc *vocab.Vocabulary, gen *datagen.Generator, c classSpec) []*buchi.BA {
	out := make([]*buchi.BA, 0, c.size)
	for len(out) < c.size {
		spec := gen.Specification(c.Properties)
		a, err := ltl2ba.TranslateBounded(context.Background(), voc, spec, *capFlag)
		if errors.Is(err, ltl2ba.ErrTooLarge) {
			continue
		}
		if err != nil {
			log.Fatal(err)
		}
		if a.IsEmpty() {
			// Regenerate: unsatisfiable specs are publishing errors, and
			// oversized automata are rejected at registration (see
			// -statecap), so the statistics describe the datasets the
			// other experiments actually use.
			continue
		}
		out = append(out, a)
	}
	return out
}

func meanStddev(xs []float64) (float64, float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	varsum := 0.0
	for _, x := range xs {
		varsum += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(varsum / float64(len(xs)))
}

func table2() {
	fmt.Println("## Table 2: dataset statistics")
	fmt.Println()
	fmt.Println("| Dataset | size | #LTL patterns | #states avg | #states stddev | #transitions avg | #transitions stddev |")
	fmt.Println("|---------|------|---------------|-------------|----------------|------------------|---------------------|")
	classes := []classSpec{
		scaled(datagen.SimpleContracts, 300),
		scaled(datagen.MediumContracts, 100),
		scaled(datagen.ComplexContracts, 60),
		scaled(datagen.SimpleQueries, 100),
		scaled(datagen.MediumQueries, 100),
		scaled(datagen.ComplexQueries, 100),
	}
	for _, c := range classes {
		voc := datagen.NewVocabulary()
		gen := datagen.New(voc, *seedFlag)
		autos := buildSpecs(voc, gen, c)
		var states, trans []float64
		for _, a := range autos {
			states = append(states, float64(a.NumStates()))
			trans = append(trans, float64(a.NumEdges()))
		}
		sm, ss := meanStddev(states)
		tm, ts := meanStddev(trans)
		fmt.Printf("| %s | %d | %d | %.2f | %.2f | %.2f | %.2f |\n",
			c.Name, c.size, c.Properties, sm, ss, tm, ts)
	}
	fmt.Println()
}

// queryWorkload builds n queries per class over the vocabulary.
func queryWorkload(voc *vocab.Vocabulary, seed int64, perClass int) map[string][]*ltl.Expr {
	gen := datagen.New(voc, seed)
	out := map[string][]*ltl.Expr{}
	for _, c := range []classSpec{
		scaled(datagen.SimpleQueries, perClass),
		scaled(datagen.MediumQueries, perClass),
		scaled(datagen.ComplexQueries, perClass),
	} {
		var qs []*ltl.Expr
		for len(qs) < c.size {
			q := gen.Specification(c.Properties)
			a, err := ltl2ba.Translate(voc, q)
			if err != nil {
				log.Fatal(err)
			}
			if a.IsEmpty() {
				continue
			}
			qs = append(qs, q)
		}
		out[c.Name] = qs
	}
	return out
}

// registerContracts grows db to the target size with generated
// contracts of the given pattern count.
func registerContracts(db *core.DB, gen *datagen.Generator, properties, target int) {
	for db.Len() < target {
		spec := gen.Specification(properties)
		if _, err := db.Register("", spec); err != nil {
			continue
		}
	}
}

// measure evaluates the workload in both modes and returns per-query
// (scan, optimized) times. It verifies the two modes agree.
//
// The optimized path materializes each contract's per-query-subset
// projection lazily on first use; the paper's system has all of them
// precomputed at registration time. To measure the same steady state,
// each query runs once unmeasured to warm those caches before the
// timed run.
func measure(db *core.DB, queries []*ltl.Expr) (scan, opt []time.Duration) {
	base := kernel()
	// NoCache everywhere: the warm-up run would otherwise leave the
	// timed run a compile-cache hit with no translation time, which is
	// not the evaluation Figure 5 measures.
	for _, q := range queries {
		if _, err := db.QueryMode(q, core.Mode{Prefilter: true, Bisim: true, Algorithm: base, NoCache: true}); err != nil {
			log.Fatal(err)
		}
		rOpt, err := db.QueryMode(q, core.Mode{Prefilter: true, Bisim: true, Algorithm: base, NoCache: true})
		if err != nil {
			log.Fatal(err)
		}
		rScan, err := db.QueryMode(q, core.Mode{Algorithm: base, NoCache: true})
		if err != nil {
			log.Fatal(err)
		}
		if rScan.Stats.Permitted != rOpt.Stats.Permitted {
			log.Fatalf("optimizations changed the answer for query %s: %d vs %d",
				q, rScan.Stats.Permitted, rOpt.Stats.Permitted)
		}
		scan = append(scan, rScan.Stats.Elapsed())
		opt = append(opt, rOpt.Stats.Elapsed())
	}
	return scan, opt
}

func speedups(scan, opt []time.Duration) []float64 {
	out := make([]float64, len(scan))
	for i := range scan {
		o := opt[i]
		if o <= 0 {
			o = time.Nanosecond
		}
		out[i] = float64(scan[i]) / float64(o)
	}
	return out
}

func avgDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

func fig5() {
	fmt.Println("## Figure 5: speedup and running times vs database size (simple contracts, all query complexities)")
	fmt.Println()
	sizes := []int{50, 100, 200, 400, 800}
	perClass := 10
	if *fullFlag {
		sizes = []int{100, 500, 1000, 2000, 3000}
		perClass = 100
	}
	voc := datagen.NewVocabulary()
	queriesByClass := queryWorkload(voc, *seedFlag+1000, perClass)
	var queries []*ltl.Expr
	for _, name := range []string{datagen.SimpleQueries.Name, datagen.MediumQueries.Name, datagen.ComplexQueries.Name} {
		queries = append(queries, queriesByClass[name]...)
	}

	db := core.NewDB(voc, dbOptions())
	gen := datagen.New(voc, *seedFlag)
	fmt.Println("| #contracts | avg speedup | speedup stddev | avg scan time | avg optimized time |")
	fmt.Println("|------------|-------------|----------------|---------------|--------------------|")
	for _, size := range sizes {
		registerContracts(db, gen, datagen.SimpleContracts.Properties, size)
		scan, opt := measure(db, queries)
		sp := speedups(scan, opt)
		mean, sd := meanStddev(sp)
		fmt.Printf("| %d | %.1f | %.1f | %v | %v |\n",
			size, mean, sd, avgDur(scan).Round(time.Microsecond), avgDur(opt).Round(time.Microsecond))
	}
	fmt.Println()
}

func fig6() {
	fmt.Println("## Figure 6: speedup vs contract and query complexity")
	fmt.Println()
	dbSize := 100
	perClass := 10
	if *fullFlag {
		dbSize = 1000
		perClass = 100
	}
	contractClasses := []datagen.Class{
		datagen.SimpleContracts, datagen.MediumContracts, datagen.ComplexContracts,
	}
	fmt.Printf("(database size = %d contracts per class, %d queries per query class)\n\n", dbSize, perClass)
	fmt.Println("| Contract class | Simple queries | Medium queries | Complex queries |")
	fmt.Println("|----------------|----------------|----------------|-----------------|")
	for _, cc := range contractClasses {
		voc := datagen.NewVocabulary()
		db := core.NewDB(voc, dbOptions())
		gen := datagen.New(voc, *seedFlag)
		registerContracts(db, gen, cc.Properties, dbSize)
		queriesByClass := queryWorkload(voc, *seedFlag+1000, perClass)
		fmt.Printf("| %s |", cc.Name)
		for _, qc := range []string{datagen.SimpleQueries.Name, datagen.MediumQueries.Name, datagen.ComplexQueries.Name} {
			scan, opt := measure(db, queriesByClass[qc])
			mean, sd := meanStddev(speedups(scan, opt))
			fmt.Printf(" %.1f ± %.1f |", mean, sd)
		}
		fmt.Println()
	}
	fmt.Println()
}

// countingWriter measures a Save stream without storing it.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

func indexstats() {
	fmt.Println("## §7.4 Index building and size")
	fmt.Println()
	n := 300
	if *fullFlag {
		n = 3000
	}
	voc := datagen.NewVocabulary()
	db := core.NewDB(voc, dbOptions())
	gen := datagen.New(voc, *seedFlag)
	start := time.Now()
	registerContracts(db, gen, datagen.SimpleContracts.Properties, n)
	total := time.Since(start)
	rs := db.RegistrationStats()
	var w countingWriter
	if err := db.Save(&w); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("- contracts registered: %d (simple class)\n", rs.Contracts)
	fmt.Printf("- total registration time: %v (avg %v per contract)\n",
		total.Round(time.Millisecond), (total / time.Duration(n)).Round(time.Microsecond))
	fmt.Printf("- prefilter index build time: %v (avg %v per contract)\n",
		rs.IndexBuild.Round(time.Millisecond), (rs.IndexBuild / time.Duration(n)).Round(time.Microsecond))
	fmt.Printf("- prefilter index size: %d nodes, %.2f MB\n", rs.IndexNodes, float64(rs.IndexBytes)/1e6)
	fmt.Printf("- projection precompute time: %v (avg %v per contract)\n",
		rs.Projections.Round(time.Millisecond), (rs.Projections / time.Duration(n)).Round(time.Microsecond))
	fmt.Printf("- precomputed projection subsets: %d\n", rs.ProjectionRows)
	distinct, subsets := projectionDedup(db)
	fmt.Printf("- distinct partitions among subsets: %.1f%% (paper reports ~5%%)\n",
		100*float64(distinct)/float64(max(subsets, 1)))
	fmt.Printf("- full database snapshot (automata + index + projections): %.2f MB\n", float64(w.n)/1e6)
	fmt.Println()
}

func projectionDedup(db *core.DB) (distinct, subsets int) {
	for _, c := range db.Contracts() {
		d, s := c.ProjectionStats()
		distinct += d
		subsets += s
	}
	return distinct, subsets
}
