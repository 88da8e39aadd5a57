// Command ctdb is the command-line front end of the temporal contract
// database. It manages a broker snapshot on disk:
//
//	ctdb init   -db FILE -events a,b,c        create an empty database
//	ctdb gen    -db FILE -n 100 [-props 5]    add generated contracts
//	ctdb add    -db FILE -name N -spec LTL    register one contract
//	ctdb register -db FILE -dir DIR           bulk-register a directory of specs
//	ctdb query  -db FILE -spec LTL [-mode M]  run a query
//	ctdb show   -db FILE [-name N]            list contracts / dump one automaton
//	ctdb stats  -db FILE                      database and index statistics
//	ctdb monitor -addr URL -stream N          tail a live stream's verdicts
//	ctdb top    -addr URL                     live view of the query insights log
//	ctdb debug bundle -addr URL               download a diagnostics tarball
//
// Example session:
//
//	ctdb init -db fares.ctdb -events purchase,use,refund,dateChange
//	ctdb add  -db fares.ctdb -name NoRefunds -spec 'G(!refund)'
//	ctdb query -db fares.ctdb -spec 'F refund'
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"contractdb/internal/core"
	"contractdb/internal/datagen"
	"contractdb/internal/ltl"
	"contractdb/internal/trace"
	"contractdb/internal/vocab"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "init":
		err = cmdInit(args)
	case "gen":
		err = cmdGen(args)
	case "add":
		err = cmdAdd(args)
	case "register":
		err = cmdRegister(args)
	case "query":
		err = cmdQuery(args)
	case "show":
		err = cmdShow(args)
	case "stats":
		err = cmdStats(args)
	case "export":
		err = cmdExport(args)
	case "import":
		err = cmdImport(args)
	case "explain":
		err = cmdExplain(args)
	case "monitor":
		err = cmdMonitor(args)
	case "top":
		err = cmdTop(args)
	case "debug":
		err = cmdDebug(args)
	case "snapshot":
		err = cmdSnapshot(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "ctdb: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ctdb:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: ctdb <command> [flags]

commands:
  init   -db FILE -events a,b,c         create an empty database
  gen    -db FILE -n N [-props P]       add N generated contracts (P patterns each)
  add    -db FILE -name NAME -spec LTL  register one contract
  register -db FILE -dir DIR [-workers N]
                                        bulk-register a directory of spec files
                                        (one contract per file, batch path)
  query  -db FILE -spec LTL [-mode opt|scan] [-parallel N]
         [-find-any] [-budget STEPS] [-timeout D]
         [-no-cache] [-repeat N]             evaluate a query
  show   -db FILE [-name NAME]          list contracts, or dump one automaton
  stats  -db FILE                       database and index statistics
  export -db FILE [-out FILE]           dump contracts in the corpus text format
  import -db FILE -in FILE [-workers N] bulk-register a corpus file in parallel
  explain -db FILE -name NAME -spec LTL show a witness run for a permitted query
  monitor -addr URL -stream NAME [-contracts A,B] [-after N] [-follow]
                                        tail a live stream's verdicts from ctdbd
  top    -addr URL [-n N] [-interval D] [-once]
                                        live view of the daemon's query insights
                                        log (needs ctdbd -querylog-sample)
  debug bundle -addr URL [-o FILE] [-cpu D]
                                        download a one-shot diagnostics tarball
                                        (health, metrics, query log, profiles)
  snapshot inspect [-contracts] [-top N] FILE|DATA-DIR
                                        print a snapshot's section directory`)
}

func loadDB(path string) (*core.DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.Load(f)
}

func saveDB(db *core.DB, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := db.Save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

func cmdInit(args []string) error {
	fs := flag.NewFlagSet("init", flag.ExitOnError)
	dbPath := fs.String("db", "", "database file to create")
	events := fs.String("events", "", "comma-separated event vocabulary")
	fs.Parse(args)
	if *dbPath == "" {
		return fmt.Errorf("init: -db is required")
	}
	var names []string
	if *events != "" {
		names = strings.Split(*events, ",")
	}
	voc, err := vocab.FromNames(names...)
	if err != nil {
		return err
	}
	db := core.NewDB(voc, core.Options{})
	if err := saveDB(db, *dbPath); err != nil {
		return err
	}
	fmt.Printf("created %s with %d events\n", *dbPath, voc.Len())
	return nil
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	dbPath := fs.String("db", "", "database file")
	n := fs.Int("n", 100, "number of contracts to generate")
	props := fs.Int("props", 5, "LTL pattern instances per contract")
	seed := fs.Int64("seed", time.Now().UnixNano(), "generator seed")
	fs.Parse(args)
	if *dbPath == "" {
		return fmt.Errorf("gen: -db is required")
	}
	db, err := loadDB(*dbPath)
	if err != nil {
		return err
	}
	voc := db.Vocabulary()
	if voc.Len() == 0 {
		return fmt.Errorf("gen: database vocabulary is empty; re-run init with -events")
	}
	gen := datagen.New(voc, *seed)
	start := time.Now()
	added := 0
	for added < *n {
		if _, err := db.Register("", gen.Specification(*props)); err != nil {
			continue // regenerate unsatisfiable draws
		}
		added++
	}
	fmt.Printf("registered %d contracts in %v (database now holds %d)\n",
		added, time.Since(start).Round(time.Millisecond), db.Len())
	return saveDB(db, *dbPath)
}

func cmdAdd(args []string) error {
	fs := flag.NewFlagSet("add", flag.ExitOnError)
	dbPath := fs.String("db", "", "database file")
	name := fs.String("name", "", "contract name")
	spec := fs.String("spec", "", "LTL specification")
	fs.Parse(args)
	if *dbPath == "" || *spec == "" {
		return fmt.Errorf("add: -db and -spec are required")
	}
	db, err := loadDB(*dbPath)
	if err != nil {
		return err
	}
	c, err := db.RegisterLTL(*name, *spec)
	if err != nil {
		return err
	}
	fmt.Printf("registered %s (%d automaton states, %d transitions)\n",
		c.Name, c.Automaton().NumStates(), c.Automaton().NumEdges())
	return saveDB(db, *dbPath)
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	dbPath := fs.String("db", "", "database file")
	spec := fs.String("spec", "", "LTL query")
	mode := fs.String("mode", "opt", "evaluation mode: opt (indexed) or scan (unoptimized)")
	parallel := fs.Int("parallel", 0, "worker-pool width (0 = GOMAXPROCS, 1 = sequential)")
	findAny := fs.Bool("find-any", false, "stop at the first permitting contract")
	budget := fs.Int("budget", 0, "kernel step budget per candidate check (0 = unlimited)")
	timeout := fs.Duration("timeout", 0, "abort the evaluation after this long (0 = none)")
	noCache := fs.Bool("no-cache", false, "bypass the query-compilation cache")
	repeat := fs.Int("repeat", 1, "run the query N times, reporting cold vs. warm latency")
	explain := fs.Bool("explain", false, "trace the first evaluation and print its span tree")
	fs.Parse(args)
	if *dbPath == "" || *spec == "" {
		return fmt.Errorf("query: -db and -spec are required")
	}
	db, err := loadDB(*dbPath)
	if err != nil {
		return err
	}
	q, err := ltl.Parse(*spec)
	if err != nil {
		return err
	}
	var m core.Mode
	switch *mode {
	case "opt":
		m = core.Optimized
	case "scan":
		m = core.Unoptimized
	default:
		return fmt.Errorf("query: unknown -mode %q", *mode)
	}
	m.Parallelism = *parallel
	m.FindAny = *findAny
	m.StepBudget = *budget
	m.NoCache = *noCache
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// Every run gets a request ID like the server would assign; -explain
	// traces the first (cold) run and prints its span tree.
	type runInfo struct {
		id      string
		elapsed time.Duration
		stats   core.QueryStats
	}
	var (
		runs []runInfo
		res  *core.Result
		tr   *trace.Trace
	)
	for i := 0; i < *repeat; i++ {
		id := trace.NewRequestID()
		qctx := trace.WithRequestID(ctx, id)
		var t *trace.Trace
		if *explain && i == 0 {
			qctx, t = trace.Start(qctx, *spec, id)
		}
		start := time.Now()
		r, err := db.QueryModeCtx(qctx, q, m)
		elapsed := time.Since(start)
		t.Finish()
		if err != nil {
			return err
		}
		if i == 0 {
			res, tr = r, t
		}
		runs = append(runs, runInfo{id: id, elapsed: elapsed, stats: r.Stats})
	}
	for _, c := range res.Matches {
		fmt.Println(c.Name)
	}
	fmt.Fprintf(os.Stderr, "%d/%d contracts permit the query (%d candidates after prefilter, %v, request %s)\n",
		res.Stats.Permitted, res.Stats.Total, res.Stats.Candidates,
		res.Stats.Elapsed().Round(time.Microsecond), runs[0].id)
	if tr != nil {
		fmt.Fprint(os.Stderr, tr.Pretty())
	}
	if *repeat > 1 {
		// The first run was cold (fresh process, empty compile cache);
		// the rest measure the warm path, where a compile-cache hit skips
		// translation and the prefilter and scan run again.
		fmt.Fprintf(os.Stderr, "%-4s  %-22s  %12s  %s\n",
			"run", "request-id", "elapsed", "stages")
		var warmTotal, warmMin time.Duration
		compileHits := 0
		for i, r := range runs {
			fmt.Fprintf(os.Stderr, "%-4d  %-22s  %12v  %s\n",
				i, r.id, r.elapsed.Round(time.Microsecond), stageSummary(r.stats))
			if i == 0 {
				continue
			}
			warmTotal += r.elapsed
			if warmMin == 0 || r.elapsed < warmMin {
				warmMin = r.elapsed
			}
			if r.stats.CompileHit {
				compileHits++
			}
		}
		fmt.Fprintf(os.Stderr, "repeat %d: cold %v, warm avg %v, warm min %v (%d/%d compile-cache hits)\n",
			*repeat, runs[0].elapsed.Round(time.Microsecond),
			(warmTotal / time.Duration(*repeat-1)).Round(time.Microsecond),
			warmMin.Round(time.Microsecond), compileHits, *repeat-1)
	}
	return nil
}

// stageSummary compresses a run's per-stage latencies for the -repeat
// table: translate / filter / check.
func stageSummary(st core.QueryStats) string {
	return fmt.Sprintf("t=%v f=%v c=%v",
		st.Translate.Round(time.Microsecond),
		st.Filter.Round(time.Microsecond),
		st.Check.Round(time.Microsecond))
}

func cmdShow(args []string) error {
	fs := flag.NewFlagSet("show", flag.ExitOnError)
	dbPath := fs.String("db", "", "database file")
	name := fs.String("name", "", "contract to dump (omit to list all)")
	dot := fs.Bool("dot", false, "dump the automaton in Graphviz dot format")
	fs.Parse(args)
	if *dbPath == "" {
		return fmt.Errorf("show: -db is required")
	}
	db, err := loadDB(*dbPath)
	if err != nil {
		return err
	}
	if *name == "" {
		for _, c := range db.Contracts() {
			fmt.Printf("%-20s %4d states %6d transitions  events=%s\n",
				c.Name, c.Automaton().NumStates(), c.Automaton().NumEdges(),
				c.Events().Format(db.Vocabulary()))
		}
		return nil
	}
	c, ok := db.ByName(*name)
	if !ok {
		return fmt.Errorf("show: no contract named %q", *name)
	}
	fmt.Printf("spec: %s\n", c.Spec)
	if *dot {
		fmt.Print(c.Automaton().Dot(db.Vocabulary(), c.Name))
	} else {
		fmt.Print(c.Automaton().EncodeString(db.Vocabulary()))
	}
	return nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	dbPath := fs.String("db", "", "database file")
	fs.Parse(args)
	if *dbPath == "" {
		return fmt.Errorf("stats: -db is required")
	}
	db, err := loadDB(*dbPath)
	if err != nil {
		return err
	}
	rs := db.RegistrationStats()
	states, edges := 0, 0
	for _, c := range db.Contracts() {
		states += c.Automaton().NumStates()
		edges += c.Automaton().NumEdges()
	}
	fmt.Printf("contracts:           %d\n", rs.Contracts)
	fmt.Printf("vocabulary:          %d events\n", db.Vocabulary().Len())
	fmt.Printf("automata:            %d states, %d transitions in total\n", states, edges)
	fmt.Printf("prefilter index:     %d nodes, %d KB\n", rs.IndexNodes, rs.IndexBytes/1024)
	fmt.Printf("projection subsets:  %d precomputed\n", rs.ProjectionRows)
	return nil
}
