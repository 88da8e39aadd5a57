// Command e2ebench is contractdb's end-to-end benchmark: it boots a
// real ctdbd on a fresh data directory, drives one of three fixed
// workload scripts over loopback HTTP, checks the answers, and prints
// every metric by name with its unit. With -trace 1 it also replays
// the same script in-process and attributes the time to each layer.
//
// Run it through run.sh from the repository root, which builds ctdbd
// and this command from source:
//
//	bash e2ebench/run.sh --workload query_cold --seed 1 --seconds 12 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":..., "attempted":..., "failed":..., "metrics": {...}}.
// See README.md for the workloads, metrics and set-up sequence.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

func main() {
	workload := flag.String("workload", "", "query_cold | churn_mixed | stream_monitor")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "run length: sizes the fixed script")
	traced := flag.Int("trace", 0, "1 = print the per-layer metrics of a traced replay instead of the end-to-end metrics")
	bin := flag.String("ctdbd", "", "ctdbd binary built from the tree under test")
	work := flag.String("work", "", "working directory for data dirs and logs (emptied first)")
	flag.Parse()
	if !slices.Contains(workloadNames, *workload) || *bin == "" || *work == "" || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: e2ebench -workload query_cold|churn_mixed|stream_monitor -seed N -seconds S -trace 0|1 -ctdbd BIN -work DIR")
		os.Exit(2)
	}
	res, err := run(*workload, *seed, sizesFor(*seconds), *traced == 1, *bin, *work)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the final JSON line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

func run(workload string, seed int64, sz sizes, traced bool, bin, work string) (*Result, error) {
	abs, err := filepath.Abs(bin)
	if err != nil {
		return nil, err
	}
	bin = abs
	if err := os.RemoveAll(work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	s, err := Build(workload, seed, sz)
	if err != nil {
		return nil, fmt.Errorf("build script: %w", err)
	}
	printHeader(s, bin, work)

	setupCopy := ""
	if traced {
		setupCopy = filepath.Join(work, "setup-copy")
	}
	o, err := runDaemon(bin, work, s, setupCopy)
	if err != nil {
		return nil, err
	}
	switch s.Workload {
	case "stream_monitor":
		err = checkStreams(s, o)
	default:
		err = checkAnswers(s, o)
	}
	if err != nil {
		return nil, err
	}
	fmt.Print("set-ups:")
	for _, d := range o.setups {
		fmt.Printf(" %.3fs", d.Seconds())
	}
	fmt.Print("; the last one's breakdown:")
	for _, p := range o.phases {
		fmt.Printf(" %s %.3fs", p.name, p.dur.Seconds())
	}
	fmt.Println()
	e2e := endToEnd(s, o)
	printMetrics("end-to-end (untraced daemon run)", e2e)
	printDetails(o)
	for _, p := range o.problems {
		fmt.Println("failure:", p)
	}
	res := &Result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: e2e}
	if !traced {
		return res, nil
	}
	layers, err := replay(s, o, setupCopy, filepath.Join(work, "replay"))
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	printMetrics("per-layer (daemon counts + traced in-process replay)", layers)
	res.Metrics = layers
	return res, nil
}

// endToEnd derives the end-to-end metrics. p50_ms and p90_ms are the
// latency of the workload's foreground operation: a query on
// query_cold and churn_mixed, an event-batch push on stream_monitor.
// The tail metric is p90, not p99: about 1% of pushes overlap a
// background fsync of the host's shared disk, which made the push p99
// track the disk (spread 0.33 over ten seeds). The report prints p99.
func endToEnd(s *Script, o *outcome) map[string]Metric {
	fg := o.queries
	if s.Workload == "stream_monitor" {
		fg = o.pushes
	}
	return map[string]Metric{
		"setup_s":     {o.setup.Seconds(), "s"},
		"ops_s":       {float64(o.ops()) / o.window.Seconds(), "1/s"},
		"p50_ms":      {ms(quantile(fg, .50)), "ms"},
		"p90_ms":      {ms(quantile(fg, .90)), "ms"},
		"rss_peak_mb": {o.rssMB, "MB"},
		"disk_mb":     {o.diskMB, "MB"},
	}
}

// quantile is the nearest-rank q-quantile of ds.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func printHeader(s *Script, bin, work string) {
	fmt.Printf("e2ebench workload=%s seed=%d\n", s.Workload, s.Seed)
	fmt.Printf("  commit: %s\n", commitOf())
	fmt.Printf("  go: %s  cpu: %s  nproc: %d\n", runtime.Version(), cpuModel(), runtime.NumCPU())
	fmt.Printf("  GOMAXPROCS: client %d, daemon %s\n", runtime.GOMAXPROCS(0), daemonGOMAXPROCS())
	fmt.Printf("  fsync: %s  data-dir fs: %s\n", fsyncPolicy(s.Workload), fsType(work))
	fmt.Printf("  daemon flags: %v (plus -data-dir -addr -events)\n", daemonFlags[s.Workload])
	fmt.Printf("  script: %d contracts, %d queries, %d churn specs, %d streams, %d pushes (%d in the warm-up)\n",
		len(s.Corpus), len(s.Queries), len(s.Churn), len(s.Streams), len(s.Pushes), s.Warm)
	fmt.Printf("  input digest: sha256:%s\n", s.Digest())
}

// printDetails reports the workload-specific figures that are not
// end-to-end metrics of every workload.
func printDetails(o *outcome) {
	fmt.Printf("details: window %.3fs, ops %d, fail_ratio %.4f (%d/%d), daemon GC cycles %d\n",
		o.window.Seconds(), o.ops(), float64(o.failed)/float64(max(o.attempted, 1)), o.failed, o.attempted, o.gcs)
	if len(o.queries) > 0 {
		fmt.Printf("  queries %d: p50 %.3fms p90 %.3fms p99 %.3fms max %.3fms\n", len(o.queries),
			ms(quantile(o.queries, .5)), ms(quantile(o.queries, .9)), ms(quantile(o.queries, .99)), ms(quantile(o.queries, 1)))
	}
	if len(o.registers) > 0 {
		fmt.Printf("  registers %d: p50 %.3fms p90 %.3fms max %.3fms; unregisters p50 %.3fms p90 %.3fms\n", len(o.registers),
			ms(quantile(o.registers, .5)), ms(quantile(o.registers, .9)), ms(quantile(o.registers, 1)),
			ms(quantile(o.unregs, .5)), ms(quantile(o.unregs, .9)))
	}
	if len(o.pushes) > 0 {
		fmt.Printf("  pushes %d: p50 %.3fms p90 %.3fms p99 %.3fms; events_s %.0f\n", len(o.pushes),
			ms(quantile(o.pushes, .5)), ms(quantile(o.pushes, .9)), ms(quantile(o.pushes, .99)), float64(o.events)/o.window.Seconds())
	}
}

func printMetrics(title string, m map[string]Metric) {
	fmt.Println(title + ":")
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		fmt.Printf("  %-32s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}
