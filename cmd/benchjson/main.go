// Command benchjson runs the headline figure benchmarks — Figure 5's
// optimized curve, Figure 6's class grid, and the FindAny ablation —
// through testing.Benchmark and emits a machine-readable JSON report:
// ns/op, bytes/op and allocs/op per bench. Committed reports
// (BENCH_PR4.json and successors) form the repo's perf trajectory, and
// CI replays the run against the committed baseline:
//
//	go run ./cmd/benchjson -out BENCH_PR4.json
//	go run ./cmd/benchjson -baseline BENCH_PR4.json
//
// The -baseline mode exits non-zero when a Fig5Optimized or
// Fig5Sharded bench's allocs/op regresses past the baseline by more
// than -tolerance (the /churn variants are excluded — their ops
// include a registration writer whose allocations are workload, not
// query cost).
// Allocation counts are deterministic across machines (unlike ns/op),
// which is what makes them enforceable in CI.
//
// The -compare mode diffs two committed reports without running
// anything, printing per-series deltas — ns/op and allocs/op per
// bench, plus the cold-start and stream-ingest wall-clock series:
//
//	go run ./cmd/benchjson -compare BENCH_PR4.json BENCH_PR7.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"contractdb/internal/benchkit"
	"contractdb/internal/datagen"
)

type result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

type report struct {
	GoVersion string   `json:"go_version"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	Results   []result `json:"results"`
	// ColdStart is a wall-clock series (recorded for the trajectory,
	// never gated — unlike allocs/op it varies across machines):
	// snapshot-load vs. batch re-registration milliseconds per corpus
	// size.
	ColdStart []benchkit.ColdStartPoint `json:"cold_start,omitempty"`
	// StreamIngest is the live-monitoring throughput series:
	// events/sec/core at N open streams across M ingest shards.
	StreamIngest []benchkit.StreamIngestPoint `json:"stream_ingest,omitempty"`
}

func main() {
	out := flag.String("out", "", "write the JSON report to this file (default stdout)")
	baseline := flag.String("baseline", "", "committed report to compare against; exit 1 on allocs/op regression")
	tolerance := flag.Float64("tolerance", 0.15, "allowed fractional allocs/op growth over -baseline")
	filter := flag.String("bench", "", "only run benchmarks whose name contains this substring")
	series := flag.Bool("series", true, "also run the cold-start and stream-ingest wall-clock series")
	compare := flag.Bool("compare", false, "diff two committed reports (old.json new.json) instead of running benchmarks")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two report files: old.json new.json")
			os.Exit(2)
		}
		if err := compareReports(flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		return
	}

	type bench struct {
		name string
		fn   func(*testing.B)
	}
	var benches []bench
	for _, size := range []int{50, 100, 200, 400, 500} {
		benches = append(benches, bench{fmt.Sprintf("Fig5Optimized/contracts=%d", size), benchkit.Fig5Optimized(size)})
	}
	for _, shards := range []int{1, 2, 4, 8} {
		benches = append(benches, bench{fmt.Sprintf("Fig5Sharded/shards=%d", shards), benchkit.Fig5Sharded(500, shards)})
	}
	for _, shards := range []int{1, 4} {
		// Churn benches time a query with a fixed batch of
		// register/unregister pairs concurrently in flight; the writer's
		// translation allocations land in the op, so these are reported
		// for the trajectory but excluded from the allocs gate.
		benches = append(benches, bench{fmt.Sprintf("Fig5Sharded/shards=%d/churn", shards), benchkit.RegisterChurn(500, shards)})
	}
	for _, cc := range datagen.ContractClasses() {
		for _, qc := range datagen.QueryClasses() {
			benches = append(benches, bench{fmt.Sprintf("Fig6/%s/%s", cc.Name, qc.Name), benchkit.Fig6(cc, qc)})
		}
	}
	benches = append(benches,
		bench{"FindAny/find-all", benchkit.FindAny(false)},
		bench{"FindAny/find-any", benchkit.FindAny(true)},
	)

	rep := report{GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
	for _, bm := range benches {
		if *filter != "" && !strings.Contains(bm.name, *filter) {
			continue
		}
		r := testing.Benchmark(bm.fn)
		if r.N == 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %s failed to run\n", bm.name)
			os.Exit(1)
		}
		res := result{
			Name:        bm.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		rep.Results = append(rep.Results, res)
		fmt.Fprintf(os.Stderr, "%-40s %10d ns/op %10d B/op %8d allocs/op\n",
			bm.name, int64(res.NsPerOp), res.BytesPerOp, res.AllocsPerOp)
	}

	if *series && *filter == "" {
		for _, size := range []int{100, 500, 1000} {
			p, err := benchkit.ColdStart(size)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
				os.Exit(1)
			}
			rep.ColdStart = append(rep.ColdStart, p)
			fmt.Fprintf(os.Stderr, "ColdStart/contracts=%-5d register %9.1f ms  load %7.1f ms (%.1fx)\n",
				p.Contracts, p.RegisterMS, p.LoadMS, p.Speedup)
		}
		// Stream-ingest series: fewer events per stream at the larger
		// stream counts, so every point pushes a comparable total.
		for _, streams := range []int{1000, 10000, 100000} {
			for _, shards := range []int{1, 4} {
				eventsPerStream := 800000 / streams
				p, err := benchkit.StreamIngest(streams, shards, eventsPerStream)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
					os.Exit(1)
				}
				rep.StreamIngest = append(rep.StreamIngest, p)
				fmt.Fprintf(os.Stderr, "StreamIngest/streams=%-6d shards=%d  %12.0f events/s  %10.0f events/s/core\n",
					p.Streams, p.Shards, p.EventsPerSec, p.EventsPerSecCore)
			}
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
	} else {
		os.Stdout.Write(data)
	}

	if *baseline != "" {
		if err := checkBaseline(rep, *baseline, *tolerance); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "benchjson: allocs/op within baseline tolerance")
	}
}

// checkBaseline enforces the allocation budget: every Fig5Optimized
// and Fig5Sharded bench present in both reports — churn variants
// aside — must not exceed the baseline's allocs/op by more than the
// tolerance (plus a small absolute slack so tiny counts don't flake).
func checkBaseline(cur report, path string, tol float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	byName := make(map[string]result, len(base.Results))
	for _, r := range base.Results {
		byName[r.Name] = r
	}
	checked := 0
	for _, r := range cur.Results {
		if !strings.HasPrefix(r.Name, "Fig5Optimized") && !strings.HasPrefix(r.Name, "Fig5Sharded") {
			continue
		}
		if strings.HasSuffix(r.Name, "/churn") {
			continue
		}
		b, ok := byName[r.Name]
		if !ok {
			continue
		}
		checked++
		limit := float64(b.AllocsPerOp)*(1+tol) + 16
		if float64(r.AllocsPerOp) > limit {
			return fmt.Errorf("%s: %d allocs/op exceeds baseline %d (limit %.0f)",
				r.Name, r.AllocsPerOp, b.AllocsPerOp, limit)
		}
	}
	if checked == 0 {
		return fmt.Errorf("no Fig5Optimized/Fig5Sharded benches matched %s; baseline check is vacuous", path)
	}
	return nil
}

// compareReports prints per-series deltas between two committed
// reports: each bench's ns/op and allocs/op change, then the
// wall-clock series. Benches present in only one report are listed so
// a rename or removal never passes silently.
func compareReports(oldPath, newPath string) error {
	load := func(path string) (report, error) {
		var r report
		data, err := os.ReadFile(path)
		if err != nil {
			return r, err
		}
		if err := json.Unmarshal(data, &r); err != nil {
			return r, fmt.Errorf("parsing %s: %w", path, err)
		}
		return r, nil
	}
	old, err := load(oldPath)
	if err != nil {
		return err
	}
	cur, err := load(newPath)
	if err != nil {
		return err
	}
	fmt.Printf("benchjson compare: %s (%s) -> %s (%s)\n\n",
		oldPath, old.GoVersion, newPath, cur.GoVersion)

	pct := func(oldV, newV float64) string {
		if oldV == 0 {
			if newV == 0 {
				return "   ±0.0%"
			}
			return "     new"
		}
		return fmt.Sprintf("%+7.1f%%", (newV-oldV)/oldV*100)
	}

	oldBy := make(map[string]result, len(old.Results))
	for _, r := range old.Results {
		oldBy[r.Name] = r
	}
	fmt.Printf("%-40s %12s %12s %8s   %8s %8s %8s\n",
		"bench", "old ns/op", "new ns/op", "delta", "old al/op", "new", "delta")
	seen := make(map[string]bool, len(cur.Results))
	for _, r := range cur.Results {
		seen[r.Name] = true
		o, ok := oldBy[r.Name]
		if !ok {
			fmt.Printf("%-40s %12s %12.0f %8s   %8s %8d %8s\n",
				r.Name, "-", r.NsPerOp, "new", "-", r.AllocsPerOp, "new")
			continue
		}
		fmt.Printf("%-40s %12.0f %12.0f %8s   %8d %8d %8s\n",
			r.Name, o.NsPerOp, r.NsPerOp, pct(o.NsPerOp, r.NsPerOp),
			o.AllocsPerOp, r.AllocsPerOp, pct(float64(o.AllocsPerOp), float64(r.AllocsPerOp)))
	}
	for _, r := range old.Results {
		if !seen[r.Name] {
			fmt.Printf("%-40s %12.0f %12s %8s\n", r.Name, r.NsPerOp, "-", "gone")
		}
	}

	// The wall-clock series match on their parameter tuples.
	if len(old.ColdStart) > 0 || len(cur.ColdStart) > 0 {
		oldCS := make(map[int]benchkit.ColdStartPoint, len(old.ColdStart))
		for _, p := range old.ColdStart {
			oldCS[p.Contracts] = p
		}
		fmt.Println()
		for _, p := range cur.ColdStart {
			o, ok := oldCS[p.Contracts]
			if !ok {
				fmt.Printf("ColdStart/contracts=%-5d load %7.1f ms (new point)\n", p.Contracts, p.LoadMS)
				continue
			}
			fmt.Printf("ColdStart/contracts=%-5d load %7.1f -> %7.1f ms %s   snapshot %d -> %d bytes\n",
				p.Contracts, o.LoadMS, p.LoadMS, pct(o.LoadMS, p.LoadMS), o.SnapshotBytes, p.SnapshotBytes)
		}
	}
	if len(old.StreamIngest) > 0 || len(cur.StreamIngest) > 0 {
		type key struct{ streams, shards int }
		oldSI := make(map[key]benchkit.StreamIngestPoint, len(old.StreamIngest))
		for _, p := range old.StreamIngest {
			oldSI[key{p.Streams, p.Shards}] = p
		}
		fmt.Println()
		for _, p := range cur.StreamIngest {
			o, ok := oldSI[key{p.Streams, p.Shards}]
			if !ok {
				fmt.Printf("StreamIngest/streams=%-6d shards=%d %10.0f events/s/core (new point)\n",
					p.Streams, p.Shards, p.EventsPerSecCore)
				continue
			}
			fmt.Printf("StreamIngest/streams=%-6d shards=%d %10.0f -> %10.0f events/s/core %s\n",
				p.Streams, p.Shards, o.EventsPerSecCore, p.EventsPerSecCore, pct(o.EventsPerSecCore, p.EventsPerSecCore))
		}
	}
	return nil
}
