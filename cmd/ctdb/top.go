package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"contractdb/internal/server"
)

// cmdTop is the live workload view: it polls a running ctdbd's query
// insights log (GET /v1/querylog) and aggregate metrics, and redraws a
// top-style table of the most recent queries — verdict, cache tier,
// latency, prefilter selectivity, request ID — every interval. Requires
// the daemon to run with the insights log enabled (-querylog-sample).
func cmdTop(args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:8080", "ctdbd base URL")
	n := fs.Int("n", 20, "number of recent queries to show")
	interval := fs.Duration("interval", 2*time.Second, "refresh interval")
	once := fs.Bool("once", false, "print one snapshot and exit")
	fs.Parse(args)
	client := server.NewClient(*addr, nil)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	var lastQueries int64
	var lastAt time.Time
	for {
		entries, err := client.QueryLog(*n)
		if err != nil {
			return err
		}
		m, err := client.Metrics()
		if err != nil {
			return err
		}

		// Instantaneous qps from the delta between polls; the first
		// frame has no baseline and shows the lifetime counter instead.
		now := time.Now()
		rate := ""
		if !lastAt.IsZero() && now.After(lastAt) {
			qps := float64(m.Queries.Queries-lastQueries) / now.Sub(lastAt).Seconds()
			rate = fmt.Sprintf("  %.1f q/s", qps)
		}
		lastQueries, lastAt = m.Queries.Queries, now

		var b strings.Builder
		if !*once {
			b.WriteString("\x1b[2J\x1b[H") // clear screen, home cursor
		}
		fmt.Fprintf(&b, "ctdb top — %s  contracts=%d  queries=%d (%d errored)%s  up %s\n",
			*addr, m.Contracts, m.Queries.Queries, m.Queries.Errored, rate,
			(time.Duration(m.UptimeSeconds) * time.Second).String())
		fmt.Fprintf(&b, "%-6s %-8s %-9s %10s %6s %12s %-34s %s\n",
			"seq", "verdict", "cache", "dur", "match", "cand/corpus", "query", "request")
		for _, e := range entries {
			verdict := e.Verdict
			if e.Slow {
				verdict += "!"
			}
			q := e.Query
			if len(q) > 32 {
				q = q[:31] + "…"
			}
			rid := e.RequestID
			if rid == "" {
				rid = "-"
			}
			fmt.Fprintf(&b, "%-6d %-8s %-9s %10s %6d %5d/%-6d %-34s %s\n",
				e.Seq, verdict, e.CacheTier,
				(time.Duration(e.DurUS) * time.Microsecond).String(),
				e.Matches, e.Candidates, e.Corpus, q, rid)
		}
		if len(entries) == 0 {
			b.WriteString("(no entries — is the daemon running with -querylog-sample?)\n")
		}
		os.Stdout.WriteString(b.String())

		if *once {
			return nil
		}
		select {
		case <-stop:
			return nil
		case <-time.After(*interval):
		}
	}
}

// cmdDebug handles `ctdb debug bundle`: download a one-shot
// diagnostics tarball (metrics, query log, profiles, health,
// build info) from a running daemon and write it to disk.
func cmdDebug(args []string) error {
	if len(args) < 1 || args[0] != "bundle" {
		return fmt.Errorf("debug: usage: ctdb debug bundle -addr URL [-o FILE] [-cpu DURATION]")
	}
	fs := flag.NewFlagSet("debug bundle", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:8080", "ctdbd base URL")
	out := fs.String("o", "", "output file (default ctdb-debug-<timestamp>.tar.gz)")
	cpu := fs.Duration("cpu", 0, "also capture a CPU profile of this duration (max 30s)")
	fs.Parse(args[1:])
	client := server.NewClient(*addr, nil)

	data, err := client.DebugBundle(*cpu)
	if err != nil {
		return err
	}
	path := *out
	if path == "" {
		path = fmt.Sprintf("ctdb-debug-%s.tar.gz", time.Now().UTC().Format("20060102T150405Z"))
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d KB)\n", path, (len(data)+1023)/1024)
	return nil
}
