// Command ctdbd serves a contract database over HTTP — the online
// broker deployment of the paper's system.
//
// It keeps its data in a directory; every registration and removal is
// written to a write-ahead log before it is acknowledged, checkpoints
// fold the log into snapshots in the background, and a crashed broker
// recovers to exactly the acknowledged state on restart:
//
//	ctdbd -data-dir /var/lib/ctdb -addr :8080 [-fsync always] [-events p1,p2,...]
//
// One core.DB serves every registration and query; find-all matches
// come back in contract-name order. -shards is accepted and ignored
// (e2ebench still passes it): nothing persisted names a shard count,
// so a -data-dir written under any -shards value reopens unchanged.
//
// The daemon also serves live compliance monitoring under /v1/streams
// (-stream-shards ingest workers, 0 disables): clients open named
// streams attached to registered contracts, push event snapshots, and
// long-poll or SSE-subscribe for verdict transitions. With -data-dir
// the stream journal lives in DIR/streams and verdict state survives
// crashes.
//
// Example session:
//
//	curl -s localhost:8080/v1/health
//	curl -s -X POST localhost:8080/v1/contracts \
//	     -d '{"name":"NoRefunds","spec":"G(!refund)"}'
//	curl -s -X POST localhost:8080/v1/query -d '{"spec":"F refund"}'
//	curl -s -X POST localhost:8080/v1/checkpoint
//	curl -s -X DELETE localhost:8080/v1/contracts/NoRefunds
//
// SIGINT or SIGTERM shuts down gracefully: in-flight requests drain,
// the store takes a final checkpoint, and the process logs "clean
// shutdown" — the next start then recovers with zero replay.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux, served only under -pprof-addr
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"contractdb/internal/insights"
	"contractdb/internal/metrics"
	"contractdb/internal/server"
	"contractdb/internal/store"
	"contractdb/internal/stream"
	"contractdb/internal/wal"
)

func main() {
	dataDir := flag.String("data-dir", "", "durable data directory: write-ahead log + snapshots (required)")
	addr := flag.String("addr", ":8080", "listen address")
	events := flag.String("events", "", "comma-separated vocabulary for a fresh database")
	fsync := flag.String("fsync", "always", "WAL fsync policy: always | interval | never")
	fsyncInterval := flag.Duration("fsync-interval", wal.DefaultSyncInterval, "flush period under -fsync interval")
	checkpointEvery := flag.Int("checkpoint-every", store.DefaultCheckpointRecords, "auto-checkpoint after this many logged operations (negative disables)")
	shards := flag.Int("shards", 0, "ignored: one engine serves every query (accepted so older command lines still start)")
	streamShards := flag.Int("stream-shards", 1, "ingest workers for the live stream-monitoring subsystem (0 disables /v1/streams)")
	streamQueue := flag.Int("stream-queue", 0, "pending event batches per stream-ingest shard before pushes block (0 = default)")
	parallelism := flag.Int("parallelism", 0, "query worker-pool width (0 = GOMAXPROCS, 1 = sequential)")
	queryTimeout := flag.Duration("query-timeout", 0, "server-side deadline per query evaluation (0 = none)")
	stepBudget := flag.Int("step-budget", 0, "default kernel step budget per candidate check (0 = unlimited)")
	shutdownTimeout := flag.Duration("shutdown-timeout", 10*time.Second, "grace period for in-flight requests on SIGINT/SIGTERM")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = disabled)")
	slowQuery := flag.Duration("slow-query", 0, "log queries at least this slow as \"slow query\" and always keep them in the insights log (0 = disabled)")
	querylogSample := flag.Int("querylog-sample", 0, "record every Nth query in the insights log (1 = all, 0 = disabled; failed queries and those at least -slow-query slow are always recorded while enabled)")
	logFormat := flag.String("log-format", "text", "request/slow-query log format: text | json")
	flag.Parse()

	if *dataDir == "" {
		fmt.Fprintln(os.Stderr, "ctdbd: -data-dir is required")
		os.Exit(2)
	}

	logger, err := newLogger(*logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ctdbd: %v\n", err)
		os.Exit(2)
	}
	policy, err := wal.ParseSyncPolicy(*fsync)
	if err != nil {
		log.Fatalf("ctdbd: %v", err)
	}
	if *shards != 0 {
		log.Printf("ctdbd: -shards %d ignored: one engine serves every query", *shards)
	}
	st, err := openStore(*dataDir, *events, policy, *fsyncInterval, *checkpointEvery)
	if err != nil {
		log.Fatalf("ctdbd: %v", err)
	}
	db := st.DB()

	if *parallelism > 0 {
		db.SetParallelism(*parallelism)
	}

	srv := server.New(db)
	srv.QueryTimeout = *queryTimeout
	srv.StepBudget = *stepBudget
	srv.Logger = logger
	srv.SlowQuery = *slowQuery
	if *querylogSample > 0 {
		srv.Insights = insights.New(*querylogSample)
	}
	srv.Checkpoint = st.Checkpoint
	srv.Durability = st.Metrics()
	srv.Recovery = recoveryState(st.Recovery)

	var broker *stream.Broker
	if *streamShards > 0 {
		// Streams journal beside the contract store, with the same
		// fsync policy.
		broker, err = stream.New(db, stream.Config{
			Shards:            *streamShards,
			QueueDepth:        *streamQueue,
			Dir:               filepath.Join(*dataDir, "streams"),
			Sync:              policy,
			SyncInterval:      *fsyncInterval,
			CheckpointRecords: *checkpointEvery,
			Logf:              log.Printf,
		})
		if err != nil {
			log.Fatalf("ctdbd: streams: %v", err)
		}
		srv.Streams = broker
		if rec := broker.Recovery; rec.Clean {
			log.Printf("ctdbd: streams: recovered %d streams clean (%d shards) in %s",
				rec.Streams, *streamShards, rec.Duration)
		} else {
			log.Printf("ctdbd: streams: recovered %d streams (%d shards; snapshot %s + %d replayed records) in %s",
				rec.Streams, *streamShards, orFresh(rec.SnapshotPath), rec.ReplayedRecords, rec.Duration)
		}
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *pprofAddr != "" {
		// The profiling server is separate from the API listener so
		// pprof is never exposed on the public address by accident. It
		// uses http.DefaultServeMux, which importing net/http/pprof
		// populates.
		go func() {
			log.Printf("ctdbd: pprof on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("ctdbd: pprof server: %v", err)
			}
		}()
	}

	errC := make(chan error, 1)
	go func() { errC <- httpSrv.ListenAndServe() }()
	log.Printf("ctdbd: serving %d contracts on %s", db.Len(), *addr)

	select {
	case err := <-errC:
		log.Fatalf("ctdbd: %v", err)
	case <-ctx.Done():
	}
	stop() // a second signal now kills the process the default way
	log.Printf("ctdbd: signal received, draining requests")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("ctdbd: http shutdown: %v", err)
	}
	if broker != nil {
		if err := broker.Close(); err != nil {
			log.Printf("ctdbd: closing streams: %v", err)
		}
	}
	if err := st.Close(); err != nil {
		log.Fatalf("ctdbd: closing store: %v", err)
	}
	log.Printf("ctdbd: clean shutdown")
}

// newLogger builds the structured logger behind the request and
// slow-query logs.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}

// recoveryState converts the store's recovery report to the server's
// wire shape for /v1/health.
func recoveryState(r store.RecoveryInfo) *server.RecoveryState {
	return &server.RecoveryState{
		Clean:             r.Clean,
		SnapshotSeq:       r.SnapshotSeq,
		SnapshotPath:      r.SnapshotPath,
		SkippedSnapshots:  r.SkippedSnapshots,
		ReplayedRecords:   r.ReplayedRecords,
		TruncatedBytes:    r.TruncatedBytes,
		DurationUS:        r.Duration.Microseconds(),
		SnapshotFormat:    r.SnapshotFormat,
		SnapshotDecodeUS:  r.SnapshotDecode.Microseconds(),
		ArtifactRestoreUS: r.ArtifactRestore.Microseconds(),
		WALReplayUS:       r.WALReplay.Microseconds(),
		CompiledAdopted:   r.CompiledAdopted,
		MappedBytes:       r.MappedBytes,
		CopiedBytes:       r.CopiedBytes,
		Sections:          r.Sections,
		MmapFallback:      r.MmapFallback,
	}
}

func openStore(dir, events string, policy wal.SyncPolicy, fsyncInterval time.Duration, checkpointEvery int) (*store.Store, error) {
	var names []string
	if events != "" {
		names = strings.Split(events, ",")
	}
	st, err := store.Open(dir, store.Config{
		Events:            names,
		Sync:              policy,
		SyncInterval:      fsyncInterval,
		CheckpointRecords: checkpointEvery,
		Metrics:           &metrics.Durability{},
		Logf:              log.Printf,
	})
	if err != nil {
		return nil, err
	}
	n := st.DB().Len()
	r := st.Recovery
	switch {
	case r.Clean:
		log.Printf("ctdbd: recovered %s clean: %d contracts from %s in %s",
			dir, n, orFresh(r.SnapshotPath), r.Duration)
	default:
		log.Printf("ctdbd: recovered %s: %d contracts (snapshot %s + %d replayed ops, %d torn bytes truncated, %d snapshots skipped) in %s",
			dir, n, orFresh(r.SnapshotPath), r.ReplayedRecords, r.TruncatedBytes, len(r.SkippedSnapshots), r.Duration)
	}
	if r.SnapshotPath != "" || r.ReplayedRecords > 0 {
		log.Printf("ctdbd: cold start breakdown: snapshot decode %dms, artifact restore %dms, WAL replay %dms (format v%d, %d compiled automata adopted)",
			r.SnapshotDecode.Milliseconds(), r.ArtifactRestore.Milliseconds(), r.WALReplay.Milliseconds(),
			r.SnapshotFormat, r.CompiledAdopted)
	}
	switch {
	case r.MappedBytes > 0:
		log.Printf("ctdbd: snapshot load: %d slab bytes mapped zero-copy, %d bytes copied to heap (%d sections)",
			r.MappedBytes, r.CopiedBytes, r.Sections)
	case r.MmapFallback != "" && r.SnapshotPath != "":
		log.Printf("ctdbd: snapshot load: read into heap (%s), %d bytes copied", r.MmapFallback, r.CopiedBytes)
	}
	return st, nil
}

func orFresh(path string) string {
	if path == "" {
		return "<fresh>"
	}
	return path
}
