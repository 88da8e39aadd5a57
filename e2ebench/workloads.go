package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"contractdb/internal/server"
	"contractdb/internal/store"
	"contractdb/internal/stream"
	"contractdb/internal/wal"
)

// daemonFlags are each workload's ctdbd flags beyond -data-dir, -addr
// and -events. stream_monitor runs its journal with -fsync interval:
// with the default -fsync always every push waits on an fsync of the
// shared disk, and its figures tracked the disk rather than the code.
// It also checkpoints every 8192 records, not every 1024: a clean
// shutdown keeps the journal records since the previous checkpoint,
// and with 1024 whether the last one fell just before the script's end
// or just after it depended on timing, so disk_mb read 1.6 MB on most
// runs and 2.05 MB on one in five.
var daemonFlags = map[string][]string{
	"query_cold":     {},
	"churn_mixed":    {"-shards", "2", "-checkpoint-every", strconv.Itoa(checkpointRecords("churn_mixed"))},
	"stream_monitor": {"-stream-shards", "2", "-fsync", "interval", "-checkpoint-every", strconv.Itoa(checkpointRecords("stream_monitor"))},
}

// checkpointRecords is a workload's -checkpoint-every, which the store
// and the stream journal both follow.
func checkpointRecords(workload string) int {
	switch workload {
	case "churn_mixed":
		return 64
	case "stream_monitor":
		return 8192
	}
	return store.DefaultCheckpointRecords
}

// fsyncPolicy is the WAL fsync policy a workload's daemon runs with.
func fsyncPolicy(workload string) wal.SyncPolicy {
	if workload == "stream_monitor" {
		return wal.SyncInterval
	}
	return wal.SyncAlways
}

var workloadNames = []string{"query_cold", "churn_mixed", "stream_monitor"}

// outcome is what one untraced daemon run observed.
type outcome struct {
	setups []time.Duration // every set-up of the run
	setup  time.Duration   // their median
	phases []phase         // the last set-up's breakdown
	window time.Duration

	queries   []time.Duration // client latency per query
	serverUS  []int64         // elapsed_us the daemon reported per query
	registers []time.Duration
	unregs    []time.Duration
	pushes    []time.Duration
	events    int64     // instants applied (stream_monitor)
	t0        time.Time // opens the window

	attempted int
	failed    int
	problems  []string // first few failure descriptions

	answers map[int][]string // query index → matches, for the answer check
	streams []stream.Info    // final stream states (stream_monitor)

	before  server.MetricsResponse // daemon counters when the window opens
	metrics server.MetricsResponse // and when it closes
	gcs     int64                  // daemon GC cycles in the window
	health  server.HealthResponse
	rssMB   float64
	diskMB  float64
}

func (o *outcome) ops() int {
	return len(o.queries) + len(o.registers) + len(o.unregs) + len(o.pushes)
}

// fail counts one failed operation; the first few are kept for the
// report.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 5 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// phase is one timed step of the set-up.
type phase struct {
	name string
	dur  time.Duration
}

// setupRuns is how many times a run sets its daemon up; setup_s is the
// median, and the last set-up serves the timed script. A stream_monitor
// set-up takes about 1.5 s, short enough for one burst of outside load
// to move it; query_cold and churn_mixed register and checkpoint the
// uncapped corpus, 13–17 s a set-up, which averages such bursts out
// and is too long to repeat within the benchmark's time budget.
var setupRuns = map[string]int{"query_cold": 1, "churn_mixed": 1, "stream_monitor": 3}

// runDaemon performs one untraced run: set-up, the timed script, the
// end-of-run counters, a clean shutdown, and the answer checks. When
// setupCopy is non-empty the checkpointed set-up directory is copied
// there (between the two launches) for the traced replay.
func runDaemon(bin, work string, s *Script, setupCopy string) (*outcome, error) {
	o := &outcome{answers: map[int][]string{}}
	dataDir := filepath.Join(work, "data")
	logPath := filepath.Join(work, "ctdbd.log")
	var d *daemon
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	for rep := setupRuns[s.Workload]; rep > 0; rep-- {
		if d != nil {
			// An earlier set-up: measured, then discarded.
			err := d.stop()
			d = nil
			if err != nil {
				return nil, err
			}
			if err := os.RemoveAll(dataDir); err != nil {
				return nil, err
			}
		}
		copyTo := ""
		if rep == 1 {
			copyTo = setupCopy
		}
		start := time.Now()
		var err error
		if d, o.phases, err = setUp(bin, dataDir, logPath, s, copyTo); err != nil {
			return nil, err
		}
		o.setups = append(o.setups, time.Since(start))
	}
	o.setup = quantile(o.setups, .5)
	var err error
	if o.before, err = d.client().Metrics(); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	gc0, err := gcCycles(d.client())
	if err != nil {
		return nil, err
	}

	o.t0 = time.Now()
	switch s.Workload {
	case "query_cold":
		queryCold(d, s, o)
	case "churn_mixed":
		churnMixed(d, s, o)
	case "stream_monitor":
		if err := streamMonitor(d, s, o); err != nil {
			return nil, err
		}
	}
	o.window = time.Since(o.t0)

	c := d.client()
	if o.metrics, err = c.Metrics(); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	if o.health, err = c.Health(); err != nil {
		return nil, fmt.Errorf("health: %w", err)
	}
	gc1, err := gcCycles(c)
	if err != nil {
		return nil, err
	}
	o.gcs = gc1 - gc0
	if o.rssMB, err = d.peakRSSMB(); err != nil {
		return nil, err
	}
	if s.Workload == "churn_mixed" {
		// The reader's in-window answers race the writer; the check asks
		// a fixed sample again against the writer's final contract set.
		for _, i := range answerSample(len(s.Queries)) {
			o.attempted++
			resp, err := c.QueryRequest(server.QueryRequest{Spec: s.Queries[i]})
			if err != nil {
				o.fail("final query %d: %v", i, err)
				continue
			}
			o.answers[i] = resp.Matches
		}
	}
	err = d.stop()
	d = nil
	if err != nil {
		return nil, err
	}
	if o.diskMB, err = dirMB(dataDir); err != nil {
		return nil, err
	}
	return o, nil
}

// setUp runs the set-up sequence on an empty dataDir and returns the
// relaunched, warmed-up daemon and the timed steps. When copyTo is
// non-empty the checkpointed directory is copied there between the two
// launches, for the traced replay (which does not report setup_s).
func setUp(bin, dataDir, logPath string, s *Script, copyTo string) (*daemon, []phase, error) {
	var phases []phase
	mark := time.Now()
	step := func(name string) {
		now := time.Now()
		phases = append(phases, phase{name, now.Sub(mark)})
		mark = now
	}
	flags := daemonFlags[s.Workload]
	d, err := startDaemon(bin, dataDir, logPath, s.Events, flags)
	if err != nil {
		return nil, nil, err
	}
	step("launch")
	if err := populate(d, s, step); err != nil {
		d.kill()
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	if err := d.stop(); err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	step("shutdown")
	if copyTo != "" {
		if err := copyDir(dataDir, copyTo); err != nil {
			return nil, nil, err
		}
	}
	if d, err = startDaemon(bin, dataDir, logPath, s.Events, flags); err != nil {
		return nil, nil, fmt.Errorf("relaunch: %w", err)
	}
	step("relaunch")
	if err := warmUp(d, s); err != nil {
		d.kill()
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	runtime.GC()
	step("warm-up")
	return d, phases, nil
}

// populate is set-up steps 2 and 3: bulk registration with 2 workers,
// the streams (stream_monitor), and a checkpoint.
func populate(d *daemon, s *Script, step func(string)) error {
	c := d.client()
	specs := s.Corpus
	if s.Workload == "churn_mixed" {
		specs = append(append([]Spec(nil), specs...), s.Churn[:s.Depth]...)
	}
	req := make([]server.RegisterRequest, len(specs))
	for i, sp := range specs {
		req[i] = server.RegisterRequest{Name: sp.Name, Spec: sp.Text}
	}
	resp, err := c.RegisterBulk(req, 2)
	if err != nil {
		return err
	}
	if resp.Failed != 0 {
		for _, r := range resp.Results {
			if r.Error != "" {
				return fmt.Errorf("bulk registration: %d failed, first: %s", resp.Failed, r.Error)
			}
		}
	}
	step("register")
	if err := parallel(d, 2, len(s.Streams), func(c *server.Client, i int) error {
		_, err := c.CreateStream(s.Streams[i].Name, s.Streams[i].Contracts)
		return err
	}); err != nil {
		return err
	}
	step("streams")
	_, err = c.Checkpoint()
	step("checkpoint")
	return err
}

// parallel runs fn(i) for i in [0,n) on `conns` connections to d.
func parallel(d *daemon, conns, n int, fn func(c *server.Client, i int) error) error {
	var next atomic.Int64
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := d.client()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || errs[w] != nil {
					return
				}
				errs[w] = fn(c, i)
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// warmUp runs the untimed pass that builds the lazily created quotient
// checkers. query_cold asks every script query once with no_cache, so
// both cache tiers stay empty; churn_mixed asks its pool once through
// the caches, which is the reader's steady state (compile-cache hits).
func warmUp(d *daemon, s *Script) error {
	c := d.client()
	switch s.Workload {
	case "query_cold":
		for _, q := range s.Queries {
			if _, err := c.QueryRequest(server.QueryRequest{Spec: q, NoCache: true}); err != nil {
				return err
			}
		}
	case "churn_mixed":
		for i, q := range s.Queries {
			if _, err := c.QueryRequest(readerRequest(q, i)); err != nil {
				return err
			}
		}
	case "stream_monitor":
		list, err := c.Streams()
		if err != nil {
			return err
		}
		if len(list) != len(s.Streams) {
			return fmt.Errorf("%d streams recovered, want %d", len(list), len(s.Streams))
		}
		// The first push to each stream after recovery runs slower than
		// later ones (the window's first fifth read up to 14% below its
		// second), so the first round of pushes is part of the warm-up.
		for _, p := range s.Pushes[:s.Warm] {
			if _, err := c.PushEvents(p.Stream, p.Events); err != nil {
				return err
			}
		}
		if _, err := waitApplied(c, eventCounts(s.Pushes[:s.Warm])); err != nil {
			return err
		}
	}
	// The debug bundle's heap profile runs runtime.GC() in the daemon, so
	// every window starts right after a daemon collection.
	_, err := c.DebugBundle(0)
	return err
}

// readerRequest is the churn_mixed reader's i-th request. The daemon
// keys its result tier by the mode knobs, step budget included, and its
// compile tier by the canonical query alone; a distinct step budget far
// above any check's step count makes every read miss the result tier
// and hit the compile tier, whatever the timing of the writer's epoch
// bumps. Without it the reader's hit/miss mix, and so its latency,
// would depend on how many reads fit between two writes.
func readerRequest(q string, i int) server.QueryRequest {
	return server.QueryRequest{Spec: q, StepBudget: 1<<40 + i}
}

// queryCold asks every distinct query once on one connection.
func queryCold(d *daemon, s *Script, o *outcome) {
	c := d.client()
	sample := map[int]bool{}
	for _, i := range answerSample(len(s.Queries)) {
		sample[i] = true
	}
	for i, q := range s.Queries {
		o.attempted++
		t := time.Now()
		resp, err := c.QueryRequest(server.QueryRequest{Spec: q})
		lat := time.Since(t)
		if err != nil {
			o.fail("query %d: %v", i, err)
			continue
		}
		o.queries = append(o.queries, lat)
		o.serverUS = append(o.serverUS, resp.ElapsedUS)
		if sample[i] {
			o.answers[i] = resp.Matches
		}
	}
}

// churnMixed runs the writer's fixed register/unregister pairs on one
// connection while a reader cycles the query pool on a second until
// the writer finishes.
func churnMixed(d *daemon, s *Script, o *outcome) {
	pairs := len(s.Churn) - s.Depth
	var done atomic.Bool
	var wg sync.WaitGroup
	reader := &outcome{}
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := d.client()
		for i := 0; !done.Load(); i++ {
			reader.attempted++
			t := time.Now()
			resp, err := c.QueryRequest(readerRequest(s.Queries[i%len(s.Queries)], len(s.Queries)+i))
			lat := time.Since(t)
			if err != nil {
				reader.fail("reader query %d: %v", i, err)
				continue
			}
			reader.queries = append(reader.queries, lat)
			reader.serverUS = append(reader.serverUS, resp.ElapsedUS)
		}
	}()
	c := d.client()
	for i := 0; i < pairs; i++ {
		in, out := s.Churn[s.Depth+i], s.Churn[i]
		o.attempted++
		t := time.Now()
		_, err := c.Register(in.Name, in.Text)
		if err != nil {
			o.fail("register %s: %v", in.Name, err)
		} else {
			o.registers = append(o.registers, time.Since(t))
		}
		o.attempted++
		t = time.Now()
		if err := c.Unregister(out.Name); err != nil {
			o.fail("unregister %s: %v", out.Name, err)
		} else {
			o.unregs = append(o.unregs, time.Since(t))
		}
	}
	done.Store(true)
	wg.Wait()
	o.queries, o.serverUS = reader.queries, reader.serverUS
	o.attempted += reader.attempted
	o.failed += reader.failed
	o.problems = append(o.problems, reader.problems...)
}

// streamMonitor pushes every batch after the warm-up round-robin on one
// connection, then waits until every stream has applied exactly what
// was pushed.
func streamMonitor(d *daemon, s *Script, o *outcome) error {
	c := d.client()
	want := eventCounts(s.Pushes[:s.Warm])
	for _, p := range s.Pushes[s.Warm:] {
		o.attempted++
		t := time.Now()
		_, err := c.PushEvents(p.Stream, p.Events)
		if err != nil {
			o.fail("push to %s: %v", p.Stream, err)
			continue
		}
		o.pushes = append(o.pushes, time.Since(t))
		want[p.Stream] += uint64(len(p.Events))
		o.events += int64(len(p.Events))
	}
	var err error
	o.streams, err = waitApplied(c, want)
	return err
}

// eventCounts sums the instants pushed to each stream.
func eventCounts(pushes []Push) map[string]uint64 {
	n := map[string]uint64{}
	for _, p := range pushes {
		n[p.Stream] += uint64(len(p.Events))
	}
	return n
}

// waitApplied polls until no batch is pending and every stream has
// applied exactly want[stream] instants, and returns the streams.
func waitApplied(c *server.Client, want map[string]uint64) ([]stream.Info, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		h, err := c.Health()
		if err != nil {
			return nil, err
		}
		if h.Streams != nil && h.Streams.PendingBatches == 0 {
			list, err := c.Streams()
			if err != nil {
				return nil, err
			}
			caught := true
			for _, info := range list {
				if info.Events != want[info.Name] {
					caught = false
					break
				}
			}
			if caught {
				return list, nil
			}
		}
		if time.Now().After(deadline) {
			return nil, errors.New("streams did not catch up within 60s of the last push")
		}
		time.Sleep(time.Millisecond)
	}
}

// answerSample is the fixed sample of query indices whose answers are
// checked against the oracle: up to 30, spread evenly (so each query
// class is represented).
func answerSample(n int) []int {
	k := min(n, 30)
	out := make([]int, k)
	for i := range out {
		out[i] = i * n / k
	}
	return out
}
