package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"contractdb/internal/bisim"
	"contractdb/internal/buchi"
	"contractdb/internal/core"
	"contractdb/internal/ltl"
	"contractdb/internal/ltl2ba"
	"contractdb/internal/metrics"
	"contractdb/internal/permission"
	"contractdb/internal/prefilter"
	"contractdb/internal/server"
	"contractdb/internal/store"
	"contractdb/internal/stream"
	"contractdb/internal/vocab"
	"contractdb/internal/wal"
)

// The traced replay re-runs a workload's script in-process and times
// calls into each layer's public functions from outside: the server
// through httptest, the engine behind a timing decorator over
// server.DB, and every layer below it called directly on the script's
// own inputs. Spans stay in memory and are written to spans.json once
// at the end. The replayed engine evaluates each query sequentially
// (parallelism 1) so that per-layer self times add up to the engine's
// wall time; on the sharded engine the two shard probes still overlap.

// perLayer lists every per-layer metric with its unit, in report
// order. A layer idle on a workload reports 0.
var perLayer = [][2]string{
	{"server.query_overhead_us", "us"},
	{"server.push_us", "us"},
	{"shard.router_self_us", "us"},
	{"core.query_us", "us"},
	{"core.register_us", "us"},
	{"core.unregister_us", "us"},
	{"core.unattributed_pct", "%"},
	{"ltl.parse_us", "us"},
	{"ltl.canonical_us", "us"},
	{"qcache.compile_hit_ratio", "1"},
	{"qcache.result_hit_ratio", "1"},
	{"ltl2ba.query_us", "us"},
	{"ltl2ba.query_states", "count"},
	{"ltl2ba.contract_ms", "ms"},
	{"ltl2ba.contract_states", "count"},
	{"prefilter.candidates_us", "us"},
	{"prefilter.insert_us", "us"},
	{"prefilter.selectivity", "1"},
	{"prefilter.precision", "1"},
	{"bisim.pick_us", "us"},
	{"bisim.quotient_ratio", "1"},
	{"bisim.precompute_ms", "ms"},
	{"permission.check_us", "us"},
	{"permission.steps", "count"},
	{"wal.append_us", "us"},
	{"wal.sync_us", "us"},
	{"wal.bytes_per_op", "B"},
	{"wal.syncs_per_op", "count"},
	{"store.recovery_ms", "ms"},
	{"store.mapped_mb", "MB"},
	{"store.checkpoint_ms", "ms"},
	{"store.checkpoints", "count"},
	{"stream.append_us", "us"},
	{"stream.apply_ns_per_event", "ns"},
	{"stream.transitions", "count"},
	{"stream.checkpoint_ms", "ms"},
	{"replay.overhead_pct", "%"},
	{"runtime.gc_cycles", "count"},
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"register_p50_ms", "ms"},
	{"register_p90_ms", "ms"},
	{"push_p50_ms", "ms"},
	{"push_p99_ms", "ms"},
	{"events_s", "1/s"},
	{"fail_ratio", "1"},
}

// spanRec is one recorded span: the layer it times, the script
// operation that caused it (-1 outside the script), and its interval
// relative to the replay's start.
type spanRec struct {
	Layer string `json:"layer"`
	Op    int    `json:"op"`
	Start int64  `json:"start_ns"`
	Dur   int64  `json:"dur_ns"`
}

// spans is the replay's in-memory span store. The replay is
// sequential, so it needs no locking.
type spans struct {
	t0  time.Time
	op  int
	off bool // warm-up: record nothing
	all []spanRec
}

func (s *spans) add(layer string, start time.Time, d time.Duration) {
	if !s.off {
		s.all = append(s.all, spanRec{Layer: layer, Op: s.op, Start: start.Sub(s.t0).Nanoseconds(), Dur: d.Nanoseconds()})
	}
}

// timed runs fn as one span of layer and returns its duration.
func (s *spans) timed(layer string, fn func()) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	s.add(layer, start, d)
	return d
}

// total sums a layer's spans and counts them.
func (s *spans) total(layer string) (time.Duration, int) {
	var t time.Duration
	n := 0
	for _, r := range s.all {
		if r.Layer == layer {
			t += time.Duration(r.Dur)
			n++
		}
	}
	return t, n
}

// meanUS is a layer's mean span in microseconds, 0 when it never ran.
func (s *spans) meanUS(layer string) float64 {
	t, n := s.total(layer)
	if n == 0 {
		return 0
	}
	return float64(t.Nanoseconds()) / float64(n) / 1e3
}

// engine is what the replay needs from the recovered database.
type engine interface {
	server.DB
	SetParallelism(n int)
}

// timedDB is the timing decorator over the engine the server calls.
type timedDB struct {
	engine
	sp *spans
}

func (db *timedDB) QueryModeCtx(ctx context.Context, spec *ltl.Expr, mode core.Mode) (*core.Result, error) {
	start := time.Now()
	res, err := db.engine.QueryModeCtx(ctx, spec, mode)
	d := time.Since(start)
	db.sp.add("core.query_us", start, d)
	if err == nil && len(res.Stats.Shards) > 0 {
		// The router's own time: everything but translation and the
		// slowest shard probe, which it waits for.
		var slowest time.Duration
		for _, p := range res.Stats.Shards {
			slowest = max(slowest, p.Dur)
		}
		db.sp.add("shard.router_self_us", start, d-res.Stats.Translate-slowest)
	}
	return res, err
}

func (db *timedDB) RegisterLTLCtx(ctx context.Context, name, src string) (*core.Contract, error) {
	start := time.Now()
	c, err := db.engine.RegisterLTLCtx(ctx, name, src)
	db.sp.add("core.register_us", start, time.Since(start))
	return c, err
}

func (db *timedDB) Unregister(name string) error {
	start := time.Now()
	err := db.engine.Unregister(name)
	db.sp.add("core.unregister_us", start, time.Since(start))
	return err
}

// replayer holds one traced replay's state.
type replayer struct {
	s   *Script
	o   *outcome
	sp  *spans
	m   map[string]Metric
	srv *server.Server
	eng engine
	// wall and ops are the server-path replay's duration and operation
	// count.
	wall time.Duration
	ops  int
	// recordBytes is the stream journal's mean record size.
	recordBytes float64
}

func (r *replayer) set(name string, v float64) {
	m := r.m[name]
	m.Value = v
	r.m[name] = m
}

// serve sends one request through the server in-process and fails on
// any status other than want.
func (r *replayer) serve(method, path string, body any, want int) error {
	buf := []byte{}
	if body != nil {
		var err error
		if buf, err = json.Marshal(body); err != nil {
			return err
		}
	}
	req := httptest.NewRequest(method, path, strings.NewReader(string(buf)))
	rec := httptest.NewRecorder()
	r.sp.timed("server.serve", func() { r.srv.ServeHTTP(rec, req) })
	if rec.Code != want {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	return nil
}

// replay runs the traced replay over the checkpointed set-up directory
// and returns every per-layer metric.
func replay(s *Script, o *outcome, setupDir, work string) (map[string]Metric, error) {
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	r := &replayer{s: s, o: o, sp: &spans{t0: time.Now(), op: -1}, m: map[string]Metric{}}
	for _, pl := range perLayer {
		r.m[pl[0]] = Metric{Unit: pl[1]}
	}

	// store: recovery of the set-up directory, configured like the daemon.
	shards := 0
	if s.Workload == "churn_mixed" {
		shards = 2
	}
	var st *store.Store
	var err error
	recovery := r.sp.timed("store.recovery", func() {
		st, err = store.Open(setupDir, store.Config{Shards: shards, Sync: fsyncPolicy(s.Workload), CheckpointRecords: checkpointRecords(s.Workload)})
	})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	r.set("store.recovery_ms", ms(recovery))
	if rec := o.health.Recovery; rec != nil {
		r.set("store.mapped_mb", float64(rec.MappedBytes)/(1<<20))
	}
	r.eng = st.DB()
	if rt := st.Router(); rt != nil {
		r.eng = rt
	}
	r.eng.SetParallelism(1)
	r.srv = server.New(&timedDB{engine: r.eng, sp: r.sp})

	switch s.Workload {
	case "query_cold", "churn_mixed":
		err = r.serverQueries()
		if err == nil {
			err = r.directQueries()
		}
	case "stream_monitor":
		err = r.streams(filepath.Join(setupDir, "streams"), filepath.Join(work, "streams"))
		if err == nil {
			err = r.directContracts()
		}
	}
	if err != nil {
		return nil, err
	}
	ck := r.sp.timed("store.checkpoint", func() { _, err = st.Checkpoint() })
	if err != nil {
		return nil, err
	}
	r.set("store.checkpoint_ms", ms(ck))
	if err := r.walAppends(filepath.Join(work, "wal")); err != nil {
		return nil, err
	}
	r.summarize()

	out, err := json.Marshal(r.sp.all)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(work, "spans.json"), out, 0o644); err != nil {
		return nil, err
	}
	return r.m, nil
}

// summarize turns the spans and the daemon run's counts into metrics.
func (r *replayer) summarize() {
	s, o, sp := r.s, r.o, r.sp
	for _, layer := range []string{
		"shard.router_self_us", "core.query_us", "core.register_us", "core.unregister_us",
		"ltl.parse_us", "ltl.canonical_us", "ltl2ba.query_us", "prefilter.candidates_us",
		"prefilter.insert_us", "bisim.pick_us", "permission.check_us", "wal.append_us",
		"wal.sync_us", "stream.append_us",
	} {
		r.set(layer, sp.meanUS(layer))
	}
	r.set("ltl2ba.contract_ms", sp.meanUS("ltl2ba.contract")/1e3)
	r.set("bisim.precompute_ms", sp.meanUS("bisim.precompute")/1e3)

	// server: client latency minus the daemon's own evaluation time, and
	// an in-process push minus the broker's append.
	if len(o.queries) > 0 {
		overhead := make([]float64, len(o.queries))
		for i, lat := range o.queries {
			overhead[i] = float64(lat.Nanoseconds())/1e3 - float64(o.serverUS[i])
		}
		slices.Sort(overhead)
		r.set("server.query_overhead_us", overhead[len(overhead)/2])
	}
	if s.Workload == "stream_monitor" {
		r.set("server.push_us", sp.meanUS("server.serve")-sp.meanUS("stream.append_us"))
	}

	// core: the engine's time not covered by the child layers' spans.
	if s.Workload != "stream_monitor" {
		q, _ := sp.total("core.query_us")
		reg, regs := sp.total("core.register_us")
		cq, _ := sp.total("child.query")
		creg, _ := sp.total("child.register")
		// Each registration also appends and syncs one WAL record.
		walUS := sp.meanUS("wal.append_us") + sp.meanUS("wal.sync_us")
		creg += time.Duration(float64(regs) * walUS * 1e3)
		if q+reg > 0 {
			r.set("core.unattributed_pct", 100*float64(q+reg-cq-creg)/float64(q+reg))
		}
	}

	// qcache, store: counts over the daemon run's window.
	q0, q1 := o.before.Queries, o.metrics.Queries
	ch, cm := q1.QueryCacheHits-q0.QueryCacheHits, q1.QueryCacheMisses-q0.QueryCacheMisses
	rh, rm := q1.ResultCacheHits-q0.ResultCacheHits, q1.ResultCacheMisses-q0.ResultCacheMisses
	r.set("qcache.compile_hit_ratio", ratio(ch, ch+cm))
	r.set("qcache.result_hit_ratio", ratio(rh, rh+rm))
	if d0, d1 := o.before.Durability, o.metrics.Durability; d0 != nil && d1 != nil {
		r.set("store.checkpoints", float64(d1.Checkpoints-d0.Checkpoints))
	}

	// The daemon run's own figures: its GC cycles over the window, and
	// client latencies and rates over the whole window, per operation
	// kind.
	r.set("runtime.gc_cycles", float64(o.gcs))
	r.set("query_p50_ms", ms(quantile(o.queries, .5)))
	r.set("query_p99_ms", ms(quantile(o.queries, .99)))
	r.set("register_p50_ms", ms(quantile(o.registers, .5)))
	r.set("register_p90_ms", ms(quantile(o.registers, .9)))
	r.set("push_p50_ms", ms(quantile(o.pushes, .5)))
	r.set("push_p99_ms", ms(quantile(o.pushes, .99)))
	r.set("events_s", float64(o.events)/o.window.Seconds())
	r.set("fail_ratio", ratio(int64(o.failed), int64(o.attempted)))

	// replay: wall time per operation against the daemon run's; the
	// difference is the cost of tracing and of the HTTP transport.
	e2e := o.window.Seconds() / float64(o.ops())
	r.set("replay.overhead_pct", 100*(r.wall.Seconds()/float64(r.ops)-e2e)/e2e)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// serverQueries replays query_cold or churn_mixed through the server:
// the daemon run's warm-up, then the script. churn_mixed interleaves
// the reader's queries evenly between the writer's pairs, sequentially.
func (r *replayer) serverQueries() error {
	s := r.s
	r.sp.off = true
	for i, q := range s.Queries {
		req := server.QueryRequest{Spec: q, NoCache: true}
		if s.Workload == "churn_mixed" {
			req = readerRequest(q, i)
		}
		if err := r.serve("POST", "/v1/query", req, http.StatusOK); err != nil {
			return err
		}
	}
	r.sp.off = false
	start := time.Now()
	var err error
	r.ops, err = r.eachOp(
		func(i int) error {
			return r.serve("POST", "/v1/query", server.QueryRequest{Spec: s.Queries[i]}, http.StatusOK)
		},
		func(in, out Spec, next func()) error {
			if err := r.serve("POST", "/v1/contracts", server.RegisterRequest{Name: in.Name, Spec: in.Text}, http.StatusCreated); err != nil {
				return err
			}
			next()
			return r.serve("DELETE", "/v1/contracts/"+out.Name, nil, http.StatusNoContent)
		},
		func(i int) error {
			return r.serve("POST", "/v1/query", readerRequest(s.Queries[i%len(s.Queries)], len(s.Queries)+i), http.StatusOK)
		})
	r.wall = time.Since(start)
	return err
}

// eachOp walks the script's operations in replay order, numbering
// them in r.sp.op, and returns how many it ran: query_cold's queries,
// or churn_mixed's pairs (two operations each; pair calls next before
// the second) with the daemon run's reader queries spread evenly
// between them.
func (r *replayer) eachOp(query func(i int) error, pair func(in, out Spec, next func()) error, read func(i int) error) (int, error) {
	s := r.s
	ops := 0
	next := func() {
		r.sp.op = ops
		ops++
	}
	if s.Workload == "query_cold" {
		for i := range s.Queries {
			next()
			if err := query(i); err != nil {
				return ops, err
			}
		}
		return ops, nil
	}
	pairs := len(s.Churn) - s.Depth
	reads := len(r.o.queries)
	done := 0
	for p := 0; p < pairs; p++ {
		next()
		if err := pair(s.Churn[s.Depth+p], s.Churn[p], next); err != nil {
			return ops, err
		}
		for ; done < (p+1)*reads/pairs; done++ {
			next()
			if err := read(done); err != nil {
				return ops, err
			}
		}
	}
	return ops, nil
}

// contractArt is one contract's artifacts in the direct layer calls.
type contractArt struct {
	name string
	auto *buchi.BA
	ps   *bisim.ProjectionSet
}

// counts accumulates the direct calls' work counters.
type counts struct {
	contractStates, contracts int
	queryStates, queries      int
	picked, full              int64
	steps, checks             int64
	candidates, total         int64
	permitted                 int64
}

// build translates and precomputes one contract and returns the time
// both took.
func (r *replayer) build(voc *vocab.Vocabulary, sc Spec, n *counts) (*contractArt, time.Duration, error) {
	f, err := ltl.Parse(sc.Text)
	if err != nil {
		return nil, 0, err
	}
	var a *buchi.BA
	d := r.sp.timed("ltl2ba.contract", func() { a, err = ltl2ba.Translate(voc, f) })
	if err != nil {
		return nil, 0, err
	}
	n.contractStates += a.NumStates()
	n.contracts++
	var ps *bisim.ProjectionSet
	d += r.sp.timed("bisim.precompute", func() { ps = bisim.Precompute(a, projectionBudget(a)) })
	return &contractArt{name: sc.Name, auto: a, ps: ps}, d, nil
}

// projectionBudget mirrors the daemon's: DefaultProjectionBudget,
// reduced for very large automata.
func projectionBudget(a *buchi.BA) int {
	switch edges := a.NumEdges(); {
	case edges > 100_000:
		return 1
	case edges > 20_000:
		return 3
	}
	return core.DefaultProjectionBudget
}

// directContracts measures contract translation, precompute and
// prefilter insert on stream_monitor's corpus; its query path is idle.
func (r *replayer) directContracts() error {
	voc, err := vocab.FromNames(r.s.Events...)
	if err != nil {
		return err
	}
	var n counts
	ix := prefilter.New(prefilter.DefaultK)
	for i, c := range r.s.Corpus {
		art, _, err := r.build(voc, c, &n)
		if err != nil {
			return err
		}
		r.sp.timed("prefilter.insert_us", func() { ix.Insert(i, art.auto) })
	}
	r.set("ltl2ba.contract_states", float64(n.contractStates)/float64(n.contracts))
	return nil
}

// directQueries replays the query path layer by layer: contracts are
// translated, precomputed and inserted into a fresh prefilter index;
// each query is parsed, canonicalized, translated, prefiltered, and
// checked candidate by candidate against its picked projection with
// the SCC kernel. The child-layer time of each engine operation is
// recorded as a "child.query" or "child.register" span.
func (r *replayer) directQueries() error {
	s := r.s
	voc, err := vocab.FromNames(s.Events...)
	if err != nil {
		return err
	}
	var n counts
	var live []*contractArt
	ix := prefilter.New(prefilter.DefaultK)
	insert := func(art *contractArt) time.Duration {
		d := r.sp.timed("prefilter.insert_us", func() { ix.Insert(len(live), art.auto) })
		live = append(live, art)
		return d
	}
	initial := s.Corpus
	if s.Workload == "churn_mixed" {
		initial = append(append([]Spec(nil), s.Corpus...), s.Churn[:s.Depth]...)
	}
	r.sp.op = -1
	for _, c := range initial {
		art, _, err := r.build(voc, c, &n)
		if err != nil {
			return err
		}
		insert(art)
	}

	checkers := map[*buchi.BA]*permission.Checker{}
	translated := map[string]*buchi.BA{}
	ctx := context.Background()
	query := func(text string) error {
		if r.sp.off {
			// Warm-up: translate, and build the picked quotients and their
			// checkers, as the daemon's warm-up does.
			f, err := ltl.Parse(text)
			if err != nil {
				return err
			}
			qa, err := ltl2ba.Translate(voc, f)
			if err != nil {
				return err
			}
			ix.Candidates(qa).ForEach(func(id int) bool {
				if pick := live[id].ps.For(qa.Events); checkers[pick] == nil {
					checkers[pick] = permission.NewChecker(pick)
				}
				return true
			})
			return nil
		}
		// The server parses before it calls the engine, so parsing is not
		// charged to the engine operation.
		var child time.Duration
		var f *ltl.Expr
		var err error
		r.sp.timed("ltl.parse_us", func() { f, err = ltl.Parse(text) })
		if err != nil {
			return err
		}
		child += r.sp.timed("ltl.canonical_us", func() { ltl.CanonicalKey(f) })
		qa, ok := translated[text]
		if !ok {
			d := r.sp.timed("ltl2ba.query_us", func() { qa, err = ltl2ba.Translate(voc, f) })
			if err != nil {
				return err
			}
			// On churn_mixed the daemon's compile tier serves the pool, so
			// translation is measured but not charged to the read.
			if s.Workload == "query_cold" {
				child += d
			}
			translated[text] = qa
			n.queryStates += qa.NumStates()
			n.queries++
		}
		var cands []*contractArt
		child += r.sp.timed("prefilter.candidates_us", func() {
			ix.Candidates(qa).ForEach(func(id int) bool {
				cands = append(cands, live[id])
				return true
			})
		})
		n.candidates += int64(len(cands))
		n.total += int64(len(live))
		for _, c := range cands {
			var pick *buchi.BA
			child += r.sp.timed("bisim.pick_us", func() { pick = c.ps.For(qa.Events) })
			n.picked += int64(pick.NumStates())
			n.full += int64(c.auto.NumStates())
			ch, ok := checkers[pick]
			if !ok {
				ch = permission.NewChecker(pick)
				checkers[pick] = ch
			}
			var permits bool
			var st permission.Stats
			child += r.sp.timed("permission.check_us", func() {
				permits, st, err = ch.PermitsCtx(ctx, qa, permission.SCC, 0)
			})
			if err != nil {
				return err
			}
			n.steps += int64(st.Steps)
			n.checks++
			if permits {
				n.permitted++
			}
		}
		r.sp.add("child.query", time.Now(), child)
		return nil
	}
	r.sp.off = true
	for _, q := range s.Queries {
		if err := query(q); err != nil {
			return err
		}
	}
	r.sp.off = false
	_, err = r.eachOp(
		func(i int) error { return query(s.Queries[i]) },
		func(in, out Spec, next func()) error {
			art, d, err := r.build(voc, in, &n)
			if err != nil {
				return err
			}
			d += insert(art)
			r.sp.add("child.register", time.Now(), d)
			next()
			// The engine rebuilds its index on unregister; so does this.
			live = slices.DeleteFunc(live, func(c *contractArt) bool { return c.name == out.Name })
			ix = prefilter.New(prefilter.DefaultK)
			for i, c := range live {
				ix.Insert(i, c.auto)
			}
			return nil
		},
		func(i int) error { return query(s.Queries[i%len(s.Queries)]) })
	if err != nil {
		return err
	}
	r.set("ltl2ba.contract_states", float64(n.contractStates)/float64(n.contracts))
	r.set("ltl2ba.query_states", float64(n.queryStates)/float64(max(n.queries, 1)))
	r.set("prefilter.selectivity", ratio(n.candidates, n.total))
	r.set("prefilter.precision", ratio(n.permitted, n.candidates))
	r.set("bisim.quotient_ratio", ratio(n.picked, n.full))
	r.set("permission.steps", ratio(n.steps, n.checks))
	return nil
}

// streams replays stream_monitor: the pushes through the server over a
// durable broker recovered from the set-up copy (as the relaunched
// daemon's is), AppendEvents on a second durable broker configured like
// the daemon, Append on an in-memory broker drained by WaitIdle, and a
// broker checkpoint.
func (r *replayer) streams(setupStreams, work string) error {
	s, sp := r.s, r.sp
	durable := func(dir string, dm *metrics.Durability) (*stream.Broker, error) {
		return stream.New(r.eng, stream.Config{Shards: 2, Dir: dir, Sync: fsyncPolicy(s.Workload),
			CheckpointRecords: checkpointRecords(s.Workload), Durability: dm})
	}
	served, err := durable(setupStreams, nil)
	if err != nil {
		return err
	}
	defer served.Close()
	r.srv.Streams = served
	// As in the daemon run, the first round of pushes is an untimed
	// warm-up on every broker.
	var start time.Time
	sp.off = true
	for i, p := range s.Pushes {
		if i == s.Warm {
			served.WaitIdle()
			sp.off = false
			start = time.Now()
		}
		sp.op = i
		if err := r.serve("POST", "/v1/streams/"+p.Stream+"/events", server.StreamEventsRequest{Events: p.Events}, http.StatusAccepted); err != nil {
			return err
		}
	}
	served.WaitIdle()
	r.wall, r.ops = time.Since(start), len(s.Pushes)-s.Warm
	sp.op = -1
	ck := sp.timed("stream.checkpoint", func() { _, err = served.Checkpoint() })
	if err != nil {
		return err
	}
	r.set("stream.checkpoint_ms", ms(ck))

	// stream.append_us, and the journal's bytes and syncs per push.
	var dm metrics.Durability
	direct, err := durable(work, &dm)
	if err != nil {
		return err
	}
	defer direct.Close()
	ctx := context.Background()
	for _, st := range s.Streams {
		if _, err := direct.Create(ctx, st.Name, st.Contracts); err != nil {
			return err
		}
	}
	var d0 metrics.DurabilitySnapshot
	sp.off = true
	for i, p := range s.Pushes {
		if i == s.Warm {
			direct.WaitIdle()
			d0 = dm.Snapshot()
			sp.off = false
		}
		sp.op = i
		sp.timed("stream.append_us", func() { _, err = direct.AppendEvents(ctx, p.Stream, p.Events) })
		if err != nil {
			return err
		}
	}
	direct.WaitIdle()
	d1 := dm.Snapshot()
	pushes := int64(len(s.Pushes) - s.Warm)
	r.set("wal.bytes_per_op", ratio(d1.WALBytes-d0.WALBytes, pushes))
	r.set("wal.syncs_per_op", ratio(d1.WALSyncs-d0.WALSyncs, pushes))
	r.recordBytes = ratio(d1.WALBytes-d0.WALBytes, d1.WALAppends-d0.WALAppends)

	// stream.apply_ns_per_event and transitions on an in-memory broker.
	mem, err := stream.New(r.eng, stream.Config{Shards: 2})
	if err != nil {
		return err
	}
	defer mem.Close()
	for _, st := range s.Streams {
		if _, err := mem.Create(ctx, st.Name, st.Contracts); err != nil {
			return err
		}
	}
	voc := r.eng.Vocabulary()
	snaps := make([][]vocab.Set, len(s.Pushes))
	events := 0
	for i, p := range s.Pushes {
		snaps[i] = make([]vocab.Set, len(p.Events))
		for j, inst := range p.Events {
			if snaps[i][j], err = voc.SetOf(inst...); err != nil {
				return err
			}
		}
		if i >= s.Warm {
			events += len(p.Events)
		}
	}
	for i, p := range s.Pushes[:s.Warm] {
		if _, err = mem.Append(ctx, p.Stream, snaps[i]); err != nil {
			return err
		}
	}
	mem.WaitIdle()
	t0 := mem.Metrics().Snapshot().Transitions
	sp.op = -1
	apply := sp.timed("stream.apply", func() {
		for i := s.Warm; i < len(s.Pushes); i++ {
			if _, err = mem.Append(ctx, s.Pushes[i].Stream, snaps[i]); err != nil {
				return
			}
		}
		mem.WaitIdle()
	})
	if err != nil {
		return err
	}
	r.set("stream.apply_ns_per_event", float64(apply.Nanoseconds())/float64(events))
	r.set("stream.transitions", float64(mem.Metrics().Snapshot().Transitions-t0))
	return nil
}

// walAppends appends and syncs records of the workload's write sizes
// on the data directory's filesystem: registration/unregistration
// records on churn_mixed, event-batch records on stream_monitor.
// query_cold writes nothing and reports 0.
func (r *replayer) walAppends(dir string) error {
	var bytes float64
	var writes int
	switch r.s.Workload {
	case "churn_mixed":
		d0, d1 := r.o.before.Durability, r.o.metrics.Durability
		if d0 == nil || d1 == nil {
			return fmt.Errorf("daemon reported no durability counters")
		}
		writes = len(r.o.registers) + len(r.o.unregs)
		r.set("wal.bytes_per_op", ratio(d1.WALBytes-d0.WALBytes, int64(writes)))
		r.set("wal.syncs_per_op", ratio(d1.WALSyncs-d0.WALSyncs, int64(writes)))
		bytes = ratio(d1.WALBytes-d0.WALBytes, d1.WALAppends-d0.WALAppends)
	case "stream_monitor":
		writes = len(r.s.Pushes)
		bytes = r.recordBytes
	default:
		return nil
	}
	writes = min(writes, 2000)
	log, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever})
	if err != nil {
		return err
	}
	defer log.Close()
	payload := make([]byte, max(int(bytes)-int(wal.FrameSize(0)), 1))
	r.sp.op = -1
	for i := 0; i < writes; i++ {
		r.sp.timed("wal.append_us", func() { _, err = log.Append(1, payload) })
		if err != nil {
			return err
		}
		r.sp.timed("wal.sync_us", func() { err = log.Sync() })
		if err != nil {
			return err
		}
	}
	return nil
}
