package benchkit

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"contractdb/internal/core"
	"contractdb/internal/datagen"
	"contractdb/internal/ltl"
	"contractdb/internal/vocab"
)

// The cold-start series prices snapshot restore directly: loading a
// v4 container (compiled automata and projection partitions adopted,
// zero LTL→BA translations) against rebuilding the same corpus
// through the strongest synchronous registration path (RegisterBatch
// on a full worker pool). Both sides
// operate on the identical accepted corpus — rejected unsatisfiable
// draws are excluded before the clock starts.

// ColdStartPoint is one corpus size of the cold-start series.
type ColdStartPoint struct {
	Contracts     int     `json:"contracts"`
	SnapshotBytes int     `json:"snapshot_bytes"` // v4 container size
	RegisterMS    float64 `json:"register_ms"`    // RegisterBatch from specs
	LoadMS        float64 `json:"load_ms"`        // core.Load from a v4 container
	Speedup       float64 `json:"speedup"`        // RegisterMS / LoadMS
}

// benchOpts is the corpus regime shared with DB()/ShardedDB(): same
// automaton-size cap, so the series measures the same contracts the
// figure benches query.
func benchOpts() core.Options { return core.Options{MaxAutomatonStates: 300} }

// corpusSpecs draws size satisfiable specifications from the shared
// generator, using a scratch database to apply the same
// reject-and-redraw rule as DB(). The scratch pass is untimed; callers
// time only work on the accepted corpus.
func corpusSpecs(voc *vocab.Vocabulary, size int, seed int64) []*ltl.Expr {
	scratch := core.NewDB(voc, benchOpts())
	gen := datagen.New(voc, seed)
	var specs []*ltl.Expr
	for scratch.Len() < size {
		q := gen.Specification(datagen.SimpleContracts.Properties)
		if _, err := scratch.Register("", q); err != nil {
			continue
		}
		specs = append(specs, q)
	}
	return specs
}

// ColdStart measures one point of the cold-start series at the given
// corpus size: snapshot-load milliseconds against batch
// re-registration milliseconds for the identical corpus.
func ColdStart(size int) (ColdStartPoint, error) {
	voc := datagen.NewVocabulary()
	specs := corpusSpecs(voc, size, 1)
	regs := make([]core.Registration, len(specs))
	for i, q := range specs {
		regs[i] = core.Registration{Spec: q}
	}

	// Collect before every timed phase: the series runs late in a
	// benchjson process whose heap holds all the figure benches'
	// garbage, and a collection landing inside a timed load would be
	// charged to the wrong side of the ratio.
	runtime.GC()
	start := time.Now()
	db := core.NewDB(voc, benchOpts())
	for _, r := range db.RegisterBatch(regs, 0) {
		if r.Err != nil {
			return ColdStartPoint{}, fmt.Errorf("benchkit: cold start: %w", r.Err)
		}
	}
	registerMS := float64(time.Since(start).Microseconds()) / 1e3

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		return ColdStartPoint{}, fmt.Errorf("benchkit: cold start: %w", err)
	}

	runtime.GC()
	start = time.Now()
	loaded, err := core.Load(bytes.NewReader(buf.Bytes()))
	loadMS := float64(time.Since(start).Microseconds()) / 1e3
	if err != nil {
		return ColdStartPoint{}, fmt.Errorf("benchkit: cold start: %w", err)
	}
	if loaded.Len() != size {
		return ColdStartPoint{}, fmt.Errorf("benchkit: cold start: loaded %d contracts, want %d", loaded.Len(), size)
	}

	p := ColdStartPoint{
		Contracts:     size,
		SnapshotBytes: buf.Len(),
		RegisterMS:    registerMS,
		LoadMS:        loadMS,
	}
	if loadMS > 0 {
		p.Speedup = registerMS / loadMS
	}
	return p, nil
}

// RegisterRatePoint is one configuration of the sustained-registration
// series: how fast Register calls return (accepting writes at the
// degraded tier when pipelined), and how long the background pipeline
// needs to finish promoting everything it accepted.
type RegisterRatePoint struct {
	Contracts     int     `json:"contracts"`
	IngestWorkers int     `json:"ingest_workers"` // 0 = synchronous registration
	AcceptMS      float64 `json:"accept_ms"`      // wall time until every Register returned
	DrainMS       float64 `json:"drain_ms"`       // further wall time until the pipeline is idle
	AcceptPerSec  float64 `json:"accept_per_sec"` // registrations accepted per second
}

// RegisterRate measures sustained registration throughput for size
// contracts with the given ingest-pipeline width (0 disables the
// pipeline: every Register pays projection precompute synchronously,
// which is the pre-pipeline behavior the series compares against).
func RegisterRate(size, workers int) (RegisterRatePoint, error) {
	voc := datagen.NewVocabulary()
	specs := corpusSpecs(voc, size, 1)

	opts := benchOpts()
	opts.IngestWorkers = workers
	db := core.NewDB(voc, opts)
	start := time.Now()
	for _, q := range specs {
		if _, err := db.Register("", q); err != nil {
			return RegisterRatePoint{}, fmt.Errorf("benchkit: register rate: %w", err)
		}
	}
	accept := time.Since(start)
	db.WaitIdle()
	drain := time.Since(start) - accept
	if err := db.Close(); err != nil {
		return RegisterRatePoint{}, fmt.Errorf("benchkit: register rate: %w", err)
	}

	p := RegisterRatePoint{
		Contracts:     size,
		IngestWorkers: workers,
		AcceptMS:      float64(accept.Microseconds()) / 1e3,
		DrainMS:       float64(drain.Microseconds()) / 1e3,
	}
	if s := accept.Seconds(); s > 0 {
		p.AcceptPerSec = float64(size) / s
	}
	return p, nil
}
