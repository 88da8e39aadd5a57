package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"

	"contractdb/internal/datagen"
	"contractdb/internal/ltl"
	"contractdb/internal/ltl2ba"
	"contractdb/internal/vocab"
)

// Spec is one named specification in a script.
type Spec struct {
	Name string
	Text string
}

// Push is one event batch of the stream_monitor script: 64 instants
// for one stream, each instant a (possibly empty) set of event names.
type Push struct {
	Stream string
	Events [][]string
}

// StreamSpec is one monitored stream and the two contracts it watches.
type StreamSpec struct {
	Name      string
	Contracts []string
}

// Script is everything a run sends to the daemon, fixed before the
// daemon starts: the same (workload, seed, size) always yields the
// same script, and nothing in it depends on the program's output
// except the satisfiability filter, which every correct version
// agrees on.
//
// The contracts and queries are drawn once, from corpusSeed; the run's
// seed orders the queries and the churn writes, and draws the stream
// attachments and event batches. Uncapped Simple-class contracts and
// the queries against them have heavy cost tails (a few per hundred
// take seconds to register or tens of milliseconds to answer), so sets
// drawn per seed made the inputs, not the code, the largest source of
// run-to-run spread.
type Script struct {
	Workload string
	Seed     int64
	Events   []string

	// Corpus is bulk-registered during set-up.
	Corpus []Spec
	// Queries are the timed find-all queries: distinct on query_cold,
	// the reader's cycled pool on churn_mixed.
	Queries []string
	// Churn is the writer's registration order on churn_mixed. The
	// first Depth entries are registered during set-up; pair i of the
	// timed script registers Churn[Depth+i] and unregisters Churn[i], so
	// Depth churned-in contracts are live between pairs.
	Churn []Spec
	Depth int
	// Streams and Pushes drive stream_monitor; the first Warm pushes,
	// one per stream, are sent during the warm-up.
	Streams []StreamSpec
	Pushes  []Push
	Warm    int
}

// streamBatchLen is the number of instants in one push.
const streamBatchLen = 64

// Per-second rates that size the timed part of a script, so that the
// whole fixed script takes roughly --seconds on a 2-vCPU host; the
// clock never cuts a script short.
const (
	queriesPerSecond = 400  // query_cold: distinct queries
	pairsPerSecond   = 1.5  // churn_mixed: register/unregister pairs
	pushesPerSecond  = 3600 // stream_monitor: 64-instant pushes
)

// sizes sets a script's dimensions.
type sizes struct {
	Corpus   int // query_cold contracts
	Queries  int // query_cold queries, a multiple of 3
	Resident int // churn_mixed resident contracts
	Pool     int // churn_mixed reader pool
	Depth    int // churn_mixed churned-in contracts live between pairs
	Pairs    int // churn_mixed writer pairs
	Watched  int // stream_monitor contracts
	Streams  int // stream_monitor streams
	Pushes   int // stream_monitor timed pushes
}

func sizesFor(seconds float64) sizes {
	q := int(math.Round(seconds*queriesPerSecond/3)) * 3
	return sizes{
		Corpus:   50,
		Queries:  max(q, 3),
		Resident: 50,
		Pool:     256,
		Depth:    8,
		Pairs:    max(int(math.Round(seconds*pairsPerSecond)), 2),
		Watched:  8,
		Streams:  2000,
		Pushes:   max(int(math.Round(seconds*pushesPerSecond)), 1),
	}
}

// corpusSeed draws every workload's contracts and queries.
const corpusSeed = 1

// subSeed derives an independent generator seed for one part of a
// script.
func subSeed(seed int64, part int64) int64 { return seed*1_000_003 + part }

// drawer draws satisfiable, textually distinct specifications of one
// Table 2 class.
type drawer struct {
	voc  *vocab.Vocabulary
	gen  *datagen.Generator
	seen map[string]bool
}

func newDrawer(seed int64, seen map[string]bool) *drawer {
	voc := datagen.NewVocabulary()
	return &drawer{voc: voc, gen: datagen.New(voc, seed), seen: seen}
}

// next returns the next satisfiable draw with `patterns` Dwyer
// patterns whose printed text has not been drawn before.
func (d *drawer) next(patterns int) (string, error) {
	for tries := 0; tries < 10_000; tries++ {
		f := d.gen.Specification(patterns)
		text := f.String()
		if d.seen[text] {
			continue
		}
		d.seen[text] = true
		ok, err := satisfiable(d.voc, f)
		if err != nil {
			return "", err
		}
		if ok {
			return text, nil
		}
	}
	return "", fmt.Errorf("no satisfiable %d-pattern draw in 10000 tries", patterns)
}

// satisfiable reports whether f allows some behaviour. It is the only
// filter applied to generated inputs; it is semantic, so any correct
// translator gives the same answer.
func satisfiable(voc *vocab.Vocabulary, f *ltl.Expr) (bool, error) {
	a, err := ltl2ba.Translate(voc, f)
	if err != nil {
		return false, err
	}
	return !a.IsEmpty(), nil
}

// corpus returns the first n satisfiable draws of the Simple contract
// class (Table 2: 5 Dwyer patterns over 20 events), uncapped.
func corpus(seed int64, n int, prefix string, seen map[string]bool) ([]Spec, error) {
	d := newDrawer(seed, seen)
	out := make([]Spec, n)
	for i := range out {
		text, err := d.next(datagen.SimpleContracts.Properties)
		if err != nil {
			return nil, err
		}
		out[i] = Spec{Name: fmt.Sprintf("%s%03d", prefix, i), Text: text}
	}
	return out, nil
}

// queries returns n distinct satisfiable queries in equal thirds of the
// simple, medium and complex query classes.
func queries(seed int64, n int) ([]string, error) {
	d := newDrawer(seed, map[string]bool{})
	classes := datagen.QueryClasses()
	out := make([]string, n)
	for i := range out {
		text, err := d.next(classes[i%len(classes)].Properties)
		if err != nil {
			return nil, err
		}
		out[i] = text
	}
	return out, nil
}

// Build generates the script of one workload.
func Build(workload string, seed int64, sz sizes) (*Script, error) {
	s := &Script{Workload: workload, Seed: seed, Events: datagen.NewVocabulary().Names()}
	var err error
	switch workload {
	case "query_cold":
		if s.Corpus, err = corpus(subSeed(corpusSeed, 1), sz.Corpus, "c", map[string]bool{}); err != nil {
			return nil, err
		}
		s.Queries, err = queries(subSeed(corpusSeed, 2), sz.Queries)
		shuffle(subSeed(seed, 2), s.Queries)
	case "churn_mixed":
		seen := map[string]bool{}
		if s.Corpus, err = corpus(subSeed(corpusSeed, 1), sz.Resident, "c", seen); err != nil {
			return nil, err
		}
		// A disjoint draw: fresh generator, and nothing already resident.
		// The seed orders the writer's registrations; which contracts are
		// written, and so the write work per run, is the same for every
		// seed.
		s.Depth = sz.Depth
		if s.Churn, err = corpus(subSeed(corpusSeed, 3), sz.Depth+sz.Pairs, "churn-", seen); err != nil {
			return nil, err
		}
		shuffle(subSeed(seed, 3), s.Churn[sz.Depth:])
		s.Queries, err = queries(subSeed(corpusSeed, 2), sz.Pool)
		shuffle(subSeed(seed, 2), s.Queries)
	case "stream_monitor":
		if s.Corpus, err = corpus(subSeed(corpusSeed, 1), sz.Watched, "c", map[string]bool{}); err != nil {
			return nil, err
		}
		s.Streams, s.Pushes = streamScript(subSeed(seed, 4), s.Corpus, s.Events, sz.Streams, sz.Streams+sz.Pushes)
		s.Warm = sz.Streams
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// shuffle permutes v in place, deterministically for seed.
func shuffle[T any](seed int64, v []T) {
	rand.New(rand.NewSource(seed)).Shuffle(len(v), func(i, j int) { v[i], v[j] = v[j], v[i] })
}

// streamScript opens nStreams streams, each on 2 distinct corpus
// contracts, and draws nPushes round-robin batches. Each stream has its
// own event density, log-uniform over two decades, so violations (each
// attachment moves compliant → violated at most once) are spread over
// the whole script instead of bunching at its start.
func streamScript(seed int64, corpus []Spec, events []string, nStreams, nPushes int) ([]StreamSpec, []Push) {
	rng := rand.New(rand.NewSource(seed))
	streams := make([]StreamSpec, nStreams)
	density := make([]float64, nStreams)
	for i := range streams {
		a := rng.Intn(len(corpus))
		b := (a + 1 + rng.Intn(len(corpus)-1)) % len(corpus)
		streams[i] = StreamSpec{Name: fmt.Sprintf("s%04d", i), Contracts: []string{corpus[a].Name, corpus[b].Name}}
		density[i] = 0.0005 * math.Pow(100, rng.Float64())
	}
	pushes := make([]Push, nPushes)
	for i := range pushes {
		j := i % nStreams
		batch := make([][]string, streamBatchLen)
		for t := range batch {
			inst := []string{}
			for _, e := range events {
				if rng.Float64() < density[j] {
					inst = append(inst, e)
				}
			}
			batch[t] = inst
		}
		pushes[i] = Push{Stream: streams[j].Name, Events: batch}
	}
	return streams, pushes
}

// Digest is a SHA-256 over every input the script sends: corpus,
// queries, write order, streams and event batches. Equal digests prove
// two runs were driven with identical inputs.
func (s *Script) Digest() string {
	h := sha256.New()
	field := func(h hash.Hash, v string) { fmt.Fprintf(h, "%d:%s;", len(v), v) }
	field(h, s.Workload)
	for _, e := range s.Events {
		field(h, e)
	}
	fmt.Fprintf(h, "depth %d; warm %d;", s.Depth, s.Warm)
	for _, part := range [][]Spec{s.Corpus, s.Churn} {
		field(h, "|")
		for _, c := range part {
			field(h, c.Name)
			field(h, c.Text)
		}
	}
	field(h, "|")
	for _, q := range s.Queries {
		field(h, q)
	}
	field(h, "|")
	for _, st := range s.Streams {
		field(h, st.Name)
		for _, c := range st.Contracts {
			field(h, c)
		}
	}
	field(h, "|")
	for _, p := range s.Pushes {
		field(h, p.Stream)
		for _, inst := range p.Events {
			fmt.Fprintf(h, "%d", len(inst))
			for _, e := range inst {
				field(h, e)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
