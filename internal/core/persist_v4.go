package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"contractdb/internal/bisim"
	"contractdb/internal/buchi"
	"contractdb/internal/ltl"
	"contractdb/internal/permission"
	"contractdb/internal/prefilter"
	"contractdb/internal/snapfmt"
	"contractdb/internal/vocab"
)

// formatVersion 4 is a snapfmt container: a small JSON head carrying
// names, specs, options and per-contract shape counts, followed by
// flat little-endian slabs holding every hot numeric table — compiled
// automata (CSR arrays, label words, final bits), checker seeds,
// partition class tables and partition reference lists. A contract is
// stored as §5.2 proposes, by its partitions ("just the list of
// bisimilar states"); projection quotients are derived on first use.
// Load adopts the slabs as typed views without copying (see
// slabview.go), so cold start costs O(page-in) of the file, not
// O(decode) of its contents.
//
// Slab traversal order (save writes and load consumes in lockstep;
// exact consumption is enforced, leftovers are corruption):
//
//	per contract, in head order:
//	    auto compiled: 4 meta words, EdgeOff (N+1), EdgeTo (E),
//	        EdgeLabel (E), Labels (L pairs), Final (N bytes)
//	    checker seeds: N bytes (all tiers; degraded contracts have
//	        checkers too)
//	    if not deferred:
//	        PartTables × class tables (N int64 each, first-occurrence
//	            order of the Set-sorted reference list)
//	        PartRefs × (set word, table index)
//
// The writer (saveContainer) emits one shape: Sharded=true, contracts
// merged in name order, and empty index sections. Prefilter indexes
// depend on the shard count, so they are rebuilt at load from the
// adopted compiled forms (PrepareCompiled), keeping the bytes
// count-agnostic. A WAL register record is the same shape holding one
// contract (see durable.go).
//
// Two older v4 shapes still load. Snapshots written before quotients
// stopped being persisted carry, after a contract's PartRefs,
// Quotients × compiled forms (the auto's layout) and QuotRefs × (set
// word, table index); the loader validates and discards them
// (dropQuotients). Unsharded heads carry a prefilter index (node
// labels, node word counts, concatenated posting words) after all
// contracts; the loader length-checks and skips it. Either re-saves to
// the bytes a fresh save produces.

// Section kinds of the v4 container, in file order.
const (
	secCompiledMeta  = 1  // 4 uint64 words per compiled form
	secEdgeOff       = 2  // int32
	secEdgeTo        = 3  // int32
	secEdgeLabel     = 4  // int32
	secLabels        = 5  // uint64 (Pos, Neg) pairs
	secFinal         = 6  // 0/1 bytes
	secSeeds         = 7  // 0/1 bytes
	secClasses       = 8  // int64
	secPartRefSets   = 9  // uint64
	secPartRefTables = 10 // int32
	secQuotRefSets   = 11 // uint64
	secQuotRefTables = 12 // int32
	secIndexLabels   = 13 // uint64 (Pos, Neg) pairs
	secIndexLens     = 14 // int32
	secIndexWords    = 15 // uint64
)

var v4SectionNames = map[uint32]string{
	secCompiledMeta:  "compiled-meta",
	secEdgeOff:       "edge-off",
	secEdgeTo:        "edge-to",
	secEdgeLabel:     "edge-label",
	secLabels:        "labels",
	secFinal:         "final",
	secSeeds:         "seeds",
	secClasses:       "classes",
	secPartRefSets:   "part-ref-sets",
	secPartRefTables: "part-ref-tables",
	secQuotRefSets:   "quot-ref-sets",
	secQuotRefTables: "quot-ref-tables",
	secIndexLabels:   "index-labels",
	secIndexLens:     "index-lens",
	secIndexWords:    "index-words",
}

// V4SectionName names a section kind for inspection output and
// errors; unknown kinds render numerically.
func V4SectionName(kind uint32) string {
	if n, ok := v4SectionNames[kind]; ok {
		return n
	}
	return fmt.Sprintf("kind-%d", kind)
}

// v4ContractHead is the per-contract metadata in the head: the
// strings and the slab shape counts the load cursor consumes by.
type v4ContractHead struct {
	Name string
	Spec string

	// Deferred marks a contract captured at the degraded tier; it has
	// no projection rows in the slabs and re-enters the pipeline.
	Deferred bool

	// LabelEvents is the projection set's label-event universe,
	// persisted so import never walks the automaton's adjacency.
	LabelEvents vocab.Set
	MaxSubset   int

	PartTables int
	PartRefs   int
	Quotients  int
	QuotRefs   int
}

// v4Head is the head of a v4 container, serialized as JSON rather
// than gob: gob assigns wire type IDs from a process-global counter,
// so its bytes for the same value depend on what else the process has
// encoded — fatal for the byte-determinism guarantee Save carries.
// JSON emits struct fields in declaration order with no global state,
// and Go's encoder round-trips uint64 (vocab.Set) exactly.
type v4Head struct {
	FormatVersion int
	Sharded       bool
	Events        []string
	Opts          Options

	// The prefilter index shape of an older unsharded head; the writer
	// leaves all three zero.
	IndexK     int
	IndexN     int
	IndexNodes int

	Contracts []v4ContractHead
}

// packMeta appends a compiled form's scalar shape as 4 uint64 words:
//
//	word0 = N | Init<<32        word1 = MaxDeg | NumEdges<<32
//	word2 = len(Labels)         word3 = Events
//
// All halves are uint32; automata near 2^31 states blow the int32 CSR
// arrays long before this packing.
func packMeta(dst []uint64, c *buchi.Compiled) []uint64 {
	return append(dst,
		uint64(uint32(c.N))|uint64(uint32(c.Init))<<32,
		uint64(uint32(c.MaxDeg))|uint64(uint32(len(c.EdgeTo)))<<32,
		uint64(uint32(len(c.Labels))),
		uint64(c.Events),
	)
}

// v4Builder accumulates the slab arrays while contracts are exported.
type v4Builder struct {
	metas      []uint64
	edgeOff    []int32
	edgeTo     []int32
	edgeLabel  []int32
	labelWords []uint64
	final      []byte
	seeds      []byte

	classes       []int64
	partRefSets   []vocab.Set
	partRefTables []int32
}

func (b *v4Builder) addCompiled(c *buchi.Compiled) {
	b.metas = packMeta(b.metas, c)
	b.edgeOff = append(b.edgeOff, c.EdgeOff...)
	b.edgeTo = append(b.edgeTo, c.EdgeTo...)
	b.edgeLabel = append(b.edgeLabel, c.EdgeLabel...)
	b.labelWords = appendLabels(b.labelWords, c.Labels)
	b.final = appendBools(b.final, c.Final)
}

// addContract exports one contract into the builder and returns its
// head entry. The contract must be registered; proj.mu is taken
// inside, only to read the projection set, whose export needs no lock.
func (b *v4Builder) addContract(c *Contract) v4ContractHead {
	h := v4ContractHead{Name: c.Name, Spec: c.Spec.String()}
	b.addCompiled(c.auto.Compiled())
	b.seeds = appendBools(b.seeds, c.checker.Seeds())
	c.proj.mu.Lock()
	ps := c.proj.ps
	c.proj.mu.Unlock()
	if ps == nil {
		h.Deferred = true
		return h
	}
	f := ps.ExportFlat()
	h.LabelEvents = ps.LabelEvents()
	h.MaxSubset = f.MaxSubset
	h.PartTables = len(f.PartTables)
	h.PartRefs = len(f.PartRefs)
	for _, t := range f.PartTables {
		b.classes = appendInts(b.classes, t.Class)
	}
	for _, r := range f.PartRefs {
		b.partRefSets = append(b.partRefSets, r.Set)
		b.partRefTables = append(b.partRefTables, int32(r.Table))
	}
	return h
}

// writeV4 frames the head and slabs into a snapfmt container. All 15
// sections are always present (possibly empty) so readers parse one
// fixed shape.
func writeV4(w io.Writer, head v4Head, b *v4Builder) error {
	hb, err := json.Marshal(head)
	if err != nil {
		return fmt.Errorf("core: save: %w", err)
	}
	var fw snapfmt.Writer
	fw.SetHead(hb)
	fw.AddSection(secCompiledMeta, snapfmt.AppendSlice[uint64](nil, b.metas))
	fw.AddSection(secEdgeOff, snapfmt.AppendSlice[int32](nil, b.edgeOff))
	fw.AddSection(secEdgeTo, snapfmt.AppendSlice[int32](nil, b.edgeTo))
	fw.AddSection(secEdgeLabel, snapfmt.AppendSlice[int32](nil, b.edgeLabel))
	fw.AddSection(secLabels, snapfmt.AppendSlice[uint64](nil, b.labelWords))
	fw.AddSection(secFinal, b.final)
	fw.AddSection(secSeeds, b.seeds)
	fw.AddSection(secClasses, snapfmt.AppendSlice[int64](nil, b.classes))
	fw.AddSection(secPartRefSets, snapfmt.AppendSlice[vocab.Set](nil, b.partRefSets))
	fw.AddSection(secPartRefTables, snapfmt.AppendSlice[int32](nil, b.partRefTables))
	fw.AddSection(secQuotRefSets, nil)
	fw.AddSection(secQuotRefTables, nil)
	fw.AddSection(secIndexLabels, nil)
	fw.AddSection(secIndexLens, nil)
	fw.AddSection(secIndexWords, nil)
	if _, err := fw.WriteTo(w); err != nil {
		return fmt.Errorf("core: save: %w", err)
	}
	return nil
}

// SaveSharded writes one v4 container holding every shard's contracts
// merged in name order. The bytes depend only on the corpus, never on
// the shard count — a snapshot saved at N shards reloads at M. Each
// shard is drained (WaitIdle) first so a quiescent save captures all
// contracts at the full tier.
func SaveSharded(w io.Writer, opts Options, shards []*DB) error {
	for _, sh := range shards {
		sh.WaitIdle()
	}
	return saveContainer(w, opts, shards)
}

// saveContainer is the one snapshot writer: the contracts of shards,
// which share one vocabulary, in name order. The vocabulary is read
// after the contracts are gathered; it is append-only, so it names
// every event they cite.
func saveContainer(w io.Writer, opts Options, shards []*DB) error {
	var all []*Contract
	for _, sh := range shards {
		sh.mu.RLock()
		all = append(all, sh.contracts...)
		sh.mu.RUnlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	head := v4Head{
		FormatVersion: formatVersion,
		Sharded:       true,
		Events:        shards[0].voc.Names(),
		Opts:          opts,
	}
	var b v4Builder
	for _, c := range all {
		head.Contracts = append(head.Contracts, b.addContract(c))
	}
	return writeV4(w, head, &b)
}

// take removes the first n entries from *s, returning them with
// capacity clamped so later appends cannot reach the remainder.
func take[T any](s *[]T, n int, what string) ([]T, error) {
	if n < 0 || n > len(*s) {
		return nil, fmt.Errorf("slab underrun: need %d %s entries, have %d", n, what, len(*s))
	}
	out := (*s)[:n:n]
	*s = (*s)[n:]
	return out, nil
}

// v4Cursor walks the typed slab views in traversal order. The views
// alias the container buffer on little-endian hosts; everything
// handed out keeps that aliasing.
type v4Cursor struct {
	metas         []uint64
	edgeOff       []int32
	edgeTo        []int32
	edgeLabel     []int32
	labels        []buchi.Label
	final         []bool
	seeds         []bool
	classes       []int
	partRefSets   []vocab.Set
	partRefTables []int32
	quotRefSets   []vocab.Set
	quotRefTables []int32
	indexLabels   []buchi.Label
	indexLens     []int32
	indexWords    []uint64
}

func newV4Cursor(f *snapfmt.File) (*v4Cursor, error) {
	for kind := uint32(secCompiledMeta); kind <= secIndexWords; kind++ {
		if _, ok := f.Section(kind); !ok {
			return nil, fmt.Errorf("snapshot missing section %s", V4SectionName(kind))
		}
	}
	sec := func(kind uint32) []byte {
		b, _ := f.Section(kind)
		return b
	}
	cur := &v4Cursor{}
	var err error
	step := func(kind uint32, e error) {
		if err == nil && e != nil {
			err = fmt.Errorf("section %s: %w", V4SectionName(kind), e)
		}
	}
	var e error
	cur.metas, e = snapfmt.ViewSlice[uint64](sec(secCompiledMeta))
	step(secCompiledMeta, e)
	cur.edgeOff, e = snapfmt.ViewSlice[int32](sec(secEdgeOff))
	step(secEdgeOff, e)
	cur.edgeTo, e = snapfmt.ViewSlice[int32](sec(secEdgeTo))
	step(secEdgeTo, e)
	cur.edgeLabel, e = snapfmt.ViewSlice[int32](sec(secEdgeLabel))
	step(secEdgeLabel, e)
	cur.labels, e = viewLabels(sec(secLabels))
	step(secLabels, e)
	cur.final, e = viewBools(sec(secFinal))
	step(secFinal, e)
	cur.seeds, e = viewBools(sec(secSeeds))
	step(secSeeds, e)
	cur.classes, e = viewInts(sec(secClasses))
	step(secClasses, e)
	cur.partRefSets, e = viewSets(sec(secPartRefSets))
	step(secPartRefSets, e)
	cur.partRefTables, e = snapfmt.ViewSlice[int32](sec(secPartRefTables))
	step(secPartRefTables, e)
	cur.quotRefSets, e = viewSets(sec(secQuotRefSets))
	step(secQuotRefSets, e)
	cur.quotRefTables, e = snapfmt.ViewSlice[int32](sec(secQuotRefTables))
	step(secQuotRefTables, e)
	cur.indexLabels, e = viewLabels(sec(secIndexLabels))
	step(secIndexLabels, e)
	cur.indexLens, e = snapfmt.ViewSlice[int32](sec(secIndexLens))
	step(secIndexLens, e)
	cur.indexWords, e = snapfmt.ViewSlice[uint64](sec(secIndexWords))
	step(secIndexWords, e)
	if err != nil {
		return nil, err
	}
	return cur, nil
}

// takeCompiled consumes one compiled form. Shape counts come from the
// meta words; semantic validity is the shell adopter's job
// (validateCompiledSelf), which every consumer runs.
func (cur *v4Cursor) takeCompiled() (*buchi.Compiled, error) {
	m, err := take(&cur.metas, 4, "compiled-meta")
	if err != nil {
		return nil, err
	}
	n := int(uint32(m[0]))
	edges := int(uint32(m[1] >> 32))
	nLabels := int(uint32(m[2]))
	c := &buchi.Compiled{
		N:      n,
		Init:   buchi.StateID(int32(uint32(m[0] >> 32))),
		Events: vocab.Set(m[3]),
		MaxDeg: int(uint32(m[1])),
	}
	if c.EdgeOff, err = take(&cur.edgeOff, n+1, "edge-off"); err != nil {
		return nil, err
	}
	if c.EdgeTo, err = take(&cur.edgeTo, edges, "edge-to"); err != nil {
		return nil, err
	}
	if c.EdgeLabel, err = take(&cur.edgeLabel, edges, "edge-label"); err != nil {
		return nil, err
	}
	if c.Labels, err = take(&cur.labels, nLabels, "labels"); err != nil {
		return nil, err
	}
	if c.Final, err = take(&cur.final, n, "final"); err != nil {
		return nil, err
	}
	return c, nil
}

// restoreContract rebuilds one contract from the cursor: shell
// automaton over the adopted compiled form, persisted checker seeds,
// flat projection import. Nothing is flattened, translated or copied.
func (cur *v4Cursor) restoreContract(id ContractID, h v4ContractHead, stats *LoadStats) (*Contract, bool, error) {
	fail := func(err error) (*Contract, bool, error) {
		return nil, false, fmt.Errorf("contract %q: %w", h.Name, err)
	}
	spec, err := ltl.Parse(h.Spec)
	if err != nil {
		return fail(err)
	}
	cc, err := cur.takeCompiled()
	if err != nil {
		return fail(err)
	}
	auto, err := buchi.ShellFromCompiled(cc)
	if err != nil {
		return fail(err)
	}
	seeds, err := take(&cur.seeds, cc.N, "seeds")
	if err != nil {
		return fail(err)
	}
	stats.CompiledAdopted++
	c := &Contract{
		ID:      id,
		Name:    h.Name,
		Spec:    spec,
		auto:    auto,
		checker: permission.NewChecker(auto, permission.WithSeeds(seeds)),
		proj:    &projState{},
	}
	if h.Deferred {
		if h.PartTables != 0 || h.PartRefs != 0 || h.Quotients != 0 || h.QuotRefs != 0 {
			return fail(fmt.Errorf("deferred contract carries %d projection rows", h.PartRefs))
		}
		stats.Degraded++
		return c, true, nil
	}
	if h.PartRefs == 0 {
		return fail(fmt.Errorf("full-tier contract has no projection subsets"))
	}
	// The persisted label-event universe must cover every event the
	// kept labels cite and stay inside the automaton's alphabet; a
	// value outside that band would silently project against the
	// wrong subset lattice.
	var used vocab.Set
	for _, l := range cc.Labels {
		used = used.Union(l.Vars())
	}
	if !used.SubsetOf(h.LabelEvents) || !h.LabelEvents.SubsetOf(cc.Events) {
		return fail(fmt.Errorf("label events %v inconsistent with labels %v / alphabet %v",
			h.LabelEvents, used, cc.Events))
	}
	// Each table is cited by some ref (ImportFlat checks), so counts
	// the ref slab cannot back are refused before they size anything.
	if h.PartTables < 0 || h.PartTables > h.PartRefs || h.PartRefs > len(cur.partRefSets) {
		return fail(fmt.Errorf("head claims %d partition tables and %d refs, slab holds %d refs",
			h.PartTables, h.PartRefs, len(cur.partRefSets)))
	}
	flat := bisim.FlatProjections{MaxSubset: h.MaxSubset}
	flat.PartTables = make([]bisim.Partition, h.PartTables)
	for t := range flat.PartTables {
		cls, err := take(&cur.classes, cc.N, "classes")
		if err != nil {
			return fail(err)
		}
		count := 0
		for _, v := range cls {
			if v >= count {
				count = v + 1
			}
		}
		flat.PartTables[t] = bisim.Partition{Class: cls, Count: count}
	}
	sets, err := take(&cur.partRefSets, h.PartRefs, "part-ref-sets")
	if err != nil {
		return fail(err)
	}
	tables, err := take(&cur.partRefTables, h.PartRefs, "part-ref-tables")
	if err != nil {
		return fail(err)
	}
	flat.PartRefs = make([]bisim.PartRef, h.PartRefs)
	for i := range flat.PartRefs {
		flat.PartRefs[i] = bisim.PartRef{Set: sets[i], Table: int(tables[i])}
	}
	if err := cur.dropQuotients(h, cc.Events); err != nil {
		return fail(err)
	}
	ps, err := bisim.ImportFlat(auto, h.LabelEvents, flat)
	if err != nil {
		return fail(err)
	}
	c.proj.ps = ps
	return c, false, nil
}

// dropQuotients consumes a contract's stored quotient rows, which only
// snapshots written before quotients stopped being persisted hold.
// Each stored quotient must be a valid compiled form over the
// contract's alphabet, and the refs must be strictly sorted by subset
// and cite stored entries; then all of it is discarded — the query
// path derives every quotient from its partition.
func (cur *v4Cursor) dropQuotients(h v4ContractHead, events vocab.Set) error {
	for q := 0; q < h.Quotients; q++ {
		qc, err := cur.takeCompiled()
		if err != nil {
			return err
		}
		if qc.Events != events {
			return fmt.Errorf("quotient %d has event set %v, automaton has %v", q, qc.Events, events)
		}
		if _, err := buchi.ShellFromCompiled(qc); err != nil {
			return fmt.Errorf("quotient %d: %w", q, err)
		}
	}
	sets, err := take(&cur.quotRefSets, h.QuotRefs, "quot-ref-sets")
	if err != nil {
		return err
	}
	tables, err := take(&cur.quotRefTables, h.QuotRefs, "quot-ref-tables")
	if err != nil {
		return err
	}
	for i, t := range tables {
		if t < 0 || int(t) >= h.Quotients {
			return fmt.Errorf("quotient ref for %s cites entry %d of %d", sets[i], t, h.Quotients)
		}
		if i > 0 && sets[i] <= sets[i-1] {
			return fmt.Errorf("quotient refs not strictly sorted at %s", sets[i])
		}
	}
	return nil
}

// skipContract consumes one contract's slab rows without rebuilding
// anything — the inspection path's footprint walk.
func (cur *v4Cursor) skipContract(h v4ContractHead) error {
	cc, err := cur.takeCompiled()
	if err != nil {
		return err
	}
	if _, err := take(&cur.seeds, cc.N, "seeds"); err != nil {
		return err
	}
	if _, err := take(&cur.classes, h.PartTables*cc.N, "classes"); err != nil {
		return err
	}
	if _, err := take(&cur.partRefSets, h.PartRefs, "part-ref-sets"); err != nil {
		return err
	}
	if _, err := take(&cur.partRefTables, h.PartRefs, "part-ref-tables"); err != nil {
		return err
	}
	return cur.dropQuotients(h, cc.Events)
}

// remainingBytes reports the encoded size of everything the cursor
// has not yet consumed, used to attribute slab bytes per contract.
func (cur *v4Cursor) remainingBytes() int64 {
	i32 := len(cur.edgeOff) + len(cur.edgeTo) + len(cur.edgeLabel) +
		len(cur.partRefTables) + len(cur.quotRefTables) + len(cur.indexLens)
	u64 := len(cur.metas) + len(cur.classes) + len(cur.partRefSets) +
		len(cur.quotRefSets) + len(cur.indexWords)
	pairs := len(cur.labels) + len(cur.indexLabels)
	return int64(4*i32) + int64(8*u64) + int64(16*pairs) +
		int64(len(cur.final)) + int64(len(cur.seeds))
}

// assertDrained verifies exact consumption: a well-formed container
// has nothing left once every head entry is restored.
func (cur *v4Cursor) assertDrained() error {
	left := map[string]int{
		"compiled-meta":   len(cur.metas),
		"edge-off":        len(cur.edgeOff),
		"edge-to":         len(cur.edgeTo),
		"edge-label":      len(cur.edgeLabel),
		"labels":          len(cur.labels),
		"final":           len(cur.final),
		"seeds":           len(cur.seeds),
		"classes":         len(cur.classes),
		"part-ref-sets":   len(cur.partRefSets),
		"part-ref-tables": len(cur.partRefTables),
		"quot-ref-sets":   len(cur.quotRefSets),
		"quot-ref-tables": len(cur.quotRefTables),
		"index-labels":    len(cur.indexLabels),
		"index-lens":      len(cur.indexLens),
		"index-words":     len(cur.indexWords),
	}
	for _, name := range []string{
		"compiled-meta", "edge-off", "edge-to", "edge-label", "labels",
		"final", "seeds", "classes", "part-ref-sets", "part-ref-tables",
		"quot-ref-sets", "quot-ref-tables", "index-labels", "index-lens",
		"index-words",
	} {
		if left[name] > 0 {
			return fmt.Errorf("snapshot has %d unconsumed %s entries", left[name], name)
		}
	}
	return nil
}

// decodeV4Head parses the container and decodes its JSON head,
// checking the format version. Shared by the load, replay and inspect
// paths.
func decodeV4Head(data []byte) (*snapfmt.File, v4Head, error) {
	var head v4Head
	f, err := snapfmt.Parse(data)
	if err != nil {
		return nil, head, refuseForeign(err)
	}
	if err := json.Unmarshal(f.Head, &head); err != nil {
		return nil, head, fmt.Errorf("head: %w", err)
	}
	return f, head, checkVersion(head.FormatVersion)
}

// refuseForeign names bytes without the container magic — a gob
// snapshot or register record from an older build, or anything else —
// as ErrUnsupportedFormat; other framing errors pass through.
func refuseForeign(err error) error {
	if errors.Is(err, snapfmt.ErrNotContainer) {
		return fmt.Errorf("%w: no v4 container magic (pre-v4 gob bytes?)", ErrUnsupportedFormat)
	}
	return err
}

func checkVersion(v int) error {
	if v != formatVersion {
		return fmt.Errorf("%w: container has format version %d, this build reads %d", ErrUnsupportedFormat, v, formatVersion)
	}
	return nil
}

// LoadShardedV4 installs a v4 container's contracts into the
// databases chosen by place (the shard router, or one database for
// Load), rebuilding each one's prefilter index from the adopted
// compiled forms. It reads both heads: a sharded container carries no
// index, and an older unsharded one's index sections are skipped. All
// target databases must share one vocabulary built from the
// snapshot's events. Every adopted slab aliases data, so data must
// stay valid and unmodified for the databases' lifetime; the store
// owns that lifetime when data is a file mapping.
func LoadShardedV4(data []byte, place func(name string) *DB, stats *LoadStats) error {
	t := time.Now()
	f, head, err := decodeV4Head(data)
	if err != nil {
		return fmt.Errorf("core: load: %w", err)
	}
	stats.FormatVersion = head.FormatVersion
	stats.Sections = len(f.Sections)
	stats.SlabBytes = f.SlabBytes()
	if head.Sharded && head.IndexNodes != 0 {
		return fmt.Errorf("core: load: sharded snapshot carries a prefilter index (%d nodes); indexes are per-shard and rebuilt at load", head.IndexNodes)
	}
	cur, err := newV4Cursor(f)
	if err != nil {
		return fmt.Errorf("core: load: %w", err)
	}
	if len(cur.indexLabels) != head.IndexNodes {
		return fmt.Errorf("core: load: head claims %d index nodes, slab holds %d",
			head.IndexNodes, len(cur.indexLabels))
	}
	cur.indexLabels, cur.indexLens, cur.indexWords = nil, nil, nil
	if !snapfmt.HostZeroCopy() {
		stats.CopiedBytes = stats.SlabBytes
	} else if !hostAdoptsInts() {
		if b, ok := f.Section(secClasses); ok {
			stats.CopiedBytes = int64(len(b))
		}
	}
	stats.Decode = time.Since(t)
	t = time.Now()
	for _, h := range head.Contracts {
		db := place(h.Name)
		if db == nil {
			return fmt.Errorf("core: load: no shard for contract %q", h.Name)
		}
		c, wasDeferred, err := cur.restoreContract(0, h, stats)
		if err != nil {
			return fmt.Errorf("core: load: %w", err)
		}
		if err := db.install(c, wasDeferred, nil); err != nil {
			return fmt.Errorf("core: load: %w", err)
		}
	}
	if err := cur.assertDrained(); err != nil {
		return fmt.Errorf("core: load: %w", err)
	}
	stats.Contracts = len(head.Contracts)
	stats.Restore = time.Since(t)
	return nil
}

// errDuplicate reports a contract name the target database already
// holds.
var errDuplicate = errors.New("duplicate contract name")

// install adds a restored contract to db under the next dense id,
// posting it to the prefilter index from its compiled form, and
// re-pends it when deferred: the one per-contract step snapshot load
// and register-record replay share. events, when non-nil, is the
// vocabulary the contract's labels were minted against (see
// internEvents). A name db already holds is refused with errDuplicate
// and leaves db unchanged.
func (db *DB) install(c *Contract, deferred bool, events []string) error {
	db.mu.Lock()
	if _, dup := db.byName[c.Name]; dup {
		db.mu.Unlock()
		return fmt.Errorf("%w %q", errDuplicate, c.Name)
	}
	if err := internEvents(db.voc, events); err != nil {
		db.mu.Unlock()
		return err
	}
	c.ID = ContractID(len(db.contracts))
	db.contracts = append(db.contracts, c)
	db.byName[c.Name] = c
	db.index.InsertPrepared(int(c.ID), prefilter.PrepareCompiled(c.auto.Compiled(), db.index.K()))
	db.epoch++
	ingest := db.ingest
	db.mu.Unlock()
	if deferred {
		if ingest != nil {
			ingest.enqueue(c)
		} else {
			db.promote(c)
		}
	}
	return nil
}

// SnapshotInfo is the cheap view of a v4 container's head: enough to
// build the target databases before the loader validates any slab.
type SnapshotInfo struct {
	Sharded   bool
	Events    []string
	Opts      Options
	Contracts int
}

// PeekV4 decodes only the head of a v4 container. It does not
// validate section checksums — callers must still run a full loader
// before trusting any slab.
func PeekV4(data []byte) (SnapshotInfo, error) {
	var info SnapshotInfo
	hb, err := snapfmt.PeekHead(data)
	if err != nil {
		return info, fmt.Errorf("core: peek: %w", refuseForeign(err))
	}
	var head v4Head
	if err := json.Unmarshal(hb, &head); err != nil {
		return info, fmt.Errorf("core: peek: head: %w", err)
	}
	if err := checkVersion(head.FormatVersion); err != nil {
		return info, fmt.Errorf("core: peek: %w", err)
	}
	info.Sharded = head.Sharded
	info.Events = head.Events
	info.Opts = head.Opts
	info.Contracts = len(head.Contracts)
	return info, nil
}

// SectionInfo is one section directory row for inspection output.
type SectionInfo struct {
	Kind  uint32
	Name  string
	Bytes int64
	CRC   uint32
}

// ContractFootprint attributes slab bytes to one contract.
type ContractFootprint struct {
	Name      string
	Deferred  bool
	SlabBytes int64
}

// SnapshotInspection is the `ctdb snapshot inspect` view of a
// snapshot file or register record: its section directory and
// per-contract slab footprint.
type SnapshotInspection struct {
	FormatVersion int
	Sharded       bool
	Events        int
	Contracts     int
	Deferred      int
	FileBytes     int64
	HeadBytes     int64
	SlabBytes     int64
	Sections      []SectionInfo
	PerContract   []ContractFootprint
}

// InspectSnapshot reads a v4 container's structure without building a
// database: the container is fully CRC-validated and walked for
// per-contract footprints. Anything else is refused with
// ErrUnsupportedFormat.
func InspectSnapshot(data []byte) (*SnapshotInspection, error) {
	f, head, err := decodeV4Head(data)
	if err != nil {
		return nil, fmt.Errorf("core: inspect: %w", err)
	}
	insp := &SnapshotInspection{
		FormatVersion: head.FormatVersion,
		Sharded:       head.Sharded,
		Events:        len(head.Events),
		Contracts:     len(head.Contracts),
		FileBytes:     int64(len(data)),
		HeadBytes:     int64(len(f.Head)),
		SlabBytes:     f.SlabBytes(),
	}
	for _, s := range f.Sections {
		insp.Sections = append(insp.Sections, SectionInfo{
			Kind:  s.Kind,
			Name:  V4SectionName(s.Kind),
			Bytes: int64(s.Len),
			CRC:   s.CRC,
		})
	}
	cur, err := newV4Cursor(f)
	if err != nil {
		return nil, fmt.Errorf("core: inspect: %w", err)
	}
	for _, h := range head.Contracts {
		before := cur.remainingBytes()
		if err := cur.skipContract(h); err != nil {
			return nil, fmt.Errorf("core: inspect: contract %q: %w", h.Name, err)
		}
		if h.Deferred {
			insp.Deferred++
		}
		insp.PerContract = append(insp.PerContract, ContractFootprint{
			Name:      h.Name,
			Deferred:  h.Deferred,
			SlabBytes: before - cur.remainingBytes(),
		})
	}
	return insp, nil
}
