package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"contractdb/internal/bisim"
	"contractdb/internal/buchi"
	"contractdb/internal/ltl"
	"contractdb/internal/permission"
	"contractdb/internal/prefilter"
	"contractdb/internal/snapfmt"
	"contractdb/internal/vocab"
)

// formatVersion 5 is a snapfmt container: a small JSON head carrying
// names, specs, options and per-contract shape counts, followed by
// flat little-endian slabs holding every hot numeric table — compiled
// automata (CSR arrays, label words, final bits), checker seeds,
// partition class tables and partition references. A contract is
// stored as §5.2 proposes, by its partitions ("just the list of
// bisimilar states"); projection quotients are derived on first use.
// Nothing derivable is stored: the precomputed event subsets are the
// subsets of the contract's LabelEvents of size ≤ MaxSubset, both in
// the head, so a reference is addressed by its subset's rank
// (bisim.Subsets). Load adopts the slabs as typed views without
// copying (see slabview.go), so cold start costs O(page-in) of the
// file, not O(decode) of its contents.
//
// Slab traversal order (save writes and load consumes in lockstep;
// exact consumption is enforced, leftovers are corruption):
//
//	per contract, in head order:
//	    auto compiled: 4 meta words, EdgeOff (N+1), EdgeTo (E),
//	        EdgeLabel (E), Labels (L pairs), Final (N bytes)
//	    checker seeds: N bytes
//	    PartTables × class tables (N int32 each, first-occurrence
//	        order of the references)
//	    one table index per subset, in rank order
//
// The writer (DB.Save) emits one shape: Sharded=true, contracts in
// name order, sections 1–8 and 10. Prefilter indexes are rebuilt at
// load from the adopted automata's label tables (prefilter.Prepare). A WAL
// register record is the same shape holding one contract (see
// durable.go).
//
// formatVersion 4 stays readable: its int64 classes are narrowed into
// one heap copy, its part-ref-sets section must list the subsets in
// rank order, and its five other legacy sections must be empty. The
// legacy v4 shapes — unsharded heads carrying a prefilter index,
// persisted quotients, and Deferred register records logged before the
// projection precompute — are refused with ErrUnsupportedFormat naming
// the shape (snapHead.check, newSlabCursor), as pre-v4 gob is; the
// upgrade path is the one that error states.

// Section kinds of the container, in file order. Kinds 9 and 11–15
// exist only in v4 files.
const (
	secCompiledMeta  = 1  // 4 uint64 words per compiled form
	secEdgeOff       = 2  // int32
	secEdgeTo        = 3  // int32
	secEdgeLabel     = 4  // int32
	secLabels        = 5  // uint64 (Pos, Neg) pairs
	secFinal         = 6  // 0/1 bytes
	secSeeds         = 7  // 0/1 bytes
	secClasses       = 8  // int32 (v4: int64)
	secPartRefSets   = 9  // v4: uint64
	secPartRefTables = 10 // int32
	secQuotRefSets   = 11 // v4, empty
	secQuotRefTables = 12 // v4, empty
	secIndexLabels   = 13 // v4, empty
	secIndexLens     = 14 // v4, empty
	secIndexWords    = 15 // v4, empty
)

var sectionNames = map[uint32]string{
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

// SectionName names a section kind for inspection output and errors;
// unknown kinds render numerically.
func SectionName(kind uint32) string {
	if n, ok := sectionNames[kind]; ok {
		return n
	}
	return fmt.Sprintf("kind-%d", kind)
}

// contractHead is the per-contract metadata in the head: the strings
// and the slab shape counts the load cursor consumes by.
type contractHead struct {
	Name string
	Spec string

	// Deferred (a record logged before its projection precompute) and
	// Quotients/QuotRefs (persisted quotient rows) describe legacy v4
	// shapes: the writer omits them, and readers refuse a head that
	// sets them. v4 heads also carry PartRefs, the subset count this
	// build derives from LabelEvents and MaxSubset.
	Deferred bool `json:",omitempty"`

	// LabelEvents is the projection set's label-event universe,
	// persisted so import never walks the automaton's adjacency; with
	// MaxSubset it fixes the precomputed subsets.
	LabelEvents vocab.Set
	MaxSubset   int

	PartTables int
	Quotients  int `json:",omitempty"`
	QuotRefs   int `json:",omitempty"`
}

// snapHead is the head of a container, serialized as JSON rather
// than gob: gob assigns wire type IDs from a process-global counter,
// so its bytes for the same value depend on what else the process has
// encoded — fatal for the byte-determinism guarantee Save carries.
// JSON emits struct fields in declaration order with no global state,
// and Go's encoder round-trips uint64 (vocab.Set) exactly.
type snapHead struct {
	FormatVersion int
	Sharded       bool
	Events        []string
	Opts          Options

	// Sharded is always true, and the prefilter index shape of an
	// older unsharded head always zero (omitted), in what the writer
	// emits; readers refuse anything else.
	IndexK     int `json:",omitempty"`
	IndexN     int `json:",omitempty"`
	IndexNodes int `json:",omitempty"`

	Contracts []contractHead
}

// packMeta appends an automaton's scalar shape as 4 uint64 words:
//
//	word0 = N | Init<<32        word1 = MaxDeg | NumEdges<<32
//	word2 = len(Labels)         word3 = Events
//
// All halves are uint32; automata near 2^31 states blow the int32 CSR
// arrays long before this packing.
func packMeta(dst []uint64, c *buchi.BA) []uint64 {
	return append(dst,
		uint64(uint32(c.NumStates()))|uint64(uint32(c.Init))<<32,
		uint64(uint32(c.MaxDeg))|uint64(uint32(len(c.EdgeTo)))<<32,
		uint64(uint32(len(c.Labels))),
		uint64(c.Events),
	)
}

// slabs accumulates the slab arrays while contracts are
// exported.
type slabs struct {
	metas      []uint64
	edgeOff    []int32
	edgeTo     []int32
	edgeLabel  []int32
	labelWords []uint64
	final      []byte
	seeds      []byte

	classes       []int32
	partRefTables []int32
}

func (b *slabs) addCompiled(c *buchi.BA) {
	b.metas = packMeta(b.metas, c)
	b.edgeOff = append(b.edgeOff, c.EdgeOff...)
	b.edgeTo = append(b.edgeTo, c.EdgeTo...)
	b.edgeLabel = append(b.edgeLabel, c.EdgeLabel...)
	b.labelWords = appendLabels(b.labelWords, c.Labels)
	b.final = appendBools(b.final, c.Final)
}

// addContract exports one contract into the builder and returns its
// head entry. The projection set's export needs no lock.
func (b *slabs) addContract(c *Contract) contractHead {
	h := contractHead{Name: c.Name, Spec: c.Spec.String()}
	b.addCompiled(c.auto)
	b.seeds = appendBools(b.seeds, c.checker.Seeds())
	ps := c.proj.ps
	f := ps.ExportFlat()
	h.LabelEvents = ps.LabelEvents()
	h.MaxSubset = f.MaxSubset
	h.PartTables = len(f.PartTables)
	for _, t := range f.PartTables {
		b.classes = append(b.classes, t.Class...)
	}
	b.partRefTables = append(b.partRefTables, f.RefTables...)
	return h
}

// writeContainer frames the head and slabs into a snapfmt container.
// Its nine sections are always present (possibly empty) so readers
// parse one fixed shape.
func writeContainer(w io.Writer, head snapHead, b *slabs) error {
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
	fw.AddSection(secClasses, snapfmt.AppendSlice[int32](nil, b.classes))
	fw.AddSection(secPartRefTables, snapfmt.AppendSlice[int32](nil, b.partRefTables))
	if _, err := fw.WriteTo(w); err != nil {
		return fmt.Errorf("core: save: %w", err)
	}
	return nil
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

// slabCursor walks the typed slab views in traversal order. The views
// alias the container buffer on little-endian hosts (but v4 classes,
// narrowed into a heap copy); everything handed out keeps that.
type slabCursor struct {
	version       int
	metas         []uint64
	edgeOff       []int32
	edgeTo        []int32
	edgeLabel     []int32
	labels        []buchi.Label
	final         []bool
	seeds         []bool
	classes       []int32
	partRefSets   []vocab.Set // v4 only
	partRefTables []int32
}

// newSlabCursor views the sections of a container of the given format
// version, refusing a non-empty legacy section (quotient refs, a
// prefilter index, or a v5 subset list) by name.
func newSlabCursor(f *snapfmt.File, version int) (*slabCursor, error) {
	for kind := uint32(secCompiledMeta); kind <= secIndexWords; kind++ {
		b, ok := f.Section(kind)
		switch legacy := kind >= secQuotRefSets || kind == secPartRefSets && version > 4; {
		case !legacy && !ok:
			return nil, fmt.Errorf("snapshot missing section %s", SectionName(kind))
		case legacy && len(b) != 0:
			return nil, fmt.Errorf("%w: legacy section %s holds %d bytes", ErrUnsupportedFormat, SectionName(kind), len(b))
		}
	}
	sec := func(kind uint32) []byte {
		b, _ := f.Section(kind)
		return b
	}
	cur := &slabCursor{version: version}
	var err error
	step := func(kind uint32, e error) {
		if err == nil && e != nil {
			err = fmt.Errorf("section %s: %w", SectionName(kind), e)
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
	if version == 4 {
		cur.classes, e = narrowClasses(sec(secClasses))
	} else {
		cur.classes, e = snapfmt.ViewSlice[int32](sec(secClasses))
	}
	step(secClasses, e)
	cur.partRefSets, e = snapfmt.ViewSlice[vocab.Set](sec(secPartRefSets))
	step(secPartRefSets, e)
	cur.partRefTables, e = snapfmt.ViewSlice[int32](sec(secPartRefTables))
	step(secPartRefTables, e)
	if err != nil {
		return nil, err
	}
	return cur, nil
}

// takeCompiled consumes one automaton's arrays, adopting them without
// a copy. Shape counts come from the meta words; semantic validity is
// BA.Validate's job, which every consumer runs.
func (cur *slabCursor) takeCompiled() (*buchi.BA, error) {
	m, err := take(&cur.metas, 4, "compiled-meta")
	if err != nil {
		return nil, err
	}
	n := int(uint32(m[0]))
	edges := int(uint32(m[1] >> 32))
	nLabels := int(uint32(m[2]))
	c := &buchi.BA{
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

// restoreContract rebuilds one contract from the cursor: the automaton
// over its adopted arrays, persisted checker seeds,
// and the projection set adopting its class and reference slabs as
// they are. Nothing is built from rows, translated or copied.
func (cur *slabCursor) restoreContract(h contractHead, stats *LoadStats) (*Contract, error) {
	fail := func(err error) (*Contract, error) {
		return nil, fmt.Errorf("contract %q: %w", h.Name, err)
	}
	spec, err := ltl.Parse(h.Spec)
	if err != nil {
		return fail(err)
	}
	auto, err := cur.takeCompiled()
	if err != nil {
		return fail(err)
	}
	if err := auto.Validate(); err != nil {
		return fail(err)
	}
	seeds, err := take(&cur.seeds, auto.NumStates(), "seeds")
	if err != nil {
		return fail(err)
	}
	stats.CompiledAdopted++
	refs := bisim.SubsetCount(h.LabelEvents, h.MaxSubset)
	if refs == 0 {
		return fail(fmt.Errorf("contract has no projection subsets"))
	}
	// The persisted label-event universe must cover every event the
	// kept labels cite and stay inside the automaton's alphabet; a
	// value outside that band would silently project against the
	// wrong subset lattice.
	var used vocab.Set
	for _, l := range auto.Labels {
		used = used.Union(l.Vars())
	}
	if !used.SubsetOf(h.LabelEvents) || !h.LabelEvents.SubsetOf(auto.Events) {
		return fail(fmt.Errorf("label events %v inconsistent with labels %v / alphabet %v",
			h.LabelEvents, used, auto.Events))
	}
	// Each table is cited by some ref (ImportFlat checks), so counts
	// the ref slab cannot back are refused before they size anything.
	if h.PartTables < 0 || h.PartTables > refs || refs > len(cur.partRefTables) {
		return fail(fmt.Errorf("head implies %d partition tables and %d refs, slab holds %d refs",
			h.PartTables, refs, len(cur.partRefTables)))
	}
	flat := bisim.FlatProjections{MaxSubset: h.MaxSubset}
	flat.PartTables = make([]bisim.Partition, h.PartTables)
	for t := range flat.PartTables {
		cls, err := take(&cur.classes, auto.NumStates(), "classes")
		if err != nil {
			return fail(err)
		}
		count := 0
		for _, v := range cls {
			count = max(count, int(v)+1)
		}
		flat.PartTables[t] = bisim.Partition{Class: cls, Count: count}
	}
	if err := cur.takeV4Sets(h, refs); err != nil {
		return fail(err)
	}
	if flat.RefTables, err = take(&cur.partRefTables, refs, "part-ref-tables"); err != nil {
		return fail(err)
	}
	ps, err := bisim.ImportFlat(auto, h.LabelEvents, flat)
	if err != nil {
		return fail(err)
	}
	return &Contract{
		Name:    h.Name,
		Spec:    spec,
		auto:    auto,
		checker: permission.NewChecker(auto, permission.WithSeeds(seeds)),
		proj:    &projState{ps: ps},
	}, nil
}

// takeV4Sets consumes a v4 contract's subset list, which must be the
// rank enumeration a v5 reader derives; a v4 file listing other
// subsets is refused by name.
func (cur *slabCursor) takeV4Sets(h contractHead, refs int) error {
	if cur.version != 4 {
		return nil
	}
	sets, err := take(&cur.partRefSets, refs, "part-ref-sets")
	if err == nil && !slices.Equal(sets, slices.Collect(bisim.Subsets(h.LabelEvents, h.MaxSubset))) {
		err = fmt.Errorf("%w: v4 part-ref-sets are not the subsets of %v up to size %d", ErrUnsupportedFormat, h.LabelEvents, h.MaxSubset)
	}
	return err
}

// skipContract consumes one contract's slab rows without rebuilding
// anything — the inspection path's footprint walk.
func (cur *slabCursor) skipContract(h contractHead) error {
	cc, err := cur.takeCompiled()
	if err != nil {
		return err
	}
	if _, err := take(&cur.seeds, cc.NumStates(), "seeds"); err != nil {
		return err
	}
	if _, err := take(&cur.classes, h.PartTables*cc.NumStates(), "classes"); err != nil {
		return err
	}
	refs := bisim.SubsetCount(h.LabelEvents, h.MaxSubset)
	if err := cur.takeV4Sets(h, refs); err != nil {
		return err
	}
	_, err = take(&cur.partRefTables, refs, "part-ref-tables")
	return err
}

// remainingBytes reports the encoded size of everything the cursor
// has not yet consumed, used to attribute slab bytes per contract.
func (cur *slabCursor) remainingBytes() int64 {
	classBytes := 4
	if cur.version == 4 {
		classBytes = 8 // v4 classes are int64 in the file
	}
	i32 := len(cur.edgeOff) + len(cur.edgeTo) + len(cur.edgeLabel) + len(cur.partRefTables)
	u64 := len(cur.metas) + len(cur.partRefSets)
	return int64(4*i32) + int64(8*u64) + int64(16*len(cur.labels)) + int64(classBytes*len(cur.classes)) +
		int64(len(cur.final)) + int64(len(cur.seeds))
}

// assertDrained verifies exact consumption: a well-formed container
// has nothing left once every head entry is restored.
func (cur *slabCursor) assertDrained() error {
	for kind, left := range []int{
		secCompiledMeta:  len(cur.metas),
		secEdgeOff:       len(cur.edgeOff),
		secEdgeTo:        len(cur.edgeTo),
		secEdgeLabel:     len(cur.edgeLabel),
		secLabels:        len(cur.labels),
		secFinal:         len(cur.final),
		secSeeds:         len(cur.seeds),
		secClasses:       len(cur.classes),
		secPartRefSets:   len(cur.partRefSets),
		secPartRefTables: len(cur.partRefTables),
	} {
		if left > 0 {
			return fmt.Errorf("snapshot has %d unconsumed %s entries", left, SectionName(uint32(kind)))
		}
	}
	return nil
}

// decodeHead parses the container and decodes its JSON head, checking
// the format version and shape. Shared by the load, replay and inspect
// paths.
func decodeHead(data []byte) (*snapfmt.File, snapHead, error) {
	var head snapHead
	f, err := snapfmt.Parse(data)
	if err != nil {
		return nil, head, refuseForeign(err)
	}
	if err := json.Unmarshal(f.Head, &head); err != nil {
		return nil, head, fmt.Errorf("head: %w", err)
	}
	return f, head, head.check()
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

// check refuses, with ErrUnsupportedFormat naming what it found, a
// head of another format version or of a legacy v4 shape.
func (head *snapHead) check() error {
	if head.FormatVersion < minFormatVersion || head.FormatVersion > formatVersion {
		return fmt.Errorf("%w: container has format version %d, this build reads %d and %d",
			ErrUnsupportedFormat, head.FormatVersion, minFormatVersion, formatVersion)
	}
	var legacy []string
	if !head.Sharded {
		legacy = append(legacy, "an unsharded head")
	}
	if head.IndexK != 0 || head.IndexN != 0 || head.IndexNodes != 0 {
		legacy = append(legacy, fmt.Sprintf("a persisted prefilter index (%d nodes)", head.IndexNodes))
	}
	deferred, quotients := 0, 0
	for _, h := range head.Contracts {
		if h.Deferred {
			deferred++
		}
		if h.Quotients != 0 || h.QuotRefs != 0 {
			quotients++
		}
	}
	if deferred > 0 {
		legacy = append(legacy, fmt.Sprintf("%d deferred contract(s) (logged before the projection precompute)", deferred))
	}
	if quotients > 0 {
		legacy = append(legacy, fmt.Sprintf("%d contract(s) with persisted quotients", quotients))
	}
	if len(legacy) > 0 {
		return fmt.Errorf("%w: legacy v4 shape: %s", ErrUnsupportedFormat, strings.Join(legacy, ", "))
	}
	return nil
}

// publishRestored publishes a contract read from a snapshot or the
// log through publishLocked. Its prefilter nodes are prepared from the
// adopted automaton before the lock is taken, and it is never logged
// again.
func (db *DB) publishRestored(c *Contract) error {
	t := time.Now()
	p := pending{c: c, prep: prefilter.Prepare(c.auto, db.index.K()), restored: true}
	cost := regCost{index: time.Since(t)}
	cost.total = cost.index
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.publishLocked(p, cost); err != nil {
		return fmt.Errorf("contract %q: %w", c.Name, err)
	}
	return nil
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
	SlabBytes int64
}

// SnapshotInspection is the `ctdb snapshot inspect` view of a
// snapshot file or register record: its section directory and
// per-contract slab footprint.
type SnapshotInspection struct {
	FormatVersion int
	Events        int
	Contracts     int
	FileBytes     int64
	HeadBytes     int64
	SlabBytes     int64
	Sections      []SectionInfo
	PerContract   []ContractFootprint
}

// InspectSnapshot reads a v4 or v5 container's structure without
// building a database: the container is fully CRC-validated and walked
// for per-contract footprints. Anything else — pre-v4 bytes or a
// legacy v4 shape — is refused with ErrUnsupportedFormat.
func InspectSnapshot(data []byte) (*SnapshotInspection, error) {
	f, head, err := decodeHead(data)
	if err != nil {
		return nil, fmt.Errorf("core: inspect: %w", err)
	}
	insp := &SnapshotInspection{
		FormatVersion: head.FormatVersion,
		Events:        len(head.Events),
		Contracts:     len(head.Contracts),
		FileBytes:     int64(len(data)),
		HeadBytes:     int64(len(f.Head)),
		SlabBytes:     f.SlabBytes(),
	}
	for _, s := range f.Sections {
		insp.Sections = append(insp.Sections, SectionInfo{
			Kind:  s.Kind,
			Name:  SectionName(s.Kind),
			Bytes: int64(s.Len),
			CRC:   s.CRC,
		})
	}
	cur, err := newSlabCursor(f, head.FormatVersion)
	if err != nil {
		return nil, fmt.Errorf("core: inspect: %w", err)
	}
	for _, h := range head.Contracts {
		before := cur.remainingBytes()
		if err := cur.skipContract(h); err != nil {
			return nil, fmt.Errorf("core: inspect: contract %q: %w", h.Name, err)
		}
		insp.PerContract = append(insp.PerContract, ContractFootprint{
			Name:      h.Name,
			SlabBytes: before - cur.remainingBytes(),
		})
	}
	return insp, nil
}
