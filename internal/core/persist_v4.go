package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
//	    checker seeds: N bytes
//	    PartTables × class tables (N int64 each, first-occurrence
//	        order of the Set-sorted reference list)
//	    PartRefs × (set word, table index)
//
// The writer (DB.Save) emits one shape: Sharded=true, contracts in
// name order, and the five legacy sections (quotient refs and
// prefilter index) present but empty. Prefilter indexes are rebuilt at
// load from the adopted compiled forms (PrepareCompiled).
// A WAL register record is the same shape holding one contract (see
// durable.go).
//
// Older writers left three other v4 shapes: unsharded heads carrying
// a prefilter index, contracts carrying persisted quotients, and
// Deferred register records logged before the projection precompute.
// Every reader refuses them with ErrUnsupportedFormat naming the shape
// (v4Head.check, newV4Cursor), as it refuses pre-v4 gob; the upgrade
// path is the one that error states.

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

	// Deferred (a record logged before its projection precompute) and
	// Quotients/QuotRefs (persisted quotient rows) describe legacy
	// shapes: the writer leaves them zero, and readers refuse a head
	// that sets them.
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

	// Sharded is always true, and the prefilter index shape of an
	// older unsharded head always zero, in what the writer emits;
	// readers refuse anything else.
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
// head entry. The projection set's export needs no lock.
func (b *v4Builder) addContract(c *Contract) v4ContractHead {
	h := v4ContractHead{Name: c.Name, Spec: c.Spec.String()}
	b.addCompiled(c.auto.Compiled())
	b.seeds = appendBools(b.seeds, c.checker.Seeds())
	ps := c.proj.ps
	f := ps.ExportFlat()
	h.LabelEvents = ps.LabelEvents()
	h.MaxSubset = f.MaxSubset
	h.PartTables = len(f.PartTables)
	h.PartRefs = len(f.RefSets)
	for _, t := range f.PartTables {
		b.classes = appendInts(b.classes, t.Class)
	}
	b.partRefSets = append(b.partRefSets, f.RefSets...)
	b.partRefTables = append(b.partRefTables, f.RefTables...)
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
}

// newV4Cursor views the container's sections, refusing a non-empty
// legacy section (quotient refs or a prefilter index) by name.
func newV4Cursor(f *snapfmt.File) (*v4Cursor, error) {
	for kind := uint32(secCompiledMeta); kind <= secIndexWords; kind++ {
		b, ok := f.Section(kind)
		if !ok {
			return nil, fmt.Errorf("snapshot missing section %s", V4SectionName(kind))
		}
		if kind >= secQuotRefSets && len(b) != 0 {
			return nil, fmt.Errorf("%w: legacy section %s holds %d bytes", ErrUnsupportedFormat, V4SectionName(kind), len(b))
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
// and the projection set adopting its class, subset and reference
// slabs as they are. Nothing is flattened, translated or copied.
func (cur *v4Cursor) restoreContract(h v4ContractHead, stats *LoadStats) (*Contract, error) {
	fail := func(err error) (*Contract, error) {
		return nil, fmt.Errorf("contract %q: %w", h.Name, err)
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
	if h.PartRefs == 0 {
		return fail(fmt.Errorf("contract has no projection subsets"))
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
	if flat.RefSets, err = take(&cur.partRefSets, h.PartRefs, "part-ref-sets"); err != nil {
		return fail(err)
	}
	if flat.RefTables, err = take(&cur.partRefTables, h.PartRefs, "part-ref-tables"); err != nil {
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
	_, err = take(&cur.partRefTables, h.PartRefs, "part-ref-tables")
	return err
}

// remainingBytes reports the encoded size of everything the cursor
// has not yet consumed, used to attribute slab bytes per contract.
func (cur *v4Cursor) remainingBytes() int64 {
	i32 := len(cur.edgeOff) + len(cur.edgeTo) + len(cur.edgeLabel) + len(cur.partRefTables)
	u64 := len(cur.metas) + len(cur.classes) + len(cur.partRefSets)
	return int64(4*i32) + int64(8*u64) + int64(16*len(cur.labels)) +
		int64(len(cur.final)) + int64(len(cur.seeds))
}

// assertDrained verifies exact consumption: a well-formed container
// has nothing left once every head entry is restored.
func (cur *v4Cursor) assertDrained() error {
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
			return fmt.Errorf("snapshot has %d unconsumed %s entries", left, V4SectionName(uint32(kind)))
		}
	}
	return nil
}

// decodeV4Head parses the container and decodes its JSON head,
// checking the format version and shape. Shared by the load, replay
// and inspect paths.
func decodeV4Head(data []byte) (*snapfmt.File, v4Head, error) {
	var head v4Head
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
func (head *v4Head) check() error {
	if head.FormatVersion != formatVersion {
		return fmt.Errorf("%w: container has format version %d, this build reads %d",
			ErrUnsupportedFormat, head.FormatVersion, formatVersion)
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
// adopted compiled form before the lock is taken, and it is never
// logged again.
func (db *DB) publishRestored(c *Contract) error {
	t := time.Now()
	p := pending{c: c, prep: prefilter.PrepareCompiled(c.auto.Compiled(), db.index.K()), restored: true}
	cost := regCost{index: time.Since(t)}
	cost.total = cost.index
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.publishLocked(p, cost); err != nil {
		return fmt.Errorf("contract %q: %w", c.Name, err)
	}
	return nil
}

// SnapshotInfo is the cheap view of a v4 container's head: enough to
// build the target databases before the loader validates any slab.
type SnapshotInfo struct {
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
	if err := head.check(); err != nil {
		return info, fmt.Errorf("core: peek: %w", err)
	}
	return head.info(), nil
}

func (head *v4Head) info() SnapshotInfo {
	return SnapshotInfo{Events: head.Events, Opts: head.Opts, Contracts: len(head.Contracts)}
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

// InspectSnapshot reads a v4 container's structure without building a
// database: the container is fully CRC-validated and walked for
// per-contract footprints. Anything else — pre-v4 bytes or a legacy v4
// shape — is refused with ErrUnsupportedFormat.
func InspectSnapshot(data []byte) (*SnapshotInspection, error) {
	f, head, err := decodeV4Head(data)
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
		insp.PerContract = append(insp.PerContract, ContractFootprint{
			Name:      h.Name,
			SlabBytes: before - cur.remainingBytes(),
		})
	}
	return insp, nil
}
