package bisim

import (
	"fmt"

	"contractdb/internal/buchi"
	"contractdb/internal/vocab"
)

// ProjectionEntry is one serialized (event subset, partition table)
// row of a ProjectionSet.
type ProjectionEntry struct {
	Set   vocab.Set
	Class []int
}

// ProjectionSnapshot is the gob form of a ProjectionSet in
// formatVersion 2 and 3 streams: the per-subset partition tables,
// exactly the "list of bisimilar states" representation §5.2 proposes
// for storage. Entries are sorted by event subset so encoding is
// byte-deterministic. Streams written while the format also carried a
// quotient table still decode: gob skips the fields this struct no
// longer declares, and every quotient is derived on first use.
type ProjectionSnapshot struct {
	MaxSubset int
	Parts     []ProjectionEntry
}

// Export renders the precomputed partitions, one entry per subset,
// from the set's export memo (see ExportFlat). The returned slices
// alias the memo; treat them as read-only.
func (ps *ProjectionSet) Export() ProjectionSnapshot {
	f := ps.exportMemo()
	s := ProjectionSnapshot{MaxSubset: f.MaxSubset, Parts: make([]ProjectionEntry, len(f.PartRefs))}
	for i, ref := range f.PartRefs {
		s.Parts[i] = ProjectionEntry{Set: ref.Set, Class: f.PartTables[ref.Table].Class}
	}
	return s
}

// ImportProjections rebuilds a ProjectionSet for auto from a
// snapshot. Partition tables identical across subsets are re-shared.
func ImportProjections(auto *buchi.BA, s ProjectionSnapshot) (*ProjectionSet, error) {
	ps := &ProjectionSet{
		Auto:      auto,
		MaxSubset: s.MaxSubset,
		parts:     make(map[vocab.Set]*Partition, len(s.Parts)),
		quotients: make(map[vocab.Set]*buchi.BA),
	}
	for _, out := range auto.Out {
		for _, e := range out {
			ps.labelEvents = ps.labelEvents.Union(e.Label.Vars())
		}
	}
	dedup := make(map[string]*Partition)
	var key []byte
	for _, entry := range s.Parts {
		if len(entry.Class) != auto.NumStates() {
			return nil, fmt.Errorf("bisim: partition for %s has %d entries, automaton has %d states",
				entry.Set, len(entry.Class), auto.NumStates())
		}
		if _, dup := ps.parts[entry.Set]; dup {
			return nil, fmt.Errorf("bisim: snapshot has duplicate partition for %s", entry.Set)
		}
		p := normalize(entry.Class)
		key = p.appendKey(key[:0])
		shared, ok := dedup[string(key)]
		if !ok {
			cp := p
			shared = &cp
			dedup[string(key)] = shared
		}
		ps.parts[entry.Set] = shared
	}
	ps.PrecomputedSubsets = len(ps.parts)
	ps.DistinctPartitions = len(dedup)
	return ps, nil
}
