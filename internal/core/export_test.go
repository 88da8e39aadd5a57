package core

import (
	"slices"

	"contractdb/internal/bisim"
	"contractdb/internal/buchi"
)

// CheckedQuotients returns the projection quotients queries have built
// permission checkers for so far, for tests that inspect what the
// query path did to them.
func (c *Contract) CheckedQuotients() []*buchi.BA {
	c.proj.mu.Lock()
	defer c.proj.mu.Unlock()
	out := make([]*buchi.BA, 0, len(c.proj.checkers))
	for q := range c.proj.checkers {
		out = append(out, q)
	}
	return out
}

// ReimportProjections rebuilds the contract's projection set from its
// flat form the way a load does — fresh partition and ref tables, then
// bisim.ImportFlat — and discards it, for tests that price that step
// on its own.
func (c *Contract) ReimportProjections() error {
	ps := c.proj.ps
	flat := ps.ExportFlat()
	flat.PartTables = slices.Clone(flat.PartTables)
	flat.PartRefs = slices.Clone(flat.PartRefs)
	_, err := bisim.ImportFlat(c.auto, ps.LabelEvents(), flat)
	return err
}

// PartitionTables returns the class tables of the contract's
// precomputed projections, for tests that check where they live.
func (c *Contract) PartitionTables() []bisim.Partition {
	return c.proj.ps.ExportFlat().PartTables
}
