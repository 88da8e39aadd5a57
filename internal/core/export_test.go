package core

import (
	"encoding/json"

	"contractdb/internal/bisim"
	"contractdb/internal/buchi"
)

// CheckedQuotients returns the projection quotients queries have built
// permission checkers for so far, for tests that inspect what the
// query path did to them.
func (c *Contract) CheckedQuotients() []*buchi.BA {
	c.proj.mu.Lock()
	defer c.proj.mu.Unlock()
	var out []*buchi.BA
	for _, ch := range c.proj.checkers {
		if ch != nil && ch != c.checker {
			out = append(out, ch.Contract())
		}
	}
	return out
}

// PartitionTables returns the class tables of the contract's
// precomputed projections, for tests that check where they live.
func (c *Contract) PartitionTables() []bisim.Partition {
	return c.proj.ps.ExportFlat().PartTables
}

// UnmarshalHead decodes a container head as the loaders do, for tests
// that price that step on its own.
func UnmarshalHead(head []byte) error {
	var h snapHead
	return json.Unmarshal(head, &h)
}

// BatchWorkers is batchWorkers, for the pool-size test.
var BatchWorkers = batchWorkers
