package core

import "contractdb/internal/buchi"

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
