package permission

import "contractdb/internal/buchi"

// PermitsInterpreted runs the interpreted reference kernels of
// interpreted_test.go, for the differential tests in permission_test.
func (c *Checker) PermitsInterpreted(query *buchi.BA, algo Algorithm) (bool, Stats) {
	return c.permitsInterpreted(query, algo)
}
