package pram

// Helpers for common-memory cells with ARBITRARY CRCW semantics. A
// Machine runs the processors of a step in index order on one
// goroutine, so when several write the same cell in one step the last
// writer in index order wins, which is one legal arbitrary resolution,
// and a processor can read writes made earlier in the same step.
// Nothing runs concurrently, so the helpers are plain loads and stores;
// they exist to mark the concurrent-write sites of the algorithms.
// Cells that may be written in a step are accessed through them; cells
// only read in a step may be accessed directly.

// Store32 performs a concurrent write of v into cell (arbitrary wins).
func Store32(cell *int32, v int32) { *cell = v }

// Load32 performs a concurrent read of a cell.
func Load32(cell *int32) int32 { return *cell }

// Store64 performs a concurrent write of v into cell (arbitrary wins).
func Store64(cell *int64, v int64) { *cell = v }

// Load64 performs a concurrent read of a cell.
func Load64(cell *int64) int64 { return *cell }

// MaxCombine64 raises *cell to v if v is larger. The paper's MAXLINK
// needs "parent with maximum level among neighbours" in O(1) PRAM
// time, which §3.3 implements with a per-vertex array of O(log n)
// level slots plus one processor per slot pair. We realize the same
// reduction with a pack-max: callers pack (level << 32 | vertex) so a
// single max yields the argmax vertex. The charged PRAM cost stays
// O(1) per the paper.
func MaxCombine64(cell *int64, v int64) {
	if v > *cell {
		*cell = v
	}
}

// Fill32 sets every element of s to v (host-side initialization; charge
// separately if it corresponds to a PRAM step).
func Fill32(s []int32, v int32) {
	for i := range s {
		s[i] = v
	}
}

// Fill64 sets every element of s to v.
func Fill64(s []int64, v int64) {
	for i := range s {
		s[i] = v
	}
}

// PackLevelVertex packs a (level, vertex) pair so that integer max
// orders by level first and vertex id second.
func PackLevelVertex(level int32, vertex int32) int64 {
	return int64(level)<<32 | int64(uint32(vertex))
}

// UnpackLevelVertex reverses PackLevelVertex.
func UnpackLevelVertex(p int64) (level int32, vertex int32) {
	return int32(p >> 32), int32(uint32(p))
}
