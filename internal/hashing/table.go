package hashing

// Table is the paper's fixed-size hash table H(v): K cells, each
// holding a vertex id or Empty. Writing vertex w stores w into slot
// h(w); a collision exists when, after all concurrent writes of a step,
// some written vertex re-reads a different value from its slot (§3.3's
// re-read trick). Insert and collision detection are therefore two
// separate passes, exactly as on the PRAM.
//
// A table is filled by the processors of a PRAM step, which
// pram.Machine runs in index order on one goroutine, so cells are
// plain memory: when several processors write one slot, Insert lets
// the last in index order win and TryInsert the first, and both are
// legal ARBITRARY resolutions.
type Table struct {
	h     Pairwise
	cells []int32

	// occ is an append-only list of values that won their cell via
	// TryInsert, so iteration costs O(#entries) instead of O(size) —
	// the PRAM walks cells in parallel, the host must not. Entries
	// written via plain Insert (overwrite) are NOT tracked here, so
	// algorithms that iterate tables must insert through TryInsert.
	occ      []int32
	occCount int32
}

// Empty marks an unoccupied cell.
const Empty int32 = -1

// NewTable returns a table of k cells using hash function h.
func NewTable(h Pairwise, k int) *Table {
	if k <= 0 {
		k = 1
	}
	cells := make([]int32, k)
	for i := range cells {
		cells[i] = Empty
	}
	// occ holds at most one winner per cell, so k slots always suffice.
	return &Table{h: h, cells: cells, occ: make([]int32, k)}
}

// Size returns the number of cells.
func (t *Table) Size() int { return len(t.cells) }

// Hash returns the slot of vertex w.
func (t *Table) Hash(w int32) int { return t.h.Slot(uint64(w), len(t.cells)) }

// Insert writes w into its slot, overwriting any earlier writer (the
// last writer of a step wins).
func (t *Table) Insert(w int32) {
	t.cells[t.Hash(w)] = w
}

// TryInsert writes w into its slot only if the slot is empty or
// already holds w (first-writer-wins resolution — another legal
// ARBITRARY outcome that, unlike overwrite, keeps iterated expansions
// monotone so "a table got a new entry" is well defined). It returns
// added = true when the slot went empty→w this call.
func (t *Table) TryInsert(w int32) (added bool) {
	cell := &t.cells[t.Hash(w)]
	if *cell != Empty {
		// The slot holds w already, or another vertex won it, and
		// then Collides(w) stays true for this loser.
		return false
	}
	*cell = w
	t.recordOcc(w)
	return true
}

// recordOcc appends a winning value to the occupancy list. Each cell
// has at most one winner, so the preallocated k slots never overflow.
func (t *Table) recordOcc(w int32) {
	t.occ[t.occCount] = w
	t.occCount++
}

// Occupied returns the values inserted via TryInsert, in insertion
// order. The returned slice aliases internal storage: it is read-only,
// and a later TryInsert may extend the table past it.
func (t *Table) Occupied() []int32 {
	return t.occ[:t.occCount]
}

// OccCount returns the current occupancy-list length. Because
// TryInsert is append-only, OccupiedPrefix(OccCount()) taken before a
// step is an O(1) snapshot of the table's contents at that instant.
func (t *Table) OccCount() int32 { return t.occCount }

// OccupiedPrefix returns the first k inserted values (read-only view).
func (t *Table) OccupiedPrefix(k int32) []int32 {
	if n := t.occCount; k > n {
		k = n
	}
	return t.occ[:k]
}

// Collides re-reads w's slot and reports whether a different vertex
// occupies it — the paper's collision check.
func (t *Table) Collides(w int32) bool {
	return t.cells[t.Hash(w)] != w
}

// Contains reports whether w currently occupies its slot.
func (t *Table) Contains(w int32) bool {
	return t.cells[t.Hash(w)] == w
}

// At returns the contents of slot i (Empty if unoccupied).
func (t *Table) At(i int) int32 { return t.cells[i] }

// Entries appends all occupied values to dst and returns it.
func (t *Table) Entries(dst []int32) []int32 {
	for _, v := range t.cells {
		if v != Empty {
			dst = append(dst, v)
		}
	}
	return dst
}

// Len returns the number of occupied cells (linear scan).
func (t *Table) Len() int {
	n := 0
	for _, v := range t.cells {
		if v != Empty {
			n++
		}
	}
	return n
}

// Clear resets every cell to Empty, keeping the hash function.
func (t *Table) Clear() {
	for i := range t.cells {
		t.cells[i] = Empty
	}
	t.occCount = 0
}

// Clone returns a snapshot copy of the table (same hash function).
func (t *Table) Clone() *Table {
	c := &Table{h: t.h, cells: make([]int32, len(t.cells)), occ: make([]int32, len(t.occ))}
	copy(c.cells, t.cells)
	copy(c.occ, t.occ[:t.occCount])
	c.occCount = t.occCount
	return c
}

// Map applies f to every occupied cell, storing the result in place.
// Used by ALTER to replace each stored vertex by its parent. The
// occupancy list is updated in lockstep; note slots keep the original
// hash positions, so Contains/Collides are meaningless after Map.
func (t *Table) Map(f func(int32) int32) {
	for i, v := range t.cells {
		if v != Empty {
			t.cells[i] = f(v)
		}
	}
	for i, v := range t.occ[:t.occCount] {
		t.occ[i] = f(v)
	}
}
