package main

import (
	"slices"

	"repro/graph"
	"repro/internal/check"
)

// unionFind is the sequential oracle: a disjoint-set forest whose
// roots are always the minimum vertex of their set, so its labels are
// canonical in the same way the engines' labels are.
type unionFind []int32

func newUnionFind(n int) unionFind {
	u := make(unionFind, n)
	for i := range u {
		u[i] = int32(i)
	}
	return u
}

func (u unionFind) find(x int32) int32 {
	for u[x] != x {
		u[x] = u[u[x]]
		x = u[x]
	}
	return x
}

func (u unionFind) union(a, b int32) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if ra > rb {
		ra, rb = rb, ra
	}
	u[rb] = ra
}

func (u unionFind) addSpan(s graph.EdgeSpan) {
	for i := 0; i < len(s.U); i += 2 {
		u.union(s.U[i], s.V[i])
	}
}

func (u unionFind) same(a, b int32) bool { return u.find(a) == u.find(b) }

// labels returns every vertex's root: the minimum vertex id of its
// component.
func (u unionFind) labels() []int32 {
	out := make([]int32, len(u))
	for v := range u {
		out[v] = u.find(int32(v))
	}
	return out
}

// checkLabels returns nil when got induces the same partition as want.
// Equal slices pass at once; anything else goes to check.SamePartition,
// which accepts any relabeling of the right partition.
func checkLabels(want, got []int32) error {
	if slices.Equal(want, got) {
		return nil
	}
	return check.SamePartition(want, got)
}
