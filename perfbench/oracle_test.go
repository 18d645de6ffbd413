package main

import (
	"testing"

	"repro/graph"
)

func TestOracleLabelsAreCanonical(t *testing.T) {
	g := graph.FromEdges(7, [][2]int{{5, 3}, {3, 1}, {6, 4}})
	uf := newUnionFind(g.N)
	uf.addSpan(g.Span())
	want := []int32{0, 1, 2, 1, 4, 1, 4}
	got := uf.labels()
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("labels = %v, want %v", got, want)
		}
	}
}

func TestCheckLabelsRejectsOneCorruptVertex(t *testing.T) {
	g := graph.Gnm(2000, 1500, 3)
	uf := newUnionFind(g.N)
	uf.addSpan(g.Span())
	oracle := uf.labels()
	if err := checkLabels(oracle, g.ComponentsBFS()); err != nil {
		t.Fatalf("BFS labels rejected: %v", err)
	}

	// Find a vertex in a component of size ≥ 2 and move it to another
	// component: one wrong label must fail the check.
	v := -1
	for x := range oracle {
		if int(oracle[x]) != x {
			v = x
			break
		}
	}
	if v < 0 {
		t.Fatal("graph has no component of size 2")
	}
	bad := append([]int32(nil), oracle...)
	for x := range oracle {
		if oracle[x] != oracle[v] {
			bad[v] = oracle[x]
			break
		}
	}
	if err := checkLabels(oracle, bad); err == nil {
		t.Fatalf("labeling with vertex %d moved to another component passed", v)
	}
	// Splitting a vertex off into a fresh label must fail too.
	bad = append([]int32(nil), oracle...)
	bad[v] = int32(g.N + 1)
	if err := checkLabels(oracle, bad); err == nil {
		t.Fatalf("labeling with vertex %d split off passed", v)
	}
	// A relabeling of the right partition passes.
	shifted := make([]int32, len(oracle))
	for x, l := range oracle {
		shifted[x] = l + 10
	}
	if err := checkLabels(oracle, shifted); err != nil {
		t.Fatalf("relabeled partition rejected: %v", err)
	}
}
