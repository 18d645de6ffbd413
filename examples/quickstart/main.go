// Quickstart: build a small graph, compute its connected components,
// and inspect the results — first one-shot with the paper's
// O(log d + log log_{m/n} n) algorithm, then with the long-lived
// Solver form that production callers should hold (it owns the worker
// pool and buffers, honours context cancellation, and allocates
// nothing in steady state on the fast backend).
package main

import (
	"context"
	"fmt"
	"log"

	pramcc "repro"
	"repro/graph"
)

func main() {
	// A graph with three components: a path, a clique, and a star,
	// plus a couple of isolated vertices.
	g := graph.DisjointUnion(
		graph.Path(10),
		graph.Clique(6),
		graph.Star(8),
	)
	g = graph.WithIsolated(g, 2)

	// One-shot: the free function, Theorem 3 on the PRAM simulator.
	res, err := pramcc.ConnectedComponents(g, pramcc.WithSeed(42))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("vertices:   %d\n", g.N)
	fmt.Printf("edges:      %d\n", g.NumEdges())
	fmt.Printf("components: %d\n", res.NumComponents)
	fmt.Printf("same component (0, 9): %v\n", res.SameComponent(0, 9))   // both on the path
	fmt.Printf("same component (0, 12): %v\n", res.SameComponent(0, 12)) // path vs clique
	fmt.Println()
	fmt.Printf("EXPAND-MAXLINK rounds: %d\n", res.Stats.Rounds)
	fmt.Printf("simulated PRAM steps:  %d\n", res.Stats.PRAMSteps)
	fmt.Printf("peak processors:       %d\n", res.Stats.MaxProcessors)
	fmt.Printf("max level reached:     %d\n", res.Stats.MaxLevel)
	fmt.Println()

	// Long-lived: a Solver on the fast backend. The engine is built
	// once; every Solve after the first reuses its pool and buffers
	// (zero allocations in steady state), and the context is honoured
	// at every round boundary. The returned Result is valid until the
	// next Solve on the same Solver.
	solver, err := pramcc.NewSolver(pramcc.WithBackend(pramcc.BackendIncremental))
	if err != nil {
		log.Fatal(err)
	}
	defer solver.Close()

	ctx := context.Background()
	for i := 0; i < 3; i++ {
		r, err := solver.Solve(ctx, g)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("solver pass %d: components=%d rounds=%d wall=%v\n",
			i+1, r.NumComponents, r.Stats.Rounds, r.Stats.Wall)
	}
}
