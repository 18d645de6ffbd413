// Nativespeed: the same connected-components question answered by both
// execution backends. The simulated backend is the paper's Theorem-3
// algorithm on the step-barrier ARBITRARY CRCW PRAM, with full
// model-cost accounting; the fast backend (BackendIncremental, once
// called native) is the shared-memory one-pass union-find engine that
// only cares about wall clock. The partitions are identical — the
// point of having both is that every model claim can be checked
// against a run that is actually fast.
//
// Run with:
//
//	go run ./examples/nativespeed [-n 200000] [-deg 4] [-workers 0]
package main

import (
	"flag"
	"fmt"
	"log"

	pramcc "repro"
	"repro/graph"
)

func main() {
	n := flag.Int("n", 200000, "vertices")
	deg := flag.Int("deg", 4, "edges per vertex (m = n·deg via Gnm; average degree 2·deg)")
	workers := flag.Int("workers", 0, "fast-backend worker goroutines (0 = GOMAXPROCS)")
	flag.Parse()

	g := graph.Gnm(*n, *n**deg, 7)
	fmt.Printf("workload: Gnm  n=%d  m=%d\n\n", g.N, g.NumEdges())

	sim, err := pramcc.Components(g, pramcc.WithSeed(42))
	if err != nil {
		log.Fatal(err)
	}
	fast, err := pramcc.Components(g,
		pramcc.WithBackend(pramcc.BackendIncremental),
		pramcc.WithWorkers(*workers))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-22s %12s %12s\n", "", sim.Stats.Backend, fast.Stats.Backend)
	fmt.Printf("%-22s %12d %12d\n", "components", sim.NumComponents, fast.NumComponents)
	fmt.Printf("%-22s %12d %12d\n", "rounds", sim.Stats.Rounds, fast.Stats.Rounds)
	fmt.Printf("%-22s %12v %12v\n", "wall clock", sim.Stats.Wall.Round(10_000), fast.Stats.Wall.Round(10_000))
	fmt.Printf("%-22s %12d %12d\n", "workers", sim.Stats.Workers, fast.Stats.Workers)
	// Model costs exist only on the simulated side; the fast engine
	// does no per-step accounting (the fields are zero by contract).
	fmt.Printf("%-22s %12d %12s\n", "PRAM steps (model)", sim.Stats.PRAMSteps, "—")
	fmt.Printf("%-22s %12d %12s\n", "work (model)", sim.Stats.Work, "—")
	fmt.Printf("%-22s %12d %12s\n", "peak procs (model)", sim.Stats.MaxProcessors, "—")

	agree := true
	for v := 0; v < g.N && agree; v++ {
		for _, w := range g.Neighbors(v) {
			if sim.SameComponent(v, int(w)) != fast.SameComponent(v, int(w)) {
				agree = false
				break
			}
		}
	}
	fmt.Printf("\npartitions agree on every edge: %v\n", agree)
	fmt.Printf("speedup (simulated/incremental): %.1fx\n",
		float64(sim.Stats.Wall)/float64(fast.Stats.Wall))
}
