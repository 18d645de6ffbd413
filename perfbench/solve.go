package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	pramcc "repro"
	"repro/graph"
	"repro/internal/check"
	"repro/internal/incremental"
	"repro/internal/native"
)

// The solve workload: two resident graphs whose arc columns (160 and
// 128 MB) exceed a typical last-level cache, so the label sweeps are
// memory-bound.
const (
	solveGnmN, solveGnmM   = 1_000_000, 10_000_000
	solveRmatN, solveRmatM = 1 << 20, 8_000_000

	setupReps = 3 // set-ups per run; setup_s is their median
)

type solveGraph struct {
	name   string
	g      *graph.Graph
	oracle []int32 // canonical labels from the union-find oracle
}

type solveSolver struct {
	name string
	s    *pramcc.Solver
}

type solveState struct {
	graphs  []*solveGraph
	solvers []solveSolver
}

func (st *solveState) close() {
	for _, s := range st.solvers {
		s.s.Close()
	}
}

// setupSolve generates both graphs and builds one Solver per fast
// backend, warming each on each graph so lazy buffers are in place
// before timing. gen receives the two generation times.
func setupSolve(seed int64, w int) (st *solveState, gen [2]time.Duration, err error) {
	st = &solveState{}
	t := time.Now()
	gnm := graph.Gnm(solveGnmN, solveGnmM, seed)
	gen[0] = time.Since(t)
	t = time.Now()
	rmat := graph.RMAT(solveRmatN, solveRmatM, seed+1)
	gen[1] = time.Since(t)
	st.graphs = []*solveGraph{{name: "gnm", g: gnm}, {name: "rmat", g: rmat}}
	for _, b := range []pramcc.Backend{pramcc.BackendNative, pramcc.BackendIncremental} {
		s, err := pramcc.NewSolver(pramcc.WithBackend(b), pramcc.WithWorkers(w))
		if err != nil {
			st.close()
			return nil, gen, err
		}
		st.solvers = append(st.solvers, solveSolver{b.String(), s})
		for _, g := range st.graphs {
			if _, err := s.Solve(context.Background(), g.g); err != nil {
				st.close()
				return nil, gen, fmt.Errorf("warm-up solve: %w", err)
			}
		}
	}
	return st, gen, nil
}

func runSolve(cfg config, r *report) error {
	w := workers()
	var st *solveState
	var setups []float64
	var gens [2][]float64
	for rep := 0; rep < setupReps; rep++ {
		if st != nil {
			st.close()
			st = nil
			releaseMemory()
		}
		t := time.Now()
		s, gen, err := setupSolve(cfg.seed, w)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
		gens[0] = append(gens[0], gen[0].Seconds())
		gens[1] = append(gens[1], gen[1].Seconds())
		st = s
	}
	defer st.close()
	r.set("setup_s", median(setups))
	r.set("graph.gen_gnm_s", median(gens[0]))
	r.set("graph.gen_rmat_s", median(gens[1]))
	for _, g := range st.graphs {
		uf := newUnionFind(g.g.N)
		uf.addSpan(g.g.Span())
		g.oracle = uf.labels()
	}

	// Standalone engines for the traced cycles.
	var nat *native.Engine
	var inc *incremental.Engine
	if cfg.trace {
		nat = native.NewEngine(w)
		defer nat.Close()
		inc = incremental.New(0, incremental.Options{Workers: w})
		defer inc.Close()
	}

	ctx := context.Background()
	var plain, traced kinds
	var assemble []float64
	allocs := map[string][]float64{}
	layer := map[string][]float64{}
	rounds := map[string]int{}
	resetPeakRSS()
	deadline := time.Now().Add(cfg.duration())
	for cycle := 0; time.Now().Before(deadline); cycle++ {
		trace := cfg.trace && cycle%2 == 1
		for i := range st.graphs {
			g := st.graphs[(i+cycle)%len(st.graphs)]
			for j := range st.solvers {
				s := st.solvers[(j+cycle/2)%len(st.solvers)]
				var before runtime.MemStats
				if trace {
					runtime.ReadMemStats(&before)
				}
				t0 := time.Now()
				res, err := s.s.Solve(ctx, g.g)
				t1 := time.Now()
				r.attempted++
				if err != nil {
					r.wrong("Solve(%s, %s): %v", s.name, g.name, err)
					continue
				}
				kind := s.name + "_" + g.name
				if trace {
					var after runtime.MemStats
					runtime.ReadMemStats(&after)
					allocs[s.name] = append(allocs[s.name], float64(after.TotalAlloc-before.TotalAlloc))
					assemble = append(assemble, ms(t1.Sub(t0)-res.Stats.Wall))
					r.spans.record("pramcc.Solver.Solve/"+kind, 0, r.attempted, t0, t1)
					traced.add(kind, ms(t1.Sub(t0)))
				} else {
					plain.add(kind, ms(t1.Sub(t0)))
				}
				if err := checkLabels(g.oracle, res.Labels); err != nil {
					r.wrong("Solve(%s, %s) labels: %v", s.name, g.name, err)
				}
			}
			if !trace {
				continue
			}
			natLabels := make([]int32, g.g.N)
			t0 := time.Now()
			n, err := nat.Run(ctx, g.g, natLabels)
			t1 := time.Now()
			r.attempted++
			r.spans.record("native.Engine.Run/"+g.name, 0, r.attempted, t0, t1)
			if err == nil {
				err = checkLabels(g.oracle, natLabels)
			}
			if err != nil {
				r.wrong("native.Engine.Run(%s): %v", g.name, err)
			}
			layer["native.run_"+g.name] = append(layer["native.run_"+g.name], ms(t1.Sub(t0)))
			rounds[g.name] = n

			t0 = time.Now()
			inc.Reset(g.g.N)
			snap := inc.AddGraph(g.g)
			t1 = time.Now()
			r.attempted++
			r.spans.record("incremental.Engine.Reset+AddGraph/"+g.name, 0, r.attempted, t0, t1)
			if err := checkLabels(g.oracle, snap.Labels); err != nil {
				r.wrong("incremental.Engine.AddGraph(%s): %v", g.name, err)
			}
			layer["incremental.addgraph_"+g.name] = append(layer["incremental.addgraph_"+g.name], ms(t1.Sub(t0)))
		}
	}
	r.set("peak_rss_mb", peakRSSMB())

	// Cross-check the union-find oracle against BFS once per graph.
	for _, g := range st.graphs {
		if err := check.Components(g.g, g.oracle); err != nil {
			r.wrong("union-find oracle disagrees with BFS on %s: %v", g.name, err)
		}
	}

	r.set("op_p25_ms", plain.p25())
	for _, k := range plain.order {
		r.latency("solve_"+k+"_ms", "ms", plain.samples[k])
		r.set("solver.solve_"+k+"_ms", median(plain.samples[k]))
	}
	r.detail("setup %.3f s (reps %v), gen gnm %.3f s, rmat %.3f s", median(setups), setups, median(gens[0]), median(gens[1]))
	if cfg.trace {
		for name, xs := range layer {
			r.set(name+"_ms", median(xs))
		}
		r.set("native.rounds_gnm", float64(rounds["gnm"]))
		r.set("native.rounds_rmat", float64(rounds["rmat"]))
		r.set("solver.assemble_ms", median(assemble))
		r.set("solver.alloc_bytes_native", median(allocs["native"]))
		r.set("solver.alloc_bytes_incremental", median(allocs["incremental"]))
		r.set("trace.overhead_pct", 100*(traced.p25()/plain.p25()-1))
	}
	return nil
}
