package main

import (
	"fmt"
	"time"

	pramcc "repro"
	"repro/graph"
	"repro/internal/ccbase"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/pram"
	"repro/internal/spanning"
)

// The simulate workload: simInstances graphs Gnm(simN, simM), m/n = 4
// as in the paper's sparse regime, each with its own coin seed. The
// simulator's cost depends on its random choices, so one run averages
// over several instances to keep its figures close from seed to seed;
// each instance is still called several times so its model counts can
// be compared call against call.
const (
	simN, simM   = 50_000, 200_000
	simInstances = 8
)

// simInstance is one input of the simulate workload.
type simInstance struct {
	g      *graph.Graph
	seed   uint64
	oracle []int32
}

// simCounts are a simulator call's model costs, which must repeat
// exactly between calls at one worker.
type simCounts struct {
	steps, work, maxProcs, peakSpace int64
	rounds, maxLevel, prep, post     int
	blockWords                       int64
	components                       int
}

func countsOf(s pramcc.Stats, components int) simCounts {
	return simCounts{s.PRAMSteps, s.Work, s.MaxProcessors, s.PeakSpace,
		s.Rounds, s.MaxLevel, s.Prep, s.PostPhases, s.CumBlockWords, components}
}

// simAlgo is one of the paper's algorithms behind the public API.
type simAlgo struct {
	name string // metric suffix: cc (Thm 3), loglog (Thm 1), forest (Thm 2)
	call func(g *graph.Graph, seed uint64) (*pramcc.Result, []int, error)
}

var simAlgos = []simAlgo{
	{"cc", func(g *graph.Graph, seed uint64) (*pramcc.Result, []int, error) {
		res, err := pramcc.ConnectedComponents(g, pramcc.WithWorkers(1), pramcc.WithSeed(seed))
		return res, nil, err
	}},
	{"loglog", func(g *graph.Graph, seed uint64) (*pramcc.Result, []int, error) {
		res, err := pramcc.ConnectedComponentsLogLog(g, pramcc.WithWorkers(1), pramcc.WithSeed(seed))
		return res, nil, err
	}},
	{"forest", func(g *graph.Graph, seed uint64) (*pramcc.Result, []int, error) {
		res, err := pramcc.SpanningForest(g, pramcc.WithWorkers(1), pramcc.WithSeed(seed))
		if err != nil {
			return nil, nil, err
		}
		return &res.Result, res.EdgeIndices, nil
	}},
}

func runSimulate(cfg config, r *report) error {
	var insts []*simInstance
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		t := time.Now()
		insts = insts[:0]
		for i := 0; i < simInstances; i++ {
			seed := cfg.seed*simInstances + int64(i)
			insts = append(insts, &simInstance{g: graph.Gnm(simN, simM, seed), seed: uint64(seed)})
		}
		for _, a := range simAlgos {
			if _, _, err := a.call(insts[0].g, insts[0].seed); err != nil {
				return fmt.Errorf("warm-up %s: %w", a.name, err)
			}
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	r.set("setup_s", median(setups))
	for _, in := range insts {
		uf := newUnionFind(in.g.N)
		uf.addSpan(in.g.Span())
		in.oracle = uf.labels()
		if err := check.Components(in.g, in.oracle); err != nil {
			r.wrong("union-find oracle disagrees with BFS: %v", err)
		}
	}

	var plain, traced kinds // keyed by algorithm and instance
	want := map[string]simCounts{}
	layer := map[string][]float64{}
	resetPeakRSS()
	deadline := time.Now().Add(cfg.duration())
	for cycle := 0; time.Now().Before(deadline); cycle++ {
		trace := cfg.trace && cycle%2 == 1
		inst := (cycle / 2) % simInstances
		if !cfg.trace {
			inst = cycle % simInstances
		}
		in := insts[inst]
		for i := range simAlgos {
			a := simAlgos[(i+cycle)%len(simAlgos)]
			key := fmt.Sprintf("%s#%d", a.name, inst)
			t0 := time.Now()
			res, forest, err := a.call(in.g, in.seed)
			t1 := time.Now()
			r.attempted++
			if err != nil {
				r.wrong("%s: %v", key, err)
				continue
			}
			if trace {
				r.spans.record("pramcc/"+a.name, 0, r.attempted, t0, t1)
				traced.add(key, ms(t1.Sub(t0)))
			} else {
				plain.add(key, ms(t1.Sub(t0)))
			}
			checkSim(r, in, key, res, forest, want)
		}
		if trace {
			simLayers(r, in, inst, want, layer)
		}
	}
	r.set("peak_rss_mb", peakRSSMB())
	r.set("op_p25_ms", plain.p25())
	for _, a := range simAlgos {
		var all, meds []float64
		for inst := 0; inst < simInstances; inst++ {
			if xs := plain.samples[fmt.Sprintf("%s#%d", a.name, inst)]; len(xs) > 0 {
				all = append(all, xs...)
				meds = append(meds, median(xs))
			}
		}
		r.latency("sim_"+a.name+"_ms (all instances)", "ms", all)
		r.set("sim."+a.name+"_ms", geomean(meds))
	}
	r.detail("setup %.3f s (reps %v)", median(setups), setups)
	for inst := 0; inst < simInstances; inst++ {
		for _, a := range simAlgos {
			c, ok := want[fmt.Sprintf("%s#%d", a.name, inst)]
			if !ok {
				continue
			}
			r.detail("%-9s steps %d work %d max_procs %d peak_space %d rounds %d max_level %d block_words %d post %d",
				fmt.Sprintf("%s#%d", a.name, inst), c.steps, c.work, c.maxProcs, c.peakSpace, c.rounds, c.maxLevel, c.blockWords, c.post)
		}
	}
	if cfg.trace {
		for name, xs := range layer {
			r.set(name, median(xs))
		}
		// Model counts are those of instance 0, which every traced run
		// reaches first.
		for _, a := range simAlgos {
			c := want[a.name+"#0"]
			r.set("pram.steps_"+a.name, float64(c.steps))
			r.set("pram.work_"+a.name, float64(c.work))
			r.set("pram.max_procs_"+a.name, float64(c.maxProcs))
			r.set("pram.peak_space_"+a.name, float64(c.peakSpace))
		}
		c := want["cc#0"]
		r.set("core.rounds", float64(c.rounds))
		r.set("core.max_level", float64(c.maxLevel))
		r.set("core.cum_block_words", float64(c.blockWords))
		r.set("core.post_phases", float64(c.post))
		r.set("ccbase.phases", float64(want["loglog#0"].rounds))
		r.set("spanning.phases", float64(want["forest#0"].rounds))
		r.set("trace.overhead_pct", 100*(traced.p25()/plain.p25()-1))
	}
	return nil
}

// checkSim checks one call's output against the oracle and its model
// counts against the first call of the same algorithm on the same
// instance.
func checkSim(r *report, in *simInstance, name string, res *pramcc.Result, forest []int, want map[string]simCounts) {
	if res.Stats.Failed {
		r.wrong("%s: Stats.Failed", name)
	}
	if err := checkLabels(in.oracle, res.Labels); err != nil {
		r.wrong("%s labels: %v", name, err)
	}
	if forest != nil {
		if err := check.Forest(in.g, forest); err != nil {
			r.wrong("forest: %v", err)
		}
	}
	got := countsOf(res.Stats, res.NumComponents)
	if w, ok := want[name]; !ok {
		want[name] = got
	} else if got != w {
		r.wrong("%s model counts changed between calls: %+v, first %+v", name, got, w)
	}
}

// simLayers runs each algorithm's package directly on a one-worker
// machine, records a span per Run, and checks that the model counts
// equal the public API's.
func simLayers(r *report, in *simInstance, inst int, want map[string]simCounts, layer map[string][]float64) {
	g, seed := in.g, in.seed
	type out struct {
		labels []int32
		steps  int64
		counts simCounts
	}
	runs := []struct {
		algo, pkg string
		run       func() out
	}{
		{"cc", "core", func() out {
			res := core.Run(pram.New(1), g, core.DefaultParams(seed))
			return out{res.Labels, res.Stats.Steps, simCounts{res.Stats.Steps, res.Stats.Work, res.Stats.MaxProcs, res.Stats.MaxSpace,
				res.Rounds, int(res.MaxLevel), res.Prep, res.PostPhases, res.CumBlockWords, check.NumLabels(res.Labels)}}
		}},
		{"loglog", "ccbase", func() out {
			res := ccbase.Run(pram.New(1), g, ccbase.DefaultParams(seed))
			return out{res.Labels, res.Stats.Steps, simCounts{res.Stats.Steps, res.Stats.Work, res.Stats.MaxProcs, res.Stats.MaxSpace,
				res.Phases, 0, res.Prep, 0, 0, check.NumLabels(res.Labels)}}
		}},
		{"forest", "spanning", func() out {
			res := spanning.Run(pram.New(1), g, spanning.DefaultParams(seed))
			return out{res.Labels, res.Stats.Steps, simCounts{res.Stats.Steps, res.Stats.Work, res.Stats.MaxProcs, res.Stats.MaxSpace,
				res.Phases, 0, res.Prep, 0, 0, check.NumLabels(res.Labels)}}
		}},
	}
	for _, x := range runs {
		t0 := time.Now()
		o := x.run()
		t1 := time.Now()
		r.attempted++
		r.spans.record(x.pkg+".Run", 0, r.attempted, t0, t1)
		layer[x.pkg+".run_ms"] = append(layer[x.pkg+".run_ms"], ms(t1.Sub(t0)))
		if o.steps > 0 {
			layer["pram.ns_per_step_"+x.algo] = append(layer["pram.ns_per_step_"+x.algo], ns(t1.Sub(t0))/float64(o.steps))
		}
		if err := checkLabels(in.oracle, o.labels); err != nil {
			r.wrong("%s.Run labels: %v", x.pkg, err)
		}
		if w, ok := want[fmt.Sprintf("%s#%d", x.algo, inst)]; ok && o.counts != w {
			r.wrong("%s.Run model counts %+v differ from the public API's %+v", x.pkg, o.counts, w)
		}
	}
}
