package pramcc

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/graph"
	"repro/internal/baseline"
	"repro/internal/check"
	"repro/internal/incremental"
	"repro/internal/pool"
)

// backendNames lists every backend name flags and JSON accept, the
// deprecated "native" alias included, so the per-backend tests also
// cover what the alias resolves to.
var backendNames = []string{"simulated", "native", "incremental"}

func mustParseBackend(t testing.TB, name string) Backend {
	t.Helper()
	bk, err := ParseBackend(name)
	if err != nil {
		t.Fatal(err)
	}
	return bk
}

// generatorZoo covers every generator family the graph package offers,
// so backend equivalence is asserted on paths, trees, grids, tori,
// hypercubes, cliques, random graphs, power-law graphs, and the
// composite workloads.
func generatorZoo() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"path":         graph.Path(257),
		"cycle":        graph.Cycle(200),
		"star":         graph.Star(150),
		"grid2d":       graph.Grid2D(20, 30),
		"torus2d":      graph.Torus2D(15, 17),
		"binary-tree":  graph.CompleteBinaryTree(511),
		"random-tree":  graph.RandomTree(400, 5),
		"caterpillar":  graph.Caterpillar(60, 4),
		"gnm":          graph.Gnm(3000, 9000, 7),
		"gnm-sparse":   graph.Gnm(2000, 900, 8),
		"circulant":    graph.Circulant(120, 3),
		"clique":       graph.Clique(40),
		"clique-beads": graph.CliqueBeads(graph.CliqueBeadsSpec{Beads: 32, Size: 12, IntraDeg: 8, Bridges: 2, Seed: 9}),
		"hypercube":    graph.Hypercube(8),
		"barbell":      graph.Barbell(25, 10),
		"rmat":         graph.RMAT(2048, 8000, 10),
		"chung-lu":     graph.ChungLu(2000, 6000, 2.5, 11),
		"lollipop":     graph.LollipopPath(30, 100),
		"disjoint": graph.DisjointUnion(
			graph.Path(100), graph.Clique(20), graph.Gnm(500, 1500, 12)),
		"isolated": graph.WithIsolated(graph.Grid2D(10, 10), 17),
		"permuted": graph.Permuted(graph.CliqueBeads(graph.CliqueBeadsSpec{
			Beads: 16, Size: 10, IntraDeg: 6, Bridges: 1, Seed: 13}), 14),
	}
}

// TestBackendEquivalenceAcrossGenerators: the fast backend must
// induce exactly the partition of VanillaComponents (on the simulator)
// and of the sequential union-find oracle on every generator family,
// and must equal the minimum-id oracle elementwise (it canonicalizes
// labels to component minima).
func TestBackendEquivalenceAcrossGenerators(t *testing.T) {
	for name, g := range generatorZoo() {
		t.Run(name, func(t *testing.T) {
			fast, err := Components(g, WithBackend(BackendIncremental))
			if err != nil {
				t.Fatal(err)
			}
			van, err := VanillaComponents(g, WithSeed(3))
			if err != nil {
				t.Fatal(err)
			}
			if err := check.SamePartition(fast.Labels, van.Labels); err != nil {
				t.Fatalf("incremental vs vanilla: %v", err)
			}
			if err := check.SamePartition(fast.Labels, baseline.Components(g)); err != nil {
				t.Fatalf("incremental vs union-find: %v", err)
			}
			if !slices.Equal(fast.Labels, baseline.MinComponents(g)) {
				t.Fatal("incremental labels are not the minimum-id labeling")
			}
			if fast.NumComponents != van.NumComponents {
				t.Fatalf("component counts differ: incremental %d, vanilla %d",
					fast.NumComponents, van.NumComponents)
			}
		})
	}
}

// TestBackendEquivalenceSimulated: the Components backends on the same
// graphs, including the (slow) simulator on a reduced zoo.
func TestBackendEquivalenceSimulated(t *testing.T) {
	names := []string{"path", "grid2d", "gnm", "clique-beads", "disjoint", "isolated"}
	zoo := generatorZoo()
	for _, name := range names {
		g := zoo[name]
		t.Run(name, func(t *testing.T) {
			sim, err := Components(g, WithSeed(5))
			if err != nil {
				t.Fatal(err)
			}
			got, err := Components(g, WithBackend(BackendIncremental))
			if err != nil {
				t.Fatal(err)
			}
			if err := check.SamePartition(got.Labels, sim.Labels); err != nil {
				t.Fatalf("incremental vs simulated: %v", err)
			}
		})
	}
}

// TestComponentsBackendDispatch: the default backend is the simulator
// (with model costs populated); the fast backend reports itself, one
// round, and leaves the model-only fields zero.
func TestComponentsBackendDispatch(t *testing.T) {
	g := graph.Gnm(2000, 8000, 5)
	sim, err := Components(g, WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if sim.Stats.Backend != BackendSimulated {
		t.Fatalf("default backend = %v, want simulated", sim.Stats.Backend)
	}
	if sim.Stats.PRAMSteps == 0 || sim.Stats.Work == 0 {
		t.Fatal("simulated run left model costs unpopulated")
	}
	inc, err := Components(g, WithBackend(BackendIncremental))
	if err != nil {
		t.Fatal(err)
	}
	if inc.Stats.Backend != BackendIncremental {
		t.Fatalf("backend = %v, want incremental", inc.Stats.Backend)
	}
	if inc.Stats.PRAMSteps != 0 || inc.Stats.Work != 0 || inc.Stats.MaxProcessors != 0 ||
		inc.Stats.PeakSpace != 0 || inc.Stats.CumBlockWords != 0 {
		t.Fatalf("incremental run populated model-only fields: %+v", inc.Stats)
	}
	if inc.Stats.Rounds != 1 {
		t.Fatalf("one-shot incremental run reports %d rounds, want 1", inc.Stats.Rounds)
	}
	if inc.Stats.Workers == 0 || inc.Stats.Wall == 0 {
		t.Fatalf("incremental run left real quantities unpopulated: %+v", inc.Stats)
	}
	if err := check.SamePartition(sim.Labels, inc.Labels); err != nil {
		t.Fatal(err)
	}
}

func TestParseBackend(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Backend
	}{{"simulated", BackendSimulated}, {"sim", BackendSimulated}, {"", BackendSimulated},
		{"native", BackendNative}, {"incremental", BackendIncremental}, {"inc", BackendIncremental},
		// Case-insensitive, whitespace-tolerant (ISSUE-4 satellite).
		{"Native", BackendNative}, {"SIM", BackendSimulated}, {"  InCremental ", BackendIncremental}} {
		got, err := ParseBackend(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseBackend(%q) = %v, %v", tc.in, got, err)
		}
	}
	err := func() error { _, err := ParseBackend("gpu"); return err }()
	if err == nil {
		t.Fatal("ParseBackend accepted nonsense")
	}
	// The registry-driven error names what is actually registered.
	for _, name := range BackendNames() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("ParseBackend error %q does not list backend %q", err, name)
		}
	}
	// The deprecated alias is the fast backend itself, so it prints
	// under the canonical name.
	if BackendNative.String() != "incremental" || BackendSimulated.String() != "simulated" ||
		BackendIncremental.String() != "incremental" {
		t.Fatal("Backend.String mismatch")
	}
}

// TestBackendTextMarshal: Backend round-trips through the
// encoding.TextMarshaler/TextUnmarshaler pair, which is what makes it
// usable with flag.TextVar and in JSON bench output.
func TestBackendTextMarshal(t *testing.T) {
	if len(Backends()) != len(BackendNames()) || len(Backends()) == 0 {
		t.Fatalf("registry enumeration inconsistent: %v vs %v", Backends(), BackendNames())
	}
	for i, bk := range Backends() {
		text, err := bk.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		if string(text) != BackendNames()[i] || string(text) != bk.String() {
			t.Fatalf("MarshalText(%v) = %q, want %q", bk, text, BackendNames()[i])
		}
		var back Backend
		if err := back.UnmarshalText(text); err != nil || back != bk {
			t.Fatalf("UnmarshalText(%q) = %v, %v", text, back, err)
		}
		var js Backend
		if err := json.Unmarshal([]byte(`"`+strings.ToUpper(string(text))+`"`), &js); err != nil || js != bk {
			t.Fatalf("json round-trip of %q: %v, %v", text, js, err)
		}
	}
	if _, err := Backend(42).MarshalText(); err == nil {
		t.Fatal("MarshalText accepted an unregistered backend")
	}
	var b Backend
	if err := b.UnmarshalText([]byte("quantum")); err == nil {
		t.Fatal("UnmarshalText accepted nonsense")
	}
}

// TestNativeAliasIsFastBackend: the deprecated "native" name —
// through ParseBackend, JSON, and the BackendNative constant — selects
// the fast backend, and a Service built that way streams: it ingests
// and grows.
func TestNativeAliasIsFastBackend(t *testing.T) {
	parsed := mustParseBackend(t, "native")
	var fromJSON Backend
	if err := json.Unmarshal([]byte(`"native"`), &fromJSON); err != nil {
		t.Fatal(err)
	}
	for _, bk := range []Backend{parsed, fromJSON, BackendNative} {
		if bk != BackendIncremental {
			t.Fatalf("native alias resolved to %v, want incremental", bk)
		}
	}
	sv, err := NewService(4, WithBackend(BackendNative))
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	if sv.Backend() != BackendIncremental {
		t.Fatalf("Service backend = %v, want incremental", sv.Backend())
	}
	if _, err := sv.Ingest(context.Background(), [][2]int{{0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := sv.Grow(6); err != nil {
		t.Fatal(err)
	}
	if _, err := sv.Ingest(context.Background(), [][2]int{{1, 5}}); err != nil {
		t.Fatal(err)
	}
	if !sv.SameComponent(0, 5) || sv.N() != 6 || sv.NumComponents() != 4 {
		t.Fatalf("after ingest+grow: N=%d components=%d labels=%v", sv.N(), sv.NumComponents(), sv.Labels())
	}
}

// TestBackendEquivalenceWorkersSweep: the partition must not depend on
// the worker count, the one scheduler knob left. At 1, 2, 7 and 16
// workers every backend solves one-shot through the public API, and the
// incremental engine also replays the graph as three span batches;
// every result must induce the sequential union-find partition, and
// Stats must echo the worker count that ran: the pool size on the
// incremental engine, 1 on the simulator (Components and
// SpanningForest alike), which ignores WithWorkers. Under -race this
// doubles as the scheduler stress test.
func TestBackendEquivalenceWorkersSweep(t *testing.T) {
	names := []string{"path", "binary-tree", "gnm", "clique-beads", "isolated"}
	zoo := generatorZoo()
	for _, name := range names {
		g := zoo[name]
		oracle := baseline.Components(g)
		for _, w := range []int{1, 2, 7, 16} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, w), func(t *testing.T) {
				for _, bk := range Backends() {
					res, err := Components(g, WithBackend(bk), WithWorkers(w))
					if err != nil {
						t.Fatal(err)
					}
					want := w
					if bk == BackendSimulated {
						want = 1
					}
					if res.Stats.Workers != want {
						t.Fatalf("%v Stats.Workers = %d, want %d", bk, res.Stats.Workers, want)
					}
					if err := check.SamePartition(res.Labels, oracle); err != nil {
						t.Fatalf("%v vs union-find: %v", bk, err)
					}
				}
				fr, err := SpanningForest(g, WithWorkers(w))
				if err != nil {
					t.Fatal(err)
				}
				if fr.Stats.Workers != 1 {
					t.Fatalf("SpanningForest Stats.Workers = %d, want 1", fr.Stats.Workers)
				}
				eng := incremental.New(g.N, incremental.Options{Workers: w})
				defer eng.Close()
				for _, span := range g.SpanBatches(3) {
					if _, err := eng.AddSpan(span); err != nil {
						t.Fatal(err)
					}
				}
				if err := check.SamePartition(eng.Snapshot().Labels, oracle); err != nil {
					t.Fatalf("batched incremental vs union-find: %v", err)
				}
			})
		}
	}
}

// unionFindSweeps labels the vertices of g with the two sweeps a
// one-shot Run performs — incremental.Union over edges, then an
// incremental.Find flatten — applied to each span in turn, as the
// engine ingests and publishes batches. Each sweep is claimed through a
// pool.Shard under an explicit schedule: grain is the claim size
// (≤ 0 adaptive); affinity gives each of the workers its sticky home
// range, while without it every worker claims from one shared cursor;
// allArcs sweeps the mirror arcs too, so every edge is linked from
// both orientations concurrently. After every span the labels must
// already be flat and canonical: each label a root no larger than its
// vertex.
func unionFindSweeps(t *testing.T, n int, spans []graph.EdgeSpan, workers, grain int, affinity, allArcs bool) []int32 {
	t.Helper()
	labels := make([]int32, n)
	for i := range labels {
		labels[i] = int32(i)
	}
	var s pool.Shard
	sweep := func(total int, body func(i int)) {
		ranges := 1
		if affinity {
			ranges = workers
		}
		s.Init(total, grain, ranges, func(_, lo, hi int) bool {
			for i := lo; i < hi; i++ {
				body(i)
			}
			return true
		})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				s.Work(w)
			}(w)
		}
		wg.Wait()
	}
	for b, span := range spans {
		if allArcs {
			sweep(len(span.U), func(j int) { incremental.Union(labels, span.U[j], span.V[j]) })
		} else {
			sweep(span.Len(), func(i int) { incremental.Union(labels, span.U[2*i], span.V[2*i]) })
		}
		sweep(n, func(v int) { atomic.StoreInt32(&labels[v], incremental.Find(labels, int32(v))) })
		for v, l := range labels {
			if l > int32(v) || labels[l] != l {
				t.Fatalf("after span %d: labels[%d] = %d, labels[%d] = %d; want a root ≤ %d", b, v, l, l, labels[l], v)
			}
		}
	}
	return labels
}

// TestBackendEquivalenceGrainSweep: the labeling must not depend on
// the scheduler claim grain. The engines always claim at adaptive
// grain, so the grain is pinned where it is still a parameter, the
// pool.Shard behind every sharded sweep: degenerate (1), prime (7),
// ceiling (4096) and adaptive (0) grains at 4 workers must all yield
// exactly the minimum-id labeling, which is also what the engine's
// one-shot Run returns.
func TestBackendEquivalenceGrainSweep(t *testing.T) {
	names := []string{"path", "binary-tree", "gnm", "clique-beads", "isolated"}
	zoo := generatorZoo()
	for _, name := range names {
		g := zoo[name]
		want := baseline.MinComponents(g)
		res, err := Components(g, WithBackend(BackendIncremental), WithWorkers(4))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Labels, want) {
			t.Fatalf("%s: one-shot labels are not the minimum-id labeling", name)
		}
		for _, grain := range []int{1, 7, 4096, 0} {
			t.Run(fmt.Sprintf("%s/grain=%d", name, grain), func(t *testing.T) {
				got := unionFindSweeps(t, g.N, []graph.EdgeSpan{g.Span()}, 4, grain, true, false)
				if !slices.Equal(got, want) {
					t.Fatal("labels differ from the minimum-id labeling")
				}
			})
		}
	}
}

// TestEngineOptionMatrixEquivalence crosses the schedules the engines
// never pick themselves — degenerate grain, one shared claim cursor
// instead of sticky home ranges (noaff), and sweeping every arc
// instead of one arc per edge (nopack) — over the union-find sweeps the
// engine runs: "native" is the one whole-graph pass of Run,
// "incremental" three span batches each followed by a flatten. Every cell must yield
// exactly the minimum-id labeling; under -race this doubles as the
// scheduler stress test.
func TestEngineOptionMatrixEquivalence(t *testing.T) {
	const workers = 4
	zoo := generatorZoo()
	for _, name := range []string{"gnm", "clique-beads", "binary-tree"} {
		g := zoo[name]
		want := baseline.MinComponents(g)
		for _, grain := range []int{1, 0} {
			for _, noAff := range []bool{false, true} {
				for _, noPack := range []bool{false, true} {
					t.Run(fmt.Sprintf("native/%s/grain=%d,noaff=%v,nopack=%v", name, grain, noAff, noPack),
						func(t *testing.T) {
							got := unionFindSweeps(t, g.N, []graph.EdgeSpan{g.Span()}, workers, grain, !noAff, noPack)
							if !slices.Equal(got, want) {
								t.Fatal("labels differ from the minimum-id labeling")
							}
						})
				}
				t.Run(fmt.Sprintf("incremental/%s/grain=%d,noaff=%v", name, grain, noAff),
					func(t *testing.T) {
						got := unionFindSweeps(t, g.N, g.SpanBatches(3), workers, grain, !noAff, false)
						if !slices.Equal(got, want) {
							t.Fatal("labels differ from the minimum-id labeling")
						}
					})
			}
		}
	}
}

// TestNativeConvergesUnderConcurrentSweeps exercises the one-shot Run
// (the former native engine) repeatedly on the same long-lived
// instance over a graph large enough
// that adaptive grain still issues 8 chunk claims per worker on the
// edge sweep at 4 workers, so claims and steals race; meant to run
// under -race.
func TestNativeConvergesUnderConcurrentSweeps(t *testing.T) {
	const workers = 4
	g := graph.CliqueBeads(graph.CliqueBeadsSpec{Beads: 64, Size: 16, IntraDeg: 8, Bridges: 2, Seed: 21})
	if m := g.NumEdges(); m < workers*8*pool.MinGrain {
		t.Fatalf("graph has %d edges, want ≥ %d so every worker claims 8 chunks", m, workers*8*pool.MinGrain)
	}
	oracle := baseline.Components(g)
	eng := incremental.New(0, incremental.Options{Workers: workers})
	defer eng.Close()
	labels := make([]int32, g.N)
	for i := 0; i < 8; i++ {
		if _, err := eng.Run(context.Background(), g, labels); err != nil {
			t.Fatal(err)
		}
		if err := check.SamePartition(labels, oracle); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
}

// FuzzBackendEquivalence: arbitrary multigraphs, worker counts, and
// batch splits — the fast backend's one-shot solve, batched replay
// through the boxed Service.Ingest boundary, the simulated backend and
// the union-find oracles must always agree.
func FuzzBackendEquivalence(f *testing.F) {
	f.Add(uint16(10), uint16(20), int64(1), uint8(0), uint8(1))
	f.Add(uint16(100), uint16(50), int64(2), uint8(1), uint8(3))
	f.Add(uint16(1), uint16(0), int64(3), uint8(4), uint8(0))
	f.Add(uint16(300), uint16(2000), int64(4), uint8(16), uint8(13))
	f.Fuzz(func(t *testing.T, nRaw, mRaw uint16, gseed int64, workersRaw, batchesRaw uint8) {
		n := int(nRaw%400) + 1
		m := int(mRaw % 1500)
		g := graph.Gnm(n, m, gseed)
		oracle := baseline.Components(g)
		workers := int(workersRaw % 17)
		res, err := Components(g, WithBackend(BackendIncremental), WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Labels, baseline.MinComponents(g)) {
			t.Fatal("one-shot labels are not the minimum-id labeling")
		}
		sim, err := Components(g, WithSeed(uint64(gseed)))
		if err != nil {
			t.Fatal(err)
		}
		if err := check.SamePartition(sim.Labels, oracle); err != nil {
			t.Fatalf("simulated: %v", err)
		}
		// Batched replay through the boxed Service.Ingest boundary: the
		// partition must not depend on the split.
		sv, err := NewService(g.N, WithBackend(BackendIncremental), WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		defer sv.Close()
		for _, batch := range g.SpanBatches(int(batchesRaw%29) + 1) {
			if _, err := sv.Ingest(context.Background(), batch.Pairs()); err != nil {
				t.Fatal(err)
			}
		}
		if err := check.SamePartition(sv.Labels(), oracle); err != nil {
			t.Fatalf("batched incremental: %v", err)
		}
	})
}
