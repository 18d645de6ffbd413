package pram_test

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/graph"
	"repro/internal/ccbase"
	"repro/internal/core"
	"repro/internal/pram"
	"repro/internal/spanning"
	"repro/internal/vanilla"
)

// pinnedCosts is what a simulated run must reproduce exactly: the
// machine's cost counters, the round or phase count, and an FNV-64a
// hash of the labels (followed, for spanning, by the forest's edge
// indices).
type pinnedCosts struct {
	Steps, Work, MaxProcs, MaxSpace int64
	Rounds                          int
	Hash                            uint64
}

// TestModelCostsPinned checks core, ccbase, spanning and vanilla, each
// on one fixed Gnm graph and seed, against literal model costs and
// label hashes. TestModelCostsIndependentOfGOMAXPROCS only compares
// runs with one another, so a change that alters every run alike
// passes it; running each step's processors in reverse index order,
// for one, moves core's, ccbase's and spanning's constants here. A
// deliberate change to an algorithm's model cost updates these
// constants and the E1–E10 tables together.
func TestModelCostsPinned(t *testing.T) {
	gCore := graph.Gnm(20000, 100000, 9)
	gBase := graph.Gnm(20000, 80000, 6)
	gForest := graph.Gnm(10000, 40000, 6)
	cases := []struct {
		name string
		want pinnedCosts
		run  func(m *pram.Machine) pinnedCosts
	}{
		{"core", pinnedCosts{Steps: 253, Work: 17269535, MaxProcs: 200000, MaxSpace: 976, Rounds: 5, Hash: 0x289d19f7896c7923}, func(m *pram.Machine) pinnedCosts {
			r := core.Run(m, gCore, core.DefaultParams(3))
			return pinned(r.Stats, r.Rounds, r.Labels, nil)
		}},
		{"ccbase", pinnedCosts{Steps: 173, Work: 11624008, MaxProcs: 160000, MaxSpace: 352, Rounds: 6, Hash: 0x11dda248629de9ac}, func(m *pram.Machine) pinnedCosts {
			r := ccbase.Run(m, gBase, ccbase.DefaultParams(2))
			return pinned(r.Stats, r.Phases, r.Labels, nil)
		}},
		{"spanning", pinnedCosts{Steps: 291, Work: 8502362, MaxProcs: 80000, MaxSpace: 464, Rounds: 9, Hash: 0xd41933d26531d10b}, func(m *pram.Machine) pinnedCosts {
			r := spanning.Run(m, gForest, spanning.DefaultParams(4))
			return pinned(r.Stats, r.Phases, r.Labels, r.ForestEdges)
		}},
		{"vanilla", pinnedCosts{Steps: 106, Work: 10940000, MaxProcs: 160000, MaxSpace: 0, Rounds: 21, Hash: 0x1045748d2061e428}, func(m *pram.Machine) pinnedCosts {
			r := vanilla.Run(m, gBase, 2, 0)
			return pinned(r.Stats, r.Phases, r.Labels, nil)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.run(pram.New(0)); got != c.want {
				t.Errorf("got  %#v\nwant %#v", got, c.want)
			}
		})
	}
}

func pinned(s pram.Stats, rounds int, labels []int32, forest []int) pinnedCosts {
	h := fnv.New64a()
	var buf [8]byte
	for _, l := range labels {
		binary.LittleEndian.PutUint32(buf[:4], uint32(l))
		h.Write(buf[:4])
	}
	for _, e := range forest {
		binary.LittleEndian.PutUint64(buf[:], uint64(e))
		h.Write(buf[:])
	}
	return pinnedCosts{s.Steps, s.Work, s.MaxProcs, s.MaxSpace, rounds, h.Sum64()}
}
