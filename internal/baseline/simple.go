package baseline

import (
	"math/bits"

	"repro/graph"
	"repro/internal/pram"
)

// LiuTarjanMinLink is one of the simple concurrent labeling algorithms
// analyzed by Liu and Tarjan [LT19] (the paper's §1 cites these as the
// practical O(log n) COMBINING-CRCW algorithms): repeat { parent-link
// to the minimum neighbour parent; shortcut; alter } until only loops
// remain. Runs in O(log n) rounds on an ARBITRARY CRCW PRAM when the
// min is computed with a combining write; we charge O(1) per round as
// [LT19] do for the COMBINING model.
func LiuTarjanMinLink(m *pram.Machine, g *graph.Graph) ParallelResult {
	n := g.N
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	// Working arc list, altered in place each round.
	au := make([]int32, len(g.U))
	av := make([]int32, len(g.V))
	copy(au, g.U)
	copy(av, g.V)

	best := make([]int64, n) // min-combine cell per vertex, packed as int64
	snap := make([]int32, n)
	rounds := 0
	for {
		rounds++
		// Compute min neighbour parent per vertex (combining write).
		m.Step(n, func(i int) {
			best[i] = int64(p[i])
		})
		m.Step(len(au), func(i int) {
			x, y := au[i], av[i]
			if x == y {
				return
			}
			py := int64(pram.Load32(&p[y]))
			minCombine(&best[x], py)
		})
		// Parent link: v.p := min(v.p, best).
		var changed int64
		m.Step(n, func(i int) {
			b := int32(pram.Load64(&best[i]))
			if b < p[i] {
				p[i] = b
				pram.Store64(&changed, 1)
			}
		})
		// Shortcut (snapshot semantics: reads precede writes).
		copy(snap, p)
		m.Step(n, func(i int) {
			gp := snap[snap[i]]
			if gp != snap[i] {
				pram.Store64(&changed, 1)
			}
			p[i] = gp
		})
		// Alter.
		m.Step(len(au), func(i int) {
			au[i] = p[au[i]]
			av[i] = p[av[i]]
		})
		if pram.Load64(&changed) == 0 {
			break
		}
	}
	return ParallelResult{Labels: p, Rounds: rounds, Stats: m.Stats()}
}

// minCombine lowers *cell to v. It stands in for the COMBINING-CRCW
// min write that [LT19] assume; the PRAM cost charged is the single
// concurrent write of that model.
func minCombine(cell *int64, v int64) {
	if v < *cell {
		*cell = v
	}
}

// LabelPropagation is synchronous min-label flooding: each round every
// vertex adopts the minimum label in its closed neighbourhood. It needs
// exactly ecc(min vertex) ≤ d rounds per component — the Θ(d) baseline
// the paper's O(log d) bound is measured against (Experiment E9).
func LabelPropagation(m *pram.Machine, g *graph.Graph) ParallelResult {
	n := g.N
	label := make([]int32, n)
	next := make([]int64, n)
	for i := range label {
		label[i] = int32(i)
	}
	u, v := g.U, g.V
	rounds := 0
	for {
		rounds++
		m.Step(n, func(i int) {
			next[i] = int64(label[i])
		})
		m.Step(len(u), func(i int) {
			minCombine(&next[u[i]], int64(label[v[i]]))
		})
		var changed int64
		m.Step(n, func(i int) {
			nv := int32(next[i])
			if nv != label[i] {
				label[i] = nv
				pram.Store64(&changed, 1)
			}
		})
		if pram.Load64(&changed) == 0 {
			break
		}
	}
	return ParallelResult{Labels: label, Rounds: rounds, Stats: m.Stats()}
}

// MatrixSquaring computes components by repeated boolean squaring of
// the adjacency matrix (footnote 3: O(log d) time but far from
// work-efficient — Θ(n³) work per round as bitset matrix product).
// Intended for small n in Experiment E9's work comparison.
func MatrixSquaring(m *pram.Machine, g *graph.Graph) ParallelResult {
	n := g.N
	words := (n + 63) / 64
	rows := make([][]uint64, n)
	for i := range rows {
		rows[i] = make([]uint64, words)
		set(rows[i], i)
	}
	for i := 0; i < len(g.U); i++ {
		set(rows[g.U[i]], int(g.V[i]))
	}
	rounds := 0
	tmp := make([][]uint64, n)
	for i := range tmp {
		tmp[i] = make([]uint64, words)
	}
	for {
		rounds++
		// tmp = rows ∨ rows²  (boolean product), one PRAM step with n²
		// processors in the model; the host does n rows in parallel.
		m.StepCost(1, n, func(i int) {
			out := tmp[i]
			copy(out, rows[i])
			ri := rows[i]
			for w := 0; w < words; w++ {
				bits := ri[w]
				for bits != 0 {
					b := bits & (-bits)
					j := w*64 + trailingZeros(bits)
					bits ^= b
					rj := rows[j]
					for k := 0; k < words; k++ {
						out[k] |= rj[k]
					}
				}
			}
		})
		changed := false
		for i := 0; i < n && !changed; i++ {
			for w := 0; w < words; w++ {
				if tmp[i][w] != rows[i][w] {
					changed = true
					break
				}
			}
		}
		rows, tmp = tmp, rows
		if !changed {
			break
		}
	}
	labels := make([]int32, n)
	for i := 0; i < n; i++ {
		// Label = smallest reachable vertex.
		for w := 0; w < words; w++ {
			if rows[i][w] != 0 {
				labels[i] = int32(w*64 + trailingZeros(rows[i][w]))
				break
			}
		}
	}
	return ParallelResult{Labels: labels, Rounds: rounds, Stats: m.Stats()}
}

func set(row []uint64, j int) { row[j/64] |= 1 << (uint(j) % 64) }

func trailingZeros(x uint64) int { return bits.TrailingZeros64(x) }
