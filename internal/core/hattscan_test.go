package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fermion"
	"repro/internal/mapping"
	"repro/internal/models"
)

// hattReference is the full-rescan HATT search the incremental scan
// replaced: every step materializes all vacuum-preserving (O_X, O_Y, O_Z)
// candidates in enumeration order, scores each, and keeps the first
// minimum of (settled weight, tie-break key). It returns the finished
// builder and the number of settledWeight calls it made.
func hattReference(p *problem, tb TieBreak) (*builder, int) {
	b := newBuilder(p)
	n := p.n
	depth := make([]int, 3*n+1)
	scored := 0
	type cand struct{ ox, oy, oz int }
	var cands []cand
	for i := 0; i < n; i++ {
		cands = cands[:0]
		for _, ox := range b.u {
			x := b.mdown[ox]
			if x%2 == 1 || x == 2*n {
				continue
			}
			oy := b.mup[x+1]
			if oy == ox {
				continue
			}
			for _, oz := range b.u {
				if oz != ox && oz != oy {
					cands = append(cands, cand{ox, oy, oz})
				}
			}
		}
		if len(cands) == 0 {
			panic("core: no valid vacuum-preserving selection (invariant violated)")
		}
		bestW, bestTie, bestIdx := int(^uint(0)>>1), int(^uint(0)>>1), -1
		for j, c := range cands {
			scored++
			w := settledWeight(b.bits[c.ox], b.bits[c.oy], b.bits[c.oz])
			if w > bestW {
				continue
			}
			tie := 0
			switch tb {
			case TieDepth:
				tie = 1 + max3(depth[c.ox], depth[c.oy], depth[c.oz])
			case TieSupport:
				tie = parentSupport(b.bits[c.ox], b.bits[c.oy], b.bits[c.oz])
			}
			if w < bestW || tie < bestTie {
				bestW, bestTie, bestIdx = w, tie, j
			}
		}
		c := cands[bestIdx]
		depth[2*n+1+i] = 1 + max3(depth[c.ox], depth[c.oy], depth[c.oz])
		b.merge(i, c.ox, c.oy, c.oz)
	}
	return b, scored
}

// testLattice is a diluted Fermi–Hubbard-like grid: a random 85% of the
// nearest-neighbour bonds hop (both spins) with random amplitudes, three
// random long-range hops join non-adjacent sites, and every site carries
// an on-site U. Mode 2·site+spin.
func testLattice(rows, cols int, seed int64) *fermion.MajoranaHamiltonian {
	r := rand.New(rand.NewSource(seed))
	sites := rows * cols
	h := fermion.NewHamiltonian(2 * sites)
	hop := func(a, b int, t float64) {
		for s := 0; s < 2; s++ {
			h.AddHermitian(complex(-t, 0),
				fermion.Op{Mode: 2*a + s, Dagger: true}, fermion.Op{Mode: 2*b + s})
		}
	}
	for s := 0; s < sites; s++ {
		if s%cols+1 < cols && r.Intn(100) < 85 {
			hop(s, s+1, 0.5+r.Float64())
		}
		if s+cols < sites && r.Intn(100) < 85 {
			hop(s, s+cols, 0.5+r.Float64())
		}
	}
	for long := 0; long < 3; long++ {
		a, b := r.Intn(sites), r.Intn(sites)
		if a != b {
			hop(a, b, 0.1+0.2*r.Float64())
		}
	}
	for s := 0; s < sites; s++ {
		h.Add(complex(2+4*r.Float64(), 0),
			fermion.Op{Mode: 2 * s, Dagger: true}, fermion.Op{Mode: 2 * s},
			fermion.Op{Mode: 2*s + 1, Dagger: true}, fermion.Op{Mode: 2*s + 1})
	}
	return h.Majorana(1e-12)
}

// TestHattScanMatchesReference asserts the incremental argmin is
// invisible: for every TieBreak it must pick the full rescan's merge
// schedule and produce byte-identical mappings, on small random
// Hamiltonians (odd shapes) and on diluted and full 64-, 72- and 128-mode
// lattices (the sizes the scan exists for).
func TestHattScanMatchesReference(t *testing.T) {
	type input struct {
		name string
		mh   *fermion.MajoranaHamiltonian
	}
	var inputs []input
	for seed := int64(1); seed <= 10; seed++ {
		modes := 3 + int(seed)%7
		inputs = append(inputs, input{fmt.Sprintf("random%d", seed), randomFermionic(modes, 3*modes, seed)})
	}
	for _, shape := range [][2]int{{4, 8}, {6, 6}, {8, 8}} {
		name := fmt.Sprintf("lattice%dx%d", shape[0], shape[1])
		inputs = append(inputs, input{name, testLattice(shape[0], shape[1], int64(shape[0]*shape[1]))})
		// The undiluted lattice: full symmetry, so many equal-weight ties.
		spec := fmt.Sprintf("hubbard:%dx%d", shape[0], shape[1])
		h, err := models.Resolve(spec)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{spec, h.Majorana(1e-12)})
	}
	for _, in := range inputs {
		for _, tb := range []TieBreak{TieFirst, TieDepth, TieSupport} {
			ref, _ := hattReference(newProblem(in.mh), tb)
			got := BuildWithOptions(in.mh, BuildOptions{TieBreak: tb, NoMemo: true})
			if got.PredictedWeight != ref.predicted {
				t.Fatalf("%s tiebreak %d: weight %d, reference %d", in.name, tb, got.PredictedWeight, ref.predicted)
			}
			s, err := runHattScan(context.Background(), newProblem(in.mh), BuildOptions{TieBreak: tb})
			if err != nil {
				t.Fatal(err)
			}
			for i := range ref.log {
				if s.b.log[i] != ref.log[i] {
					t.Fatalf("%s tiebreak %d step %d: merge %v, reference %v", in.name, tb, i, s.b.log[i], ref.log[i])
				}
			}
			want := &Result{Mapping: mapping.FromTreeByLeafID("HATT", ref.finish())}
			if !bytes.Equal(mappingBytes(t, got), mappingBytes(t, want)) {
				t.Fatalf("%s tiebreak %d: mapping differs from the reference", in.name, tb)
			}
		}
	}
}

// TestHattScanScoresFewerTriples is the search's cost gate, counted in
// settledWeight calls rather than time so host noise cannot trip it: at
// hubbard:8x8 the incremental scan scores at most a quarter of the
// triples the full rescan scores.
func TestHattScanScoresFewerTriples(t *testing.T) {
	h, err := models.Resolve("hubbard:8x8")
	if err != nil {
		t.Fatal(err)
	}
	mh := h.Majorana(1e-12)
	_, full := hattReference(newProblem(mh), TieFirst)
	s, err := runHattScan(context.Background(), newProblem(mh), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("hubbard:8x8: incremental scan scored %d triples, full rescan %d (%.1f%%)",
		s.scored, full, 100*float64(s.scored)/float64(full))
	if 4*s.scored > full {
		t.Fatalf("incremental scan scored %d triples, more than 25%% of the full rescan's %d", s.scored, full)
	}
}
