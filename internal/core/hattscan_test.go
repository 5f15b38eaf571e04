package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
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

// randomArity builds a Hamiltonian of terms random monomials on modes
// modes, each on arity distinct Majorana indices (arity is capped at
// 2·modes), with unit coefficients. Monomials may repeat.
func randomArity(modes, terms, arity int, seed int64) *fermion.MajoranaHamiltonian {
	r := rand.New(rand.NewSource(seed))
	arity = min(arity, 2*modes)
	mh := &fermion.MajoranaHamiltonian{Modes: modes}
	for k := 0; k < terms; k++ {
		idx := r.Perm(2 * modes)[:arity]
		slices.Sort(idx)
		mh.Terms = append(mh.Terms, fermion.MajoranaTerm{Coeff: 1, Indices: idx})
	}
	return mh
}

// checkHattScan runs the scan and hattReference on mh for every
// TieBreak and fails unless both pick the same merge schedule and
// weight and BuildWithOptions produces the reference's mapping byte for
// byte. It returns how many pair scans took the sparse (marking) and
// the dense (plain) branch, summed over the TieBreaks.
func checkHattScan(t *testing.T, name string, mh *fermion.MajoranaHamiltonian) (sparse, dense int) {
	t.Helper()
	for _, tb := range []TieBreak{TieFirst, TieDepth, TieSupport} {
		ref, _ := hattReference(newProblem(mh), tb)
		got := BuildWithOptions(mh, BuildOptions{TieBreak: tb, NoMemo: true})
		if got.PredictedWeight != ref.predicted {
			t.Fatalf("%s tiebreak %d: weight %d, reference %d", name, tb, got.PredictedWeight, ref.predicted)
		}
		s, err := runHattScan(context.Background(), newProblem(mh), BuildOptions{TieBreak: tb})
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref.log {
			if s.b.log[i] != ref.log[i] {
				t.Fatalf("%s tiebreak %d step %d: merge %v, reference %v", name, tb, i, s.b.log[i], ref.log[i])
			}
		}
		want := &Result{Mapping: mapping.FromTreeByLeafID("HATT", ref.finish())}
		if !bytes.Equal(mappingBytes(t, got), mappingBytes(t, want)) {
			t.Fatalf("%s tiebreak %d: mapping differs from the reference", name, tb)
		}
		sparse += s.sparseScans
		dense += s.denseScans
	}
	return sparse, dense
}

// TestHattScanMatchesReference asserts the incremental argmin is
// invisible: for every TieBreak it must pick the full rescan's merge
// schedule and produce byte-identical mappings. The inputs cover both
// scoring branches: small random Hamiltonians (odd shapes), diluted and
// full 64-, 72- and 128-mode lattices (the sparse sizes the scan exists
// for), arity-6 monomials, and dense inputs — seeded synthetic
// molecules, h2 and neutrino:2x2 — whose leaves sit in most terms.
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
	}
	for _, spec := range []string{"hubbard:4x8", "hubbard:6x6", "hubbard:8x8", "h2", "neutrino:2x2"} {
		// The undiluted lattices: full symmetry, so many equal-weight ties.
		h, err := models.Resolve(spec)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{spec, h.Majorana(1e-12)})
	}
	for _, modes := range []int{8, 12, 14} {
		h := models.SyntheticMolecule("diff", modes, 7+int64(modes), 0.4)
		inputs = append(inputs, input{fmt.Sprintf("molecule%d", modes), h.Majorana(1e-12)})
	}
	for _, shape := range [][2]int{{12, 10}, {24, 40}, {32, 60}} {
		name := fmt.Sprintf("arity6-%dmodes-%dterms", shape[0], shape[1])
		inputs = append(inputs, input{name, randomArity(shape[0], shape[1], 6, int64(shape[0]))})
	}
	sparse, dense := 0, 0
	for _, in := range inputs {
		s, d := checkHattScan(t, in.name, in.mh)
		sparse += s
		dense += d
	}
	t.Logf("pair scans: %d sparse, %d dense", sparse, dense)
	if sparse == 0 || dense == 0 {
		t.Fatalf("pair scans: %d sparse, %d dense; the inputs must exercise both branches", sparse, dense)
	}
}

// FuzzHattScanMatchesReference drives the differential check with
// random monomials. The fuzz input decodes to the mode count
// 1+modes%24, the term count terms%96, the monomial arity 1+arity%8
// (capped at 2·modes) and the seed that draws the monomials. The seeds
// cover sparse inputs, dense ones, empty leaves and no terms at all.
func FuzzHattScanMatchesReference(f *testing.F) {
	f.Add(uint8(23), uint8(30), uint8(1), int64(1)) // 24 modes, 30 pairs: sparse
	f.Add(uint8(23), uint8(40), uint8(5), int64(2)) // 24 modes, arity 6: both branches
	f.Add(uint8(11), uint8(60), uint8(5), int64(8)) // 12 modes, arity 6: dense
	f.Add(uint8(3), uint8(70), uint8(3), int64(3))  // 4 modes, 70 quartics: dense
	f.Add(uint8(15), uint8(3), uint8(1), int64(5))  // 16 modes, 3 pairs: mostly empty leaves
	f.Add(uint8(4), uint8(0), uint8(1), int64(6))   // no terms at all
	f.Add(uint8(0), uint8(5), uint8(7), int64(7))   // one mode, arity capped at 2
	f.Fuzz(func(t *testing.T, modes, terms, arity uint8, seed int64) {
		m, k, a := 1+int(modes)%24, int(terms)%96, 1+int(arity)%8
		checkHattScan(t, fmt.Sprintf("fuzz(%d,%d,%d,%d)", m, k, a, seed), randomArity(m, k, a, seed))
	})
}

// TestHattScanScoresFewerTriples is the search's cost gate, counted in
// full settledWeight calls rather than time so host noise cannot trip
// it. At hubbard:8x8 the scan scores at most a quarter of the triples
// the full rescan scores, and at most a quarter of the 165,222 the scan
// scored before far candidates were scored from popcounts and refills
// resumed. On molecule:14, where every pair takes the dense branch, it
// scores no more than the 1,483 of that earlier scan.
func TestHattScanScoresFewerTriples(t *testing.T) {
	const hubbardBefore, moleculeBefore = 165222, 1483
	scan := func(spec string) (scored, full int) {
		h, err := models.Resolve(spec)
		if err != nil {
			t.Fatal(err)
		}
		mh := h.Majorana(1e-12)
		_, full = hattReference(newProblem(mh), TieFirst)
		s, err := runHattScan(context.Background(), newProblem(mh), BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: incremental scan scored %d triples, full rescan %d (%.1f%%)",
			spec, s.scored, full, 100*float64(s.scored)/float64(full))
		return s.scored, full
	}
	scored, full := scan("hubbard:8x8")
	if 4*scored > full {
		t.Fatalf("incremental scan scored %d triples, more than 25%% of the full rescan's %d", scored, full)
	}
	if 4*scored > hubbardBefore {
		t.Fatalf("hubbard:8x8: scan scored %d triples, more than a quarter of the earlier scan's %d", scored, hubbardBefore)
	}
	if scored, _ := scan("molecule:14"); scored > moleculeBefore {
		t.Fatalf("molecule:14: scan scored %d triples, more than the earlier scan's %d", scored, moleculeBefore)
	}
}
