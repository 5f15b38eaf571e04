package main

import (
	"hash/fnv"
	"math/rand"
	"slices"

	"repro/internal/fermion"
	"repro/internal/models"
)

// Inputs come from the workload seed alone: the same seed gives the same
// sequence of inputs, whatever the timing of the run.

// qualitySeed seeds the fixed quality prefix, which is the same in every
// run so the quality sums repeat exactly.
const qualitySeed = 20250227

// mix derives an independent generator seed from a workload seed and a
// stream label (splitmix64 finalizer).
func mix(seed int64, stream uint64) int64 {
	z := uint64(seed) + stream*0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return int64(z ^ z>>31)
}

// input is one generated Hamiltonian with the Majorana index sets the
// checker recomputed for it.
type input struct {
	h    *fermion.Hamiltonian
	sets []monoKey
}

// setsHash fingerprints an input's index sets independently of their
// order, so two inputs the core build memo would treat alike collide.
func setsHash(modes int, sets []monoKey) uint64 {
	sorted := slices.Clone(sets)
	slices.SortFunc(sorted, func(a, b monoKey) int {
		if a.n != b.n {
			return int(a.n) - int(b.n)
		}
		return slices.Compare(a.idx[:a.n], b.idx[:b.n])
	})
	h := fnv.New64a()
	buf := []byte{byte(modes), byte(modes >> 8)}
	for _, k := range sorted {
		buf = append(buf[:0], k.n)
		for _, i := range k.idx[:k.n] {
			buf = append(buf, byte(i), byte(i>>8))
		}
		h.Write(buf)
	}
	return h.Sum64()
}

// generator yields distinct inputs: an input whose index sets repeat an
// earlier one is redrawn, so no op is served by a cache. build receives
// the index of the input it draws for.
type generator struct {
	rng   *rand.Rand
	next  int // inputs taken so far
	seen  map[uint64]bool
	build func(r *rand.Rand, i int) *fermion.Hamiltonian
}

func (g *generator) take() (input, error) {
	for {
		h := g.build(g.rng, g.next)
		sets, err := majoranaSets(h, 1e-12)
		if err != nil {
			return input{}, err
		}
		key := setsHash(h.Modes, sets)
		if g.seen[key] {
			continue
		}
		g.seen[key] = true
		g.next++
		return input{h: h, sets: sets}, nil
	}
}

func newGenerator(seed int64, build func(r *rand.Rand, i int) *fermion.Hamiltonian) *generator {
	return &generator{rng: rand.New(rand.NewSource(seed)), seen: make(map[uint64]bool), build: build}
}

// latticeShapes are the rows×cols site grids of lattice-search, cycled in
// order so every run has the same size mix: 64, 80, 96, 112 and 128 modes.
var latticeShapes = [][2]int{{4, 8}, {5, 8}, {6, 8}, {7, 8}, {8, 8}}

// randomLattice builds a diluted Fermi–Hubbard-like grid: a random 85%
// of the nearest-neighbour bonds hop with random amplitudes, three
// random long-range hops join non-adjacent sites, and every site carries
// a random on-site U. Every lattice of one shape has the same term
// count; only which bonds and sites are chosen, and the amplitudes, vary.
// Mode 2·site+spin.
func randomLattice(r *rand.Rand, rows, cols int) *fermion.Hamiltonian {
	sites := rows * cols
	h := fermion.NewHamiltonian(2 * sites)
	hop := func(a, b int, t float64) {
		for s := 0; s < 2; s++ {
			h.AddHermitian(complex(-t, 0),
				fermion.Op{Mode: 2*a + s, Dagger: true}, fermion.Op{Mode: 2*b + s})
		}
	}
	var bonds [][2]int
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			s := i*cols + j
			if j+1 < cols {
				bonds = append(bonds, [2]int{s, s + 1})
			}
			if i+1 < rows {
				bonds = append(bonds, [2]int{s, s + cols})
			}
		}
	}
	used := make(map[[2]int]bool)
	for _, k := range r.Perm(len(bonds))[:len(bonds)*85/100] {
		hop(bonds[k][0], bonds[k][1], 0.5+r.Float64())
		used[bonds[k]] = true
	}
	for long := 0; long < 3; {
		a, b := r.Intn(sites), r.Intn(sites)
		if a > b {
			a, b = b, a
		}
		if b-a == 1 || b-a == cols || a == b || used[[2]int{a, b}] {
			continue
		}
		used[[2]int{a, b}] = true
		hop(a, b, 0.1+0.2*r.Float64())
		long++
	}
	for s := 0; s < sites; s++ {
		h.Add(complex(2+4*r.Float64(), 0),
			fermion.Op{Mode: 2 * s, Dagger: true}, fermion.Op{Mode: 2 * s},
			fermion.Op{Mode: 2*s + 1, Dagger: true}, fermion.Op{Mode: 2*s + 1})
	}
	return h
}

func latticeGenerator(seed int64) *generator {
	return newGenerator(seed, func(r *rand.Rand, i int) *fermion.Hamiltonian {
		shape := latticeShapes[i%len(latticeShapes)]
		return randomLattice(r, shape[0], shape[1])
	})
}

// moleculeModes is the size cycle of molecule-routed: 8–14 spin-orbitals,
// weighted so the median op falls inside the 12-mode group rather than on
// a boundary between sizes.
var moleculeModes = []int{8, 10, 12, 12, 14}

// moleculeGenerator draws synthetic molecules with seeded integrals at
// the models package's default locality, 0.4; which integrals fall below
// the cutoff varies with the seed, and so does the index-set pattern.
func moleculeGenerator(seed int64, modes []int) *generator {
	return newGenerator(seed, func(r *rand.Rand, i int) *fermion.Hamiltonian {
		return models.SyntheticMolecule("bench", modes[i%len(modes)], r.Int63(), 0.4)
	})
}
