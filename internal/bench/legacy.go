package bench

import (
	"fmt"
	"math/cmplx"
	"sort"
	"strings"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/fermion"
)

// This file keeps the pre-optimization Majorana expansion and router as
// the kernel suite's baselines and as the references the differential
// tests compare the shipping implementations against: fermion's
// compact-key accumulation must reproduce legacyMajorana's terms bit for
// bit, and arch.Route's per-call BFS tables must reproduce legacyRoute's
// gates, swaps and final layout.

// legacyMonomial is a mutable Majorana monomial during expansion.
type legacyMonomial struct {
	coeff   complex128
	indices []int
}

func (m legacyMonomial) normalize() fermion.MajoranaTerm {
	idx := make([]int, len(m.indices))
	copy(idx, m.indices)
	sign := 1
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && idx[j-1] > idx[j]; j-- {
			idx[j-1], idx[j] = idx[j], idx[j-1]
			sign = -sign
		}
	}
	out := idx[:0]
	for i := 0; i < len(idx); {
		if i+1 < len(idx) && idx[i] == idx[i+1] {
			i += 2
			continue
		}
		out = append(out, idx[i])
		i++
	}
	c := m.coeff
	if sign < 0 {
		c = -c
	}
	res := make([]int, len(out))
	copy(res, out)
	return fermion.MajoranaTerm{Coeff: c, Indices: res}
}

func legacyIndexKey(idx []int) string {
	var b strings.Builder
	for _, i := range idx {
		fmt.Fprintf(&b, "%d,", i)
	}
	return b.String()
}

func legacyAppendCopy(s []int, v int) []int {
	r := make([]int, len(s), len(s)+1)
	copy(r, s)
	return append(r, v)
}

// legacyMajorana is Hamiltonian.Majorana as it was before compact keys:
// every monomial is expanded into fresh slices and accumulated under a
// fmt-built decimal key.
func legacyMajorana(h *fermion.Hamiltonian, eps float64) *fermion.MajoranaHamiltonian {
	acc := make(map[string]fermion.MajoranaTerm)
	for _, t := range h.Terms {
		monos := []legacyMonomial{{coeff: t.Coeff}}
		for _, o := range t.Ops {
			next := make([]legacyMonomial, 0, 2*len(monos))
			sgn := complex(0, 0.5)
			if o.Dagger {
				sgn = complex(0, -0.5)
			}
			for _, m := range monos {
				m1 := legacyMonomial{coeff: m.coeff * 0.5, indices: legacyAppendCopy(m.indices, 2*o.Mode)}
				m2 := legacyMonomial{coeff: m.coeff * sgn, indices: legacyAppendCopy(m.indices, 2*o.Mode+1)}
				next = append(next, m1, m2)
			}
			monos = next
		}
		for _, m := range monos {
			nt := m.normalize()
			k := legacyIndexKey(nt.Indices)
			prev, ok := acc[k]
			if ok {
				nt.Coeff += prev.Coeff
			}
			acc[k] = nt
		}
	}
	out := &fermion.MajoranaHamiltonian{Modes: h.Modes}
	keys := make([]string, 0, len(acc))
	for k := range acc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		t := acc[k]
		if cmplx.Abs(t.Coeff) <= eps {
			continue
		}
		out.Terms = append(out.Terms, t)
	}
	return out
}

// legacyShortestPath is the per-call BFS the router used to run for every
// non-adjacent CNOT, re-listing and sorting neighbours at each step.
func legacyShortestPath(d *arch.Device, a, b int) []int {
	if a == b {
		return []int{a}
	}
	prev := make([]int, d.N)
	for i := range prev {
		prev[i] = -1
	}
	prev[a] = a
	queue := []int{a}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range d.Neighbors(cur) {
			if prev[nb] != -1 {
				continue
			}
			prev[nb] = cur
			if nb == b {
				var path []int
				for v := b; v != a; v = prev[v] {
					path = append(path, v)
				}
				path = append(path, a)
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path
			}
			queue = append(queue, nb)
		}
	}
	return nil
}

// legacyRoute is arch.Route as it was before per-call BFS tables: the
// same greedy placement, then one fresh legacyShortestPath per
// non-adjacent CNOT.
func legacyRoute(c *circuit.Circuit, d *arch.Device) (*arch.RouteResult, error) {
	if c.N > d.N {
		return nil, fmt.Errorf("arch: circuit needs %d qubits, %s has %d", c.N, d.Name, d.N)
	}
	layout := legacyInitialLayout(c, d)
	phys := make([]int, d.N)
	for i := range phys {
		phys[i] = -1
	}
	for l, p := range layout {
		phys[p] = l
	}
	out := circuit.New(d.N)
	swaps := 0
	emitSwap := func(a, b int) {
		out.Append(circuit.CNOT(a, b), circuit.CNOT(b, a), circuit.CNOT(a, b))
		la, lb := phys[a], phys[b]
		phys[a], phys[b] = lb, la
		if la >= 0 {
			layout[la] = b
		}
		if lb >= 0 {
			layout[lb] = a
		}
		swaps++
	}
	for _, g := range c.Gates {
		if g.Kind == circuit.KindSingle {
			ng := g
			ng.Q = layout[g.Q]
			out.Append(ng)
			continue
		}
		pc, pt := layout[g.Q2], layout[g.Q]
		if !d.Coupled(pc, pt) {
			path := legacyShortestPath(d, pc, pt)
			if path == nil {
				return nil, fmt.Errorf("arch: %s disconnected between %d and %d", d.Name, pc, pt)
			}
			for i := 0; i+2 < len(path); i++ {
				emitSwap(path[i], path[i+1])
			}
			pc = layout[g.Q2]
			pt = layout[g.Q]
		}
		out.Append(circuit.CNOT(pc, pt))
	}
	return &arch.RouteResult{
		Circuit:     circuit.Optimize(out),
		SwapsAdded:  swaps,
		FinalLayout: layout,
	}, nil
}

func legacyInitialLayout(c *circuit.Circuit, d *arch.Device) []int {
	inter := make(map[[2]int]int)
	activity := make([]int, c.N)
	for _, g := range c.Gates {
		if g.Kind != circuit.KindCNOT {
			continue
		}
		a, b := g.Q2, g.Q
		if a > b {
			a, b = b, a
		}
		inter[[2]int{a, b}]++
		activity[g.Q]++
		activity[g.Q2]++
	}
	order := make([]int, c.N)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return activity[order[i]] > activity[order[j]] })

	layout := make([]int, c.N)
	for i := range layout {
		layout[i] = -1
	}
	used := make([]bool, d.N)
	bestP := 0
	for p := 1; p < d.N; p++ {
		if d.Degree(p) > d.Degree(bestP) {
			bestP = p
		}
	}
	place := func(l, p int) {
		layout[l] = p
		used[p] = true
	}
	place(order[0], bestP)
	for _, l := range order[1:] {
		bestPartner, bestW := -1, -1
		for o := 0; o < c.N; o++ {
			if layout[o] < 0 || o == l {
				continue
			}
			a, b := l, o
			if a > b {
				a, b = b, a
			}
			if w := inter[[2]int{a, b}]; w > bestW {
				bestW, bestPartner = w, o
			}
		}
		target := bestP
		if bestPartner >= 0 {
			target = layout[bestPartner]
		}
		place(l, legacyNearestFree(d, target, used))
	}
	return layout
}

func legacyNearestFree(d *arch.Device, from int, used []bool) int {
	if !used[from] {
		return from
	}
	seen := make([]bool, d.N)
	seen[from] = true
	queue := []int{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range d.Neighbors(cur) {
			if seen[nb] {
				continue
			}
			if !used[nb] {
				return nb
			}
			seen[nb] = true
			queue = append(queue, nb)
		}
	}
	panic("arch: no free physical qubit")
}
