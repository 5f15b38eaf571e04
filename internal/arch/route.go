package arch

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/circuit"
)

// RouteResult is a routed circuit plus bookkeeping.
type RouteResult struct {
	Circuit    *circuit.Circuit // over physical qubits
	SwapsAdded int
	// FinalLayout maps logical qubit -> physical qubit after routing.
	FinalLayout []int
}

// Route compiles a logical circuit onto a device ("tetris-lite"): logical
// qubits get an initial greedy placement that co-locates frequently
// interacting pairs on high-degree physical qubits, then each CNOT between
// non-adjacent qubits is routed by moving the control along a BFS shortest
// path with SWAPs (3 CNOTs each). Single-qubit gates pass through. The
// routed circuit, which Route builds and owns, is optimized in place
// with the peephole pass; c is never modified. A device whose coupling
// graph leaves a logical qubit no reachable free physical qubit, or two
// interacting qubits no path, is an error.
func Route(c *circuit.Circuit, d *Device) (*RouteResult, error) {
	if c.N > d.N {
		return nil, fmt.Errorf("arch: circuit needs %d qubits, %s has %d", c.N, d.Name, d.N)
	}
	r := newRouter(d)
	layout, err := r.initialLayout(c) // logical -> physical
	if err != nil {
		return nil, err
	}
	// A counting pass over a copy of the layout sizes the output exactly.
	swaps, err := r.route(c, append([]int(nil), layout...), nil)
	if err != nil {
		return nil, err
	}
	out := circuit.New(d.N)
	out.Gates = make([]circuit.Gate, 0, len(c.Gates)+3*swaps)
	if _, err := r.route(c, layout, out); err != nil {
		return nil, err
	}
	return &RouteResult{
		Circuit:     circuit.OptimizeInPlace(out),
		SwapsAdded:  swaps,
		FinalLayout: layout,
	}, nil
}

// route moves each CNOT's control along a BFS shortest path with SWAPs
// until it is adjacent to the target, updating layout (logical ->
// physical), and returns the number of SWAPs. It appends the routed gates
// to out, or with a nil out only counts them.
func (r *router) route(c *circuit.Circuit, layout []int, out *circuit.Circuit) (int, error) {
	phys := r.phys // physical -> logical (-1 = free)
	for i := range phys {
		phys[i] = -1
	}
	for l, p := range layout {
		phys[p] = l
	}
	swaps := 0
	for i := range c.Gates {
		g := &c.Gates[i]
		if g.Kind == circuit.KindSingle {
			if out != nil {
				ng := *g
				ng.Q = layout[g.Q]
				out.Append(ng)
			}
			continue
		}
		pc, pt := layout[g.Q2], layout[g.Q]
		if !r.d.Coupled(pc, pt) {
			r.path = r.appendPath(r.path[:0], pc, pt)
			if r.path == nil {
				return 0, fmt.Errorf("arch: %s disconnected between %d and %d", r.d.Name, pc, pt)
			}
			// Swap the control along the path until adjacent to the target.
			for k := 0; k+2 < len(r.path); k++ {
				a, b := r.path[k], r.path[k+1]
				if out != nil {
					out.Append(circuit.CNOT(a, b), circuit.CNOT(b, a), circuit.CNOT(a, b))
				}
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
			pc, pt = layout[g.Q2], layout[g.Q]
		}
		if out != nil {
			out.Append(circuit.CNOT(pc, pt))
		}
	}
	return swaps, nil
}

// bfsTableBudget bounds the parent-table entries one router keeps, so a
// huge custom device costs at most this much memory per Route call;
// sources beyond it are searched into a scratch table instead.
const bfsTableBudget = 1 << 22

// router is one Route call's view of a device: the sorted neighbour lists,
// built once, and a BFS parent table per source qubit, filled the first
// time that source needs a path. It lives only as long as the call and
// caches nothing on the Device, which is shared across goroutines and
// mutable through AddEdge.
type router struct {
	d       *Device
	nbrs    [][]int   // ascending neighbour lists
	parent  [][]int32 // parent[s][v]: v's BFS predecessor from s; nil until s is searched
	cached  int       // parent entries held in parent
	scratch []int32   // parent table for sources past bfsTableBudget
	queue   []int
	phys    []int // route's physical -> logical map
	path    []int // route's current SWAP path
}

func newRouter(d *Device) *router {
	nbrs := make([][]int, d.N)
	for p := range nbrs {
		nbrs[p] = make([]int, 0, len(d.adj[p]))
		for q := range d.adj[p] {
			nbrs[p] = append(nbrs[p], q)
		}
		sort.Ints(nbrs[p])
	}
	return &router{
		d:      d,
		nbrs:   nbrs,
		parent: make([][]int32, d.N),
		queue:  make([]int, 0, d.N),
		phys:   make([]int, d.N),
	}
}

// tree returns the BFS parent table rooted at src: entry v is v's
// predecessor on a shortest path from src, src is its own parent, and -1
// marks a qubit src cannot reach. Neighbours are visited in ascending
// order, so the path to any target is the one an early-exit BFS from src
// finds.
func (r *router) tree(src int) []int32 {
	if t := r.parent[src]; t != nil {
		return t
	}
	var t []int32
	if r.cached+r.d.N <= bfsTableBudget {
		t = make([]int32, r.d.N)
		r.parent[src] = t
		r.cached += r.d.N
	} else {
		if r.scratch == nil {
			r.scratch = make([]int32, r.d.N)
		}
		t = r.scratch
	}
	for i := range t {
		t[i] = -1
	}
	t[src] = int32(src)
	q := append(r.queue[:0], src)
	for h := 0; h < len(q); h++ {
		cur := q[h]
		for _, nb := range r.nbrs[cur] {
			if t[nb] == -1 {
				t[nb] = int32(cur)
				q = append(q, nb)
			}
		}
	}
	r.queue = q
	return t
}

// appendPath appends a BFS shortest path from a to b, both endpoints
// included, to dst; it returns nil if b is unreachable from a.
func (r *router) appendPath(dst []int, a, b int) []int {
	if a == b {
		return append(dst, a)
	}
	t := r.tree(a)
	if t[b] == -1 {
		return nil
	}
	start := len(dst)
	for v := b; v != a; v = int(t[v]) {
		dst = append(dst, v)
	}
	dst = append(dst, a)
	slices.Reverse(dst[start:])
	return dst
}

// initialLayout places the most-interacting logical qubits on a
// high-degree connected region: logical qubits are sorted by CNOT
// activity, the busiest is placed on the highest-degree physical qubit,
// and each subsequent qubit goes to the free physical qubit adjacent to
// (or nearest) its strongest already-placed partner. It fails when that
// partner's connected component has no free physical qubit left.
func (r *router) initialLayout(c *circuit.Circuit) ([]int, error) {
	d := r.d
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
	// Seed: busiest logical qubit on the highest-degree physical one.
	bestP := 0
	for p := 1; p < d.N; p++ {
		if len(r.nbrs[p]) > len(r.nbrs[bestP]) {
			bestP = p
		}
	}
	place := func(l, p int) {
		layout[l] = p
		used[p] = true
	}
	place(order[0], bestP)
	for _, l := range order[1:] {
		// Strongest placed partner.
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
		p := r.nearestFree(target, used)
		if p < 0 {
			return nil, fmt.Errorf("arch: %s has no free physical qubit reachable from %d for logical qubit %d (coupling graph disconnected)", d.Name, target, l)
		}
		place(l, p)
	}
	return layout, nil
}

// nearestFree returns the free physical qubit closest to from in BFS
// order (from itself if free), or -1 if from's connected component has
// none.
func (r *router) nearestFree(from int, used []bool) int {
	if !used[from] {
		return from
	}
	seen := make([]bool, r.d.N)
	seen[from] = true
	q := append(r.queue[:0], from)
	for h := 0; h < len(q); h++ {
		for _, nb := range r.nbrs[q[h]] {
			if seen[nb] {
				continue
			}
			if !used[nb] {
				r.queue = q
				return nb
			}
			seen[nb] = true
			q = append(q, nb)
		}
	}
	r.queue = q
	return -1
}
