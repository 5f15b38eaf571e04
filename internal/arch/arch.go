// Package arch models superconducting device topologies and implements the
// "tetris-lite" routing pass used for Table IV: compiling a logical
// {CNOT, U3} circuit onto a constrained coupling graph by greedy initial
// placement and BFS SWAP insertion. It ships the three coupling graphs the
// paper evaluates: IBM Manhattan (65 qubits, heavy-hex), Google Sycamore
// (54 qubits, 2D grid with diagonal couplers), and IBM Montreal (27
// qubits, heavy-hex).
package arch

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
)

// Device is an undirected coupling graph over physical qubits.
type Device struct {
	Name  string
	N     int
	adj   map[int]map[int]bool
	edges [][2]int
}

// NewDevice builds a device from an edge list. Construction is the
// validation boundary: a non-positive qubit count, a self-loop, or an
// out-of-range endpoint is an error here (never a panic), so malformed
// input — e.g. a custom device JSON — surfaces as a structured failure
// to whoever supplied it.
func NewDevice(name string, n int, edges [][2]int) (*Device, error) {
	if n <= 0 {
		return nil, fmt.Errorf("arch: device %q needs a positive qubit count, got %d", name, n)
	}
	d := &Device{Name: name, N: n, adj: make(map[int]map[int]bool)}
	for i := 0; i < n; i++ {
		d.adj[i] = make(map[int]bool)
	}
	for _, e := range edges {
		if err := d.AddEdge(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// mustDevice builds one of the package's own catalog devices, whose edge
// lists are program constants: a failure is an internal invariant
// violation, the one place a panic is still appropriate.
func mustDevice(name string, n int, edges [][2]int) *Device {
	d, err := NewDevice(name, n, edges)
	if err != nil {
		panic("arch: invalid built-in device: " + err.Error())
	}
	return d
}

// AddEdge inserts an undirected coupling. Self-loops and out-of-range
// endpoints are errors; inserting an existing edge is a no-op.
func (d *Device) AddEdge(a, b int) error {
	if a == b {
		return fmt.Errorf("arch: self-loop edge (%d,%d) on %s", a, b, d.Name)
	}
	if a < 0 || b < 0 || a >= d.N || b >= d.N {
		return fmt.Errorf("arch: edge (%d,%d) out of range on %s (%d qubits)", a, b, d.Name, d.N)
	}
	if d.adj[a][b] {
		return nil
	}
	d.adj[a][b] = true
	d.adj[b][a] = true
	d.edges = append(d.edges, [2]int{a, b})
	return nil
}

// Fingerprint returns a stable content hash of the device — name, qubit
// count, and the sorted edge set — used to content-address compilation
// results routed onto custom devices.
func (d *Device) Fingerprint() string {
	edges := make([][2]int, len(d.edges))
	for i, e := range d.edges {
		a, b := e[0], e[1]
		if a > b {
			a, b = b, a
		}
		edges[i] = [2]int{a, b}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(d.Name)))
	h.Write(buf[:])
	h.Write([]byte(d.Name))
	binary.LittleEndian.PutUint64(buf[:], uint64(d.N))
	h.Write(buf[:])
	for _, e := range edges {
		binary.LittleEndian.PutUint64(buf[:], uint64(e[0]))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], uint64(e[1]))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// Coupled reports whether physical qubits a and b share a coupler.
func (d *Device) Coupled(a, b int) bool { return d.adj[a][b] }

// Edges returns the coupler list.
func (d *Device) Edges() [][2]int { return d.edges }

// Degree returns the coupler count of physical qubit p.
func (d *Device) Degree(p int) int { return len(d.adj[p]) }

// Neighbors returns the sorted neighbor list of p.
func (d *Device) Neighbors(p int) []int {
	out := make([]int, 0, len(d.adj[p]))
	for q := range d.adj[p] {
		out = append(out, q)
	}
	sort.Ints(out)
	return out
}

// ShortestPath returns a BFS shortest path between physical qubits, both
// endpoints included. Returns nil if disconnected.
func (d *Device) ShortestPath(a, b int) []int {
	return newRouter(d).appendPath(nil, a, b)
}

// Connected reports whether the coupling graph is connected.
func (d *Device) Connected() bool {
	if d.N == 0 {
		return true
	}
	seen := make([]bool, d.N)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range d.Neighbors(cur) {
			if !seen[nb] {
				seen[nb] = true
				count++
				stack = append(stack, nb)
			}
		}
	}
	return count == d.N
}

// heavyHex builds an IBM-style heavy-hex lattice with the given number of
// rows of d-qubit chains, matching the qubit counts of the named devices.
func heavyHex(rows, rowLen, bridge, oddOff int) (int, [][2]int) {
	// Rows of `rowLen` qubits connected linearly; between consecutive rows,
	// bridge qubits connect every `bridge` columns, with odd row pairs
	// offset by oddOff — the simplified heavy-hex used here.
	var edges [][2]int
	id := 0
	rowStart := make([]int, rows)
	for r := 0; r < rows; r++ {
		rowStart[r] = id
		for c := 0; c+1 < rowLen; c++ {
			edges = append(edges, [2]int{id + c, id + c + 1})
		}
		id += rowLen
	}
	for r := 0; r+1 < rows; r++ {
		off := 0
		if r%2 == 1 {
			off = oddOff
		}
		for c := off; c < rowLen; c += bridge {
			b := id
			id++
			edges = append(edges, [2]int{rowStart[r] + c, b})
			edges = append(edges, [2]int{b, rowStart[r+1] + c})
		}
	}
	return id, edges
}

// Manhattan returns the 65-qubit IBM Manhattan heavy-hex coupling graph
// (simplified layout with the correct qubit count and max degree 3).
func Manhattan() *Device {
	n, edges := heavyHex(5, 11, 4, 3)
	return mustDevice("Manhattan", n, edges)
}

// Montreal returns the 27-qubit IBM Montreal coupling graph (simplified
// heavy-hex with the correct qubit count; a few junction qubits reach
// degree 4 in this abstraction).
func Montreal() *Device {
	n, edges := heavyHex(3, 7, 3, 0)
	return mustDevice("Montreal", n, edges)
}

// Sycamore returns the 54-qubit Google Sycamore coupling graph: a 6×9
// grid where each qubit couples to its diagonal neighbors in the woven
// Sycamore pattern (simplified to the standard degree-4 grid-diagonal
// abstraction).
func Sycamore() *Device {
	const rows, cols = 6, 9
	var edges [][2]int
	idx := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if r+1 < rows {
				edges = append(edges, [2]int{idx(r, c), idx(r+1, c)})
				if c+1 < cols && (r+c)%2 == 0 {
					edges = append(edges, [2]int{idx(r, c), idx(r+1, c+1)})
				}
			}
		}
	}
	return mustDevice("Sycamore", rows*cols, edges)
}
