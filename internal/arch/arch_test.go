package arch

import (
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/pauli"
)

// testDevice builds a device, failing the test on construction errors —
// the test-side counterpart of the error-returning public boundary.
func testDevice(t *testing.T, name string, n int, edges [][2]int) *Device {
	t.Helper()
	d, err := NewDevice(name, n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDevicesWellFormed(t *testing.T) {
	cases := []struct {
		d    *Device
		want int
	}{
		{Manhattan(), 65},
		{Sycamore(), 54},
		{Montreal(), 27},
	}
	for _, c := range cases {
		if c.d.N != c.want {
			t.Errorf("%s has %d qubits, want %d", c.d.Name, c.d.N, c.want)
		}
		if !c.d.Connected() {
			t.Errorf("%s coupling graph disconnected", c.d.Name)
		}
		for _, e := range c.d.Edges() {
			if !c.d.Coupled(e[0], e[1]) || !c.d.Coupled(e[1], e[0]) {
				t.Errorf("%s edge %v not symmetric", c.d.Name, e)
			}
		}
	}
}

func TestHeavyHexDegreeProfile(t *testing.T) {
	// Manhattan's heavy-hex abstraction keeps max degree 3; the simplified
	// Montreal reaches degree 4 at a few junctions.
	for p := 0; p < Manhattan().N; p++ {
		if Manhattan().Degree(p) > 3 {
			t.Errorf("Manhattan qubit %d degree %d > 3", p, Manhattan().Degree(p))
		}
	}
	for p := 0; p < Montreal().N; p++ {
		if Montreal().Degree(p) > 4 {
			t.Errorf("Montreal qubit %d degree %d > 4", p, Montreal().Degree(p))
		}
	}
	// Sycamore grid-diagonal abstraction: max degree ≤ 4.
	s := Sycamore()
	for p := 0; p < s.N; p++ {
		if s.Degree(p) > 4 {
			t.Errorf("Sycamore qubit %d degree %d > 4", p, s.Degree(p))
		}
	}
}

func TestShortestPath(t *testing.T) {
	d := testDevice(t, "line", 4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	p := d.ShortestPath(0, 3)
	if len(p) != 4 || p[0] != 0 || p[3] != 3 {
		t.Errorf("path = %v", p)
	}
	if q := d.ShortestPath(2, 2); len(q) != 1 {
		t.Errorf("self path = %v", q)
	}
	d2 := testDevice(t, "split", 4, [][2]int{{0, 1}, {2, 3}})
	if d2.ShortestPath(0, 3) != nil {
		t.Error("disconnected path should be nil")
	}
	if d2.Connected() {
		t.Error("split device reported connected")
	}
}

func TestRouteRespectsCoupling(t *testing.T) {
	d := testDevice(t, "line", 5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	c := circuit.New(4)
	c.Append(circuit.H(0), circuit.CNOT(0, 3), circuit.CNOT(1, 2), circuit.CNOT(0, 3))
	res, err := Route(c, d)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range res.Circuit.Gates {
		if g.Kind == circuit.KindCNOT && !d.Coupled(g.Q, g.Q2) {
			t.Fatalf("routed CNOT %d→%d violates coupling", g.Q2, g.Q)
		}
	}
}

func TestRouteAdjacentNeedsNoSwaps(t *testing.T) {
	d := testDevice(t, "line", 3, [][2]int{{0, 1}, {1, 2}})
	c := circuit.New(2)
	c.Append(circuit.CNOT(0, 1), circuit.CNOT(0, 1), circuit.CNOT(0, 1))
	res, err := Route(c, d)
	if err != nil {
		t.Fatal(err)
	}
	if res.SwapsAdded != 0 {
		t.Errorf("swaps = %d, want 0", res.SwapsAdded)
	}
	// Routed + optimized: odd CX count collapses to one.
	if res.Circuit.CNOTCount() != 1 {
		t.Errorf("CNOTs = %d, want 1", res.Circuit.CNOTCount())
	}
}

func TestRouteTooLarge(t *testing.T) {
	d := testDevice(t, "tiny", 2, [][2]int{{0, 1}})
	c := circuit.New(3)
	if _, err := Route(c, d); err == nil {
		t.Error("oversized circuit accepted")
	}
}

// splitDeviceJSON is a custom device ParseDeviceJSON accepts whose
// coupling graph has two components: a 4-qubit star and an 8-qubit line.
const splitDeviceJSON = `{"name":"split","qubits":12,"edges":[[0,1],[0,2],[0,3],[4,5],[5,6],[6,7],[7,8],[8,9],[9,10],[10,11]]}`

func TestRouteDisconnectedPlacementErrors(t *testing.T) {
	d, err := ParseDeviceJSON([]byte(splitDeviceJSON))
	if err != nil {
		t.Fatal(err)
	}
	// Eight interacting qubits seeded on the star (the highest degree)
	// overflow its component of four.
	c := circuit.New(8)
	for q := 0; q+1 < 8; q++ {
		c.Append(circuit.CNOT(q, q+1))
	}
	_, err = Route(c, d)
	if err == nil || !strings.Contains(err.Error(), "no free physical qubit") {
		t.Fatalf("Route on a disconnected device: err = %v, want a placement error", err)
	}
}

func TestRouteRealWorkload(t *testing.T) {
	// Route a small Trotter circuit onto Montreal and check metrics are
	// sane: routing can only add CNOTs, never remove logical ones.
	h := pauli.NewHamiltonian(6)
	h.Add(0.5, pauli.MustParse("XXIIII"))
	h.Add(0.4, pauli.MustParse("IIZZII"))
	h.Add(0.3, pauli.MustParse("ZIIIIZ"))
	h.Add(0.2, pauli.MustParse("IYYIII"))
	logical := circuit.Compile(h, circuit.OrderLexicographic)
	res, err := Route(logical, Montreal())
	if err != nil {
		t.Fatal(err)
	}
	if res.Circuit.CNOTCount() < logical.CNOTCount() {
		t.Errorf("routing lost CNOTs: %d < %d", res.Circuit.CNOTCount(), logical.CNOTCount())
	}
	for _, g := range res.Circuit.Gates {
		if g.Kind == circuit.KindCNOT && !Montreal().Coupled(g.Q, g.Q2) {
			t.Fatal("coupling violation on Montreal")
		}
	}
}

func TestInitialLayoutCoLocatesPartners(t *testing.T) {
	d := Montreal()
	c := circuit.New(4)
	for i := 0; i < 10; i++ {
		c.Append(circuit.CNOT(0, 1))
	}
	c.Append(circuit.CNOT(2, 3))
	layout, err := newRouter(d).initialLayout(c)
	if err != nil {
		t.Fatal(err)
	}
	// The hot pair (0,1) should be physically adjacent.
	if !d.Coupled(layout[0], layout[1]) {
		t.Errorf("hot pair placed apart: %d, %d", layout[0], layout[1])
	}
	seen := map[int]bool{}
	for _, p := range layout {
		if seen[p] {
			t.Fatal("layout reuses a physical qubit")
		}
		seen[p] = true
	}
}

func TestNearestFree(t *testing.T) {
	d := testDevice(t, "line", 4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	used := []bool{true, true, false, false}
	r := newRouter(d)
	if p := r.nearestFree(0, used); p != 2 {
		t.Errorf("nearestFree = %d, want 2", p)
	}
	if p := r.nearestFree(2, used); p != 2 {
		t.Errorf("nearestFree from free = %d, want 2", p)
	}
	if p := r.nearestFree(0, []bool{true, true, true, true}); p != -1 {
		t.Errorf("nearestFree on a full device = %d, want -1", p)
	}
}
