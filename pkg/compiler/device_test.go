package compiler

import (
	"context"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/fermion"
	"repro/internal/models"
	"repro/internal/store"
)

func deviceTestMH(t *testing.T, spec string) *fermion.MajoranaHamiltonian {
	t.Helper()
	h, err := models.Resolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	return h.Majorana(1e-12)
}

func TestCompileWithDevice(t *testing.T) {
	mh := deviceTestMH(t, "hubbard:2x2")
	res, err := Compile(context.Background(), "hatt", mh, WithDevice("montreal"))
	if err != nil {
		t.Fatal(err)
	}
	r := res.Routed
	if r == nil {
		t.Fatal("no routed metrics")
	}
	if r.Device != "Montreal" || r.PhysQubits != 27 {
		t.Errorf("routed onto %q (%d qubits)", r.Device, r.PhysQubits)
	}
	if r.CNOTs <= 0 || r.Depth <= 0 || r.Circuit == nil {
		t.Errorf("routed metrics empty: %+v", r)
	}
	if len(r.FinalLayout) != res.Mapping.Qubits() {
		t.Errorf("layout covers %d logical qubits, want %d", len(r.FinalLayout), res.Mapping.Qubits())
	}
	d, _ := arch.Lookup("montreal")
	if err := arch.CheckCoupling(r.Circuit, d); err != nil {
		t.Errorf("routed circuit violates coupling: %v", err)
	}
}

func TestCompileWithoutDeviceHasNoRouted(t *testing.T) {
	res, err := Compile(context.Background(), "hatt", deviceTestMH(t, "h2"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Routed != nil {
		t.Error("unrouted compile carries routed metrics")
	}
}

func TestCompileRejectsUnknownDevice(t *testing.T) {
	_, err := Compile(context.Background(), "hatt", deviceTestMH(t, "h2"), WithDevice("ibmq-nope"))
	if err == nil || !strings.Contains(err.Error(), "unknown device") {
		t.Fatalf("err = %v, want unknown-device error", err)
	}
}

func TestCompileRejectsTooSmallDevice(t *testing.T) {
	_, err := Compile(context.Background(), "hatt", deviceTestMH(t, "hubbard:2x2"), WithDevice("linear:4"))
	if err == nil {
		t.Fatal("8-qubit problem routed onto 4-qubit device")
	}
}

func TestCompileWithDeviceSpec(t *testing.T) {
	d, err := arch.ParseDeviceJSON([]byte(`{"name":"ring6","qubits":6,"edges":[[0,1],[1,2],[2,3],[3,4],[4,5],[5,0]]}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compile(context.Background(), "jw", deviceTestMH(t, "h2"), WithDeviceSpec(d))
	if err != nil {
		t.Fatal(err)
	}
	if res.Routed == nil || res.Routed.Device != "ring6" {
		t.Fatalf("routed = %+v", res.Routed)
	}
	if err := arch.CheckCoupling(res.Routed.Circuit, d); err != nil {
		t.Error(err)
	}
}

// TestPipelineDisconnectedDeviceErrors routes onto a custom device that
// ParseDeviceJSON accepts but whose coupling graph is split: placement
// fails with an error, never a panic.
func TestPipelineDisconnectedDeviceErrors(t *testing.T) {
	d, err := arch.ParseDeviceJSON([]byte(`{"name":"split","qubits":12,"edges":[[0,1],[0,2],[0,3],[4,5],[5,6],[6,7],[7,8],[8,9],[9,10],[10,11]]}`))
	if err != nil {
		t.Fatal(err)
	}
	_, err = Pipeline{Model: "hubbard:2x2", Method: "jw", Options: []Option{WithDeviceSpec(d)}}.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "no free physical qubit") || strings.Contains(err.Error(), "panic") {
		t.Fatalf("Pipeline.Run on a disconnected device: err = %v, want a placement error", err)
	}
}

func TestDigestFoldsDevice(t *testing.T) {
	plain := NewOptions()
	routed := NewOptions(WithDevice("Montreal"))
	if plain.Digest() == routed.Digest() {
		t.Error("device not folded into digest")
	}
	if strings.Contains(plain.Digest(), "dev=") {
		t.Error("unrouted digest mentions a device")
	}
	// Equivalent spellings share the digest (and therefore cache entries).
	other := NewOptions(WithDevice(" montreal "))
	if routed.Digest() != other.Digest() {
		t.Errorf("digest not canonical: %q vs %q", routed.Digest(), other.Digest())
	}
	// Parametric specs canonicalize through the resolved device name.
	if a, b := NewOptions(WithDevice("linear:08")).Digest(), NewOptions(WithDevice("LINEAR:8")).Digest(); a != b {
		t.Errorf("parametric spellings diverge: %q vs %q", a, b)
	}
	// Custom devices digest by content fingerprint.
	d1, _ := arch.Lookup("linear:5")
	d2, _ := arch.Lookup("linear:6")
	c1 := NewOptions(WithDeviceSpec(d1))
	c2 := NewOptions(WithDeviceSpec(d2))
	if c1.Digest() == c2.Digest() {
		t.Error("different custom devices share a digest")
	}
	if !strings.Contains(c1.Digest(), "dev=custom:") {
		t.Errorf("custom device digest = %q", c1.Digest())
	}
}

// TestStoreServesRoutedByteIdentical is the acceptance property: a
// repeated routed compile is served from the store and re-derives a
// byte-identical routed circuit from the cached mapping.
func TestStoreServesRoutedByteIdentical(t *testing.T) {
	st, err := store.Open(16, "")
	if err != nil {
		t.Fatal(err)
	}
	mh := deviceTestMH(t, "hubbard:2x2")
	opts := []Option{WithStore(st), WithDevice("montreal")}
	first, err := Compile(context.Background(), "hatt", mh, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached || first.Routed == nil {
		t.Fatalf("first compile: cached=%v routed=%v", first.Cached, first.Routed != nil)
	}
	second, err := Compile(context.Background(), "hatt", mh, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached || second.Routed == nil {
		t.Fatalf("second compile: cached=%v routed=%v", second.Cached, second.Routed != nil)
	}
	if a, b := first.Routed.Circuit.QASM(), second.Routed.Circuit.QASM(); a != b {
		t.Error("cached routed circuit not byte-identical")
	}
	if first.Routed.SwapsAdded != second.Routed.SwapsAdded ||
		first.Routed.Depth != second.Routed.Depth {
		t.Errorf("cached routed metrics differ: %+v vs %+v", first.Routed, second.Routed)
	}

	// Routed and unrouted compilations are distinct content addresses:
	// an unrouted request after two routed ones is a store miss.
	plain, err := Compile(context.Background(), "hatt", mh, WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Cached {
		t.Error("unrouted compile hit the routed entry")
	}
	s := st.Stats()
	if s.Hits != 1 || s.Misses != 2 || s.Puts != 2 {
		t.Errorf("store stats = %+v, want 1 hit / 2 misses / 2 puts", s)
	}
}

func TestPipelineReportsRouted(t *testing.T) {
	rep, err := Pipeline{
		Model:   "h2",
		Method:  "hatt",
		Options: []Option{WithDevice("grid:2x3")},
	}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Routed == nil || rep.Routed.Device != "grid:2x3" {
		t.Fatalf("report routed = %+v", rep.Routed)
	}
	if rep.Routed != rep.Result.Routed {
		t.Error("report and result disagree on routed metrics")
	}
	// The routed circuit is the logical one pushed through routing: it
	// can only gain CNOTs.
	if rep.Routed.CNOTs < rep.CNOTs-rep.Routed.SwapsAdded*3 {
		t.Errorf("routed CNOTs %d implausible vs logical %d", rep.Routed.CNOTs, rep.CNOTs)
	}
}

func TestCompileBatchRoutes(t *testing.T) {
	items := []BatchItem{
		{Model: "h2", Spec: "jw"},
		{Model: "h2", Spec: "hatt"},
		{Model: "hubbard:2x2", Spec: "hatt"},
	}
	for _, br := range CompileBatch(context.Background(), items, WithDevice("montreal")) {
		if br.Err != nil {
			t.Fatalf("item %d: %v", br.Index, br.Err)
		}
		if br.Result.Routed == nil || br.Result.Routed.Device != "Montreal" {
			t.Errorf("item %d missing routed metrics", br.Index)
		}
	}
}
