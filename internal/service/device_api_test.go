package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
)

// TestCompileWithDeviceOverHTTP is the route-smoke path in miniature:
// a device-targeted compile returns nonzero routed metrics (SWAPs,
// CNOTs, depth) whose QASM respects the coupling graph, and a repeat is
// served cached with a byte-identical routed block.
func TestCompileWithDeviceOverHTTP(t *testing.T) {
	srv, st, _ := testServer(t, "")
	req := `{"model":"hubbard:2x2","method":"hatt","device":"montreal","include_strings":true}`

	r1, b1 := postJSON(t, srv.URL+"/v1/compile", req)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("compile: %d %v", r1.StatusCode, b1)
	}
	routed, ok := b1["routed"].(map[string]any)
	if !ok {
		t.Fatalf("no routed block in %v", b1)
	}
	if routed["device"] != "Montreal" || routed["physical_qubits"] != float64(27) {
		t.Errorf("routed = %v", routed)
	}
	for _, k := range []string{"swaps_added", "cnots", "depth"} {
		if n, _ := routed[k].(float64); n <= 0 {
			t.Errorf("routed %s = %v, want > 0", k, routed[k])
		}
	}
	qasm, _ := routed["qasm"].(string)
	if qasm == "" {
		t.Fatal("routed QASM missing under include_strings")
	}
	cc, err := circuit.ReadQASM(strings.NewReader(qasm))
	if err != nil {
		t.Fatal(err)
	}
	d, _ := arch.Lookup("montreal")
	if err := arch.CheckCoupling(cc, d); err != nil {
		t.Errorf("routed circuit violates coupling: %v", err)
	}

	r2, b2 := postJSON(t, srv.URL+"/v1/compile", req)
	if r2.StatusCode != http.StatusOK || b2["cached"] != true {
		t.Fatalf("repeat compile: %d cached=%v", r2.StatusCode, b2["cached"])
	}
	routed2 := b2["routed"].(map[string]any)
	if routed2["qasm"] != qasm {
		t.Error("cached routed circuit not byte-identical")
	}
	j1, _ := json.Marshal(routed)
	j2, _ := json.Marshal(routed2)
	if !bytes.Equal(j1, j2) {
		t.Errorf("cached routed block differs:\n%s\nvs\n%s", j1, j2)
	}
	if got := st.Stats(); got.Hits != 1 || got.Misses != 1 {
		t.Errorf("store stats = %+v", got)
	}

	// Without include_strings the metrics come back but not the circuit.
	r3, b3 := postJSON(t, srv.URL+"/v1/compile",
		`{"model":"h2","method":"hatt","device":"montreal"}`)
	if r3.StatusCode != http.StatusOK {
		t.Fatalf("bare compile: %d %v", r3.StatusCode, b3)
	}
	bare := b3["routed"].(map[string]any)
	if _, has := bare["qasm"]; has {
		t.Error("QASM leaked without include_strings")
	}
}

func TestCompileWithCustomDeviceOverHTTP(t *testing.T) {
	srv, _, _ := testServer(t, "")
	req := `{"model":"h2","method":"jw","include_strings":true,
	         "custom_device":{"name":"ring6","qubits":6,"edges":[[0,1],[1,2],[2,3],[3,4],[4,5],[5,0]]}}`
	r, b := postJSON(t, srv.URL+"/v1/compile", req)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("compile: %d %v", r.StatusCode, b)
	}
	routed := b["routed"].(map[string]any)
	if routed["device"] != "ring6" || routed["physical_qubits"] != float64(6) {
		t.Errorf("routed = %v", routed)
	}
}

// TestCompileOnDisconnectedCustomDevice: a custom device whose coupling
// graph cannot host the problem's qubits in one component is a
// structured client error from placement, not the panic safety net's 500.
func TestCompileOnDisconnectedCustomDevice(t *testing.T) {
	srv, _, _ := testServer(t, "")
	req := `{"model":"hubbard:2x2","method":"jw",
	         "custom_device":{"name":"split","qubits":12,"edges":[[0,1],[0,2],[0,3],[4,5],[5,6],[6,7],[7,8],[8,9],[9,10],[10,11]]}}`
	r, b := postJSON(t, srv.URL+"/v1/compile", req)
	msg, _ := b["error"].(string)
	if r.StatusCode != http.StatusBadRequest || !strings.Contains(msg, "no free physical qubit") || strings.Contains(msg, "panic") {
		t.Fatalf("compile on a split device: %d %q, want 400 with the placement error", r.StatusCode, msg)
	}
}

func TestDeviceRequestValidation(t *testing.T) {
	srv, _, _ := testServer(t, "")
	cases := []struct {
		body string
		code int
	}{
		// Unknown catalog device.
		{`{"model":"h2","device":"ibmq-rome"}`, http.StatusBadRequest},
		// Malformed custom-device JSON: structured 4xx, never a 500.
		{`{"model":"h2","custom_device":"ring"}`, http.StatusBadRequest},
		{`{"model":"h2","custom_device":{"name":"x","qubits":2,"edges":[[0,5]]}}`, http.StatusBadRequest},
		{`{"model":"h2","custom_device":{"name":"x","qubits":-1,"edges":[]}}`, http.StatusBadRequest},
		{`{"model":"h2","custom_device":{"qubits":2,"edges":[[0,1]]}}`, http.StatusBadRequest},
		// Both targeting forms at once.
		{`{"model":"h2","device":"montreal","custom_device":{"name":"x","qubits":2,"edges":[[0,1]]}}`, http.StatusBadRequest},
		// Device too small for the problem: compile-time 4xx.
		{`{"model":"hubbard:2x2","device":"linear:4"}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		r, b := postJSON(t, srv.URL+"/v1/compile", c.body)
		if r.StatusCode != c.code {
			t.Errorf("%s → %d (%v), want %d", c.body, r.StatusCode, b["error"], c.code)
		}
		if _, ok := b["error"].(string); !ok {
			t.Errorf("%s → unstructured error payload %v", c.body, b)
		}
	}
}

func TestAsyncJobCarriesRoutedMetrics(t *testing.T) {
	srv, _, mgr := testServer(t, "")
	r, b := postJSON(t, srv.URL+"/v1/jobs",
		`{"model":"h2","method":"hatt","device":"grid:2x3"}`)
	if r.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %v", r.StatusCode, b)
	}
	id := b["id"].(string)
	if _, err := mgr.Wait(t.Context(), id); err != nil {
		t.Fatal(err)
	}
	rs, body := getJSON(t, srv.URL+"/v1/jobs/"+id)
	if rs.StatusCode != http.StatusOK || body["state"] != "done" {
		t.Fatalf("job status: %d %v", rs.StatusCode, body)
	}
	result := body["result"].(map[string]any)
	routed, ok := result["routed"].(map[string]any)
	if !ok {
		t.Fatalf("job result missing routed block: %v", result)
	}
	if routed["device"] != "grid:2x3" {
		t.Errorf("routed = %v", routed)
	}
	if _, has := routed["qasm"]; has {
		t.Error("routed QASM embedded without include_strings")
	}

	// With include_strings the poll carries the routed circuit too.
	r2, b2 := postJSON(t, srv.URL+"/v1/jobs",
		`{"model":"h2","method":"jw","device":"grid:2x3","include_strings":true}`)
	if r2.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %v", r2.StatusCode, b2)
	}
	id2 := b2["id"].(string)
	if _, err := mgr.Wait(t.Context(), id2); err != nil {
		t.Fatal(err)
	}
	_, body2 := getJSON(t, srv.URL+"/v1/jobs/"+id2)
	routed2 := body2["result"].(map[string]any)["routed"].(map[string]any)
	if qasm, _ := routed2["qasm"].(string); qasm == "" {
		t.Error("routed QASM missing despite include_strings")
	}
}

func TestDevicesEndpoint(t *testing.T) {
	srv, _, _ := testServer(t, "")
	r, b := getJSON(t, srv.URL+"/v1/devices")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("devices: %d", r.StatusCode)
	}
	devices, ok := b["devices"].([]any)
	if !ok || len(devices) < 5 {
		t.Fatalf("devices payload = %v", b)
	}
	seen := map[string]bool{}
	for _, d := range devices {
		entry := d.(map[string]any)
		seen[entry["spec"].(string)] = true
	}
	for _, want := range []string{"manhattan", "sycamore", "montreal"} {
		if !seen[want] {
			t.Errorf("catalog listing missing %s (got %v)", want, seen)
		}
	}
}
