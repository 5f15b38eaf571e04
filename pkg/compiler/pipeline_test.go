package compiler

import (
	"context"
	"math"
	"strings"
	"testing"
)

func TestPipelineH2WithTapering(t *testing.T) {
	rep, err := Pipeline{Model: "h2", Method: "hatt", Taper: true}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Modes != 4 || rep.MajoranaTerms == 0 {
		t.Fatalf("bad model stats: %+v", rep)
	}
	if rep.Weight <= 0 || rep.CNOTs <= 0 || rep.Depth <= 0 {
		t.Fatalf("bad circuit metrics: weight=%d cnot=%d depth=%d", rep.Weight, rep.CNOTs, rep.Depth)
	}
	if !rep.VacuumPreserved {
		t.Error("HATT mapping should preserve the vacuum state")
	}
	if rep.Tapered == nil {
		t.Fatal("no tapering report")
	}
	if rep.Tapered.Qubits >= 4 {
		t.Errorf("tapering removed no qubits: %d", rep.Tapered.Qubits)
	}
	if math.Abs(rep.Tapered.GroundEnergy-(-1.1373)) > 1e-3 {
		t.Errorf("tapered ground energy %.6f, want ≈ -1.1373", rep.Tapered.GroundEnergy)
	}
}

func TestPipelineDefaultsToHATT(t *testing.T) {
	rep, err := Pipeline{Model: "hubbard:2x2"}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Method != "hatt" {
		t.Fatalf("default method = %q, want hatt", rep.Result.Method)
	}
	if rep.Modes != 8 {
		t.Fatalf("hubbard:2x2 modes = %d, want 8", rep.Modes)
	}
}

func TestPipelineVacuumAbove64Modes(t *testing.T) {
	// hubbard:6x6 and hubbard:8x8 need 72 and 128 qubits: the vacuum
	// check must compare flip sets across mask words, not panic.
	for _, model := range []string{"hubbard:6x6", "hubbard:8x8"} {
		for _, method := range []string{"jw", "hatt"} {
			rep, err := Pipeline{Model: model, Method: method}.Run(context.Background())
			if err != nil {
				t.Fatalf("%s/%s: %v", model, method, err)
			}
			if !rep.VacuumPreserved {
				t.Errorf("%s/%s: VacuumPreserved = false", model, method)
			}
		}
	}
}

func TestPipelineErrors(t *testing.T) {
	ctx := context.Background()
	if _, err := (Pipeline{Method: "hatt"}).Run(ctx); err == nil {
		t.Error("no model: expected error")
	}
	if _, err := (Pipeline{Model: "nosuch", Method: "hatt"}).Run(ctx); err == nil {
		t.Error("unknown model: expected error")
	}
	if _, err := (Pipeline{Model: "h2", Method: "nosuch"}).Run(ctx); err == nil {
		t.Error("unknown method: expected error")
	}
	_, err := (Pipeline{Model: "hubbard:3x3", Method: "hatt", Taper: true}).Run(ctx)
	if err == nil || !strings.Contains(err.Error(), "tapering limited") {
		t.Errorf("oversized tapering: got %v, want qubit-guard error", err)
	}
}

func TestOptionDefaults(t *testing.T) {
	o := NewOptions()
	if o.BeamWidth != 4 || o.VisitBudget != 2_000_000 || o.TrotterSteps != 1 || o.TrotterTime != 1.0 {
		t.Fatalf("bad defaults: %+v", o)
	}
	o = NewOptions(WithBeamWidth(9), WithVisitBudget(5), WithTrotterSteps(3), WithSeed(42))
	if o.BeamWidth != 9 || o.VisitBudget != 5 || o.TrotterSteps != 3 || o.Seed != 42 {
		t.Fatalf("options not applied: %+v", o)
	}
}

func TestParseTermOrder(t *testing.T) {
	for _, spec := range []string{"natural", "lex", "lexicographic", "greedy", "overlap"} {
		if _, err := ParseTermOrder(spec); err != nil {
			t.Errorf("ParseTermOrder(%q): %v", spec, err)
		}
	}
	if _, err := ParseTermOrder("zigzag"); err == nil {
		t.Error("ParseTermOrder(zigzag): expected error")
	}
}

// TestPipelineTrotterGateCap: a step count whose synthesized circuit
// would exceed MaxTrotterGates is an error on the unrouted and the
// routed path alike — counted before any gate is allocated, so even a
// count whose allocation would overflow cannot panic.
func TestPipelineTrotterGateCap(t *testing.T) {
	ctx := context.Background()
	// h2 takes at most 114 gates a step: the first count above the cap,
	// and one whose gate slice would not fit any allocation.
	for _, steps := range []int{MaxTrotterGates/114 + 1, 10_000_000_000_000} {
		for _, opts := range [][]Option{nil, {WithDevice("montreal")}} {
			p := Pipeline{Model: "h2", Method: "hatt", Options: append(opts, WithTrotterSteps(steps))}
			_, err := p.Run(ctx)
			if err == nil || !strings.Contains(err.Error(), "MaxTrotterGates") {
				t.Errorf("%d steps, routed=%v: err = %v, want the gate-cap error", steps, opts != nil, err)
			}
		}
	}
	// A step count under the cap synthesizes every step.
	one, err := Pipeline{Model: "h2", Method: "hatt", Options: []Option{WithDevice("montreal")}}.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	three, err := Pipeline{Model: "h2", Method: "hatt", Options: []Option{WithDevice("montreal"), WithTrotterSteps(3)}}.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if three.CNOTs <= one.CNOTs || three.Routed.CNOTs <= one.Routed.CNOTs {
		t.Errorf("3 steps: %d logical / %d routed CNOTs, 1 step: %d / %d", three.CNOTs, three.Routed.CNOTs, one.CNOTs, one.Routed.CNOTs)
	}
}
