package main

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/models"
	"repro/pkg/compiler"
)

// compileModel compiles a model spec and returns the mapping text, the
// independently expanded index sets and the predicted weight.
func compileModel(t *testing.T, spec, method string, opts ...compiler.Option) ([]string, []monoKey, int, int) {
	t.Helper()
	h, err := models.Resolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	sets, err := majoranaSets(h, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	res, err := compiler.Compile(context.Background(), method, h.Majorana(1e-12), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return mappingText(res.Mapping.Majoranas), sets, h.Modes, res.PredictedWeight
}

func TestCheckerAcceptsCompiledMappings(t *testing.T) {
	for _, spec := range []string{"h2", "hubbard:2x2", "neutrino:2x2", "molecule:8"} {
		for _, method := range []string{"jw", "bk", "hatt"} {
			strs, sets, modes, w := compileModel(t, spec, method)
			if err := checkCompiled(strs, sets, modes, w); err != nil {
				t.Errorf("%s %s: %v", spec, method, err)
			}
		}
	}
}

func TestPaperWeight(t *testing.T) {
	if err := paperCheck(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestCheckerRejectsFlippedLetter(t *testing.T) {
	strs, sets, modes, w := compileModel(t, "hubbard:2x2", "hatt")
	for i := range strs {
		for pos := strings.IndexAny(strs[i], "IXYZ"); pos < len(strs[i]); pos++ {
			for _, l := range "IXYZ" {
				if byte(l) == strs[i][pos] {
					continue
				}
				bad := slices.Clone(strs)
				bad[i] = bad[i][:pos] + string(l) + bad[i][pos+1:]
				if checkCompiled(bad, sets, modes, w) == nil {
					t.Fatalf("accepted M%d with letter %d flipped: %s → %s", i, pos, strs[i], bad[i])
				}
			}
		}
	}
}

func TestCheckerRejectsWrongWeight(t *testing.T) {
	strs, sets, modes, w := compileModel(t, "hubbard:2x3", "hatt")
	for _, wrong := range []int{w - 1, w + 1, 0} {
		if checkCompiled(strs, sets, modes, wrong) == nil {
			t.Errorf("accepted predicted weight %d (true %d)", wrong, w)
		}
	}
}

// anneal searches without the vacuum constraint, so its mappings keep
// the Majorana algebra but break the vacuum.
func TestCheckerRejectsVacuumBreakingMapping(t *testing.T) {
	strs, _, modes, _ := compileModel(t, "hubbard:2x2", "anneal", compiler.WithSeed(1))
	if _, err := checkMapping(strs, modes, false); err != nil {
		t.Fatalf("anneal mapping fails the algebra checks: %v", err)
	}
	_, err := checkMapping(strs, modes, true)
	if err == nil || !strings.Contains(err.Error(), "vacuum") {
		t.Fatalf("vacuum-breaking anneal mapping accepted (err %v)", err)
	}
}

func TestMajoranaSetsMatchProgram(t *testing.T) {
	for _, spec := range []string{"h2", "hubbard:2x3", "neutrino:2x2", "molecule:10"} {
		h, err := models.Resolve(spec)
		if err != nil {
			t.Fatal(err)
		}
		sets, err := majoranaSets(h, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		var got, want []string
		for _, k := range sets {
			idx := make([]int, k.n)
			for i := range idx {
				idx[i] = int(k.idx[i])
			}
			got = append(got, fmt.Sprint(idx))
		}
		for _, s := range h.Majorana(1e-12).IndexSets() {
			want = append(want, fmt.Sprint(s))
		}
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("%s: %d index sets, program has %d", spec, len(got), len(want))
		}
	}
}

func TestMontrealEdges(t *testing.T) {
	d := arch.Montreal()
	if got := len(montrealEdges) / 2; got != len(d.Edges()) {
		t.Fatalf("%d reference edges, program's montreal has %d", got, len(d.Edges()))
	}
	for _, e := range d.Edges() {
		if !montrealEdges[e] {
			t.Errorf("program edge %v missing from the reference", e)
		}
	}
	if _, err := checkCoupling([][2]int{{0, 1}, {21, 7}}, montrealEdges); err != nil {
		t.Fatal(err)
	}
	if _, err := checkCoupling([][2]int{{0, 1}, {0, 2}}, montrealEdges); err == nil {
		t.Fatal("accepted a gate on q0,q2, which are not coupled")
	}
}
