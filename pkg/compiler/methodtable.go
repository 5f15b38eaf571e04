package compiler

import "fmt"

// MethodInfo is one row of the human-facing method table: the registry
// spec, the parameterized form when the method takes one, and a one-line
// description.
type MethodInfo struct {
	Spec        string // registry name, e.g. "beam"
	Param       string // parameterized spec grammar, e.g. "beam:<width>"; "" if none
	Description string
}

// methodDescriptions is the single source of the per-method prose. Both
// `hattc -list` and the README's method table render from MethodTable,
// and tests hold the set of rows equal to the live registry — so the
// docs cannot drift from what Resolve actually accepts.
var methodDescriptions = map[string]MethodInfo{
	"jw":         {Description: "Jordan–Wigner (constructive baseline)"},
	"bk":         {Description: "Bravyi–Kitaev (constructive baseline)"},
	"parity":     {Description: "parity encoding (constructive baseline)"},
	"btt":        {Description: "balanced ternary tree (constructive baseline)"},
	"hatt":       {Description: "optimized HATT construction (Algorithms 2+3, O(N³)); incremental argmin on one goroutine, Parallelism does not affect it"},
	"hatt-unopt": {Description: "plain bottom-up HATT construction (Algorithm 1, O(N⁴))"},
	"beam":       {Param: "beam:<width>", Description: "vacuum-preserving beam search over HATT space"},
	"fh":         {Param: "fh:<budget>", Description: "exhaustive branch-and-bound (Fermihedral substitute)"},
	"anneal":     {Description: "simulated annealing over tree space"},
	"portfolio":  {Param: "portfolio:<m1+m2+…>", Description: "races methods under a shared incumbent bound, anytime best-so-far"},
}

// MethodTable returns one row per registered method, in Methods() order
// (sorted by spec). A method registered without a description row gets a
// placeholder description rather than being dropped, so new methods are
// visible immediately — and the sync test fails until a real description
// is added.
func MethodTable() []MethodInfo {
	names := Methods()
	out := make([]MethodInfo, len(names))
	for i, name := range names {
		info, ok := methodDescriptions[name]
		if !ok {
			info = MethodInfo{Description: fmt.Sprintf("(undescribed method %q — add it to methodDescriptions)", name)}
		}
		info.Spec = name
		out[i] = info
	}
	return out
}
