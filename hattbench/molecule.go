package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/pkg/compiler"
)

// molecule-routed: one caller; each op is
// Pipeline{Hamiltonian: h, Method: "hatt", Options: WithDevice("montreal")}.Run
// on seeded synthetic molecules of 8–14 modes that never repeat.

// moleculePrefixModes are the sizes of the fixed quality prefix.
var moleculePrefixModes = []int{8, 10, 12}

// routedReport is a checked Pipeline run with the circuit counts the
// quality pass sums.
type routedReport struct {
	outcome
	cnots, depth, routedCNOTs int
}

func moleculeOp(ctx context.Context, in input) (routedReport, error) {
	t0, c0 := time.Now(), cpuMS()
	rep, err := compiler.Pipeline{
		Hamiltonian: in.h,
		Method:      "hatt",
		Options:     []compiler.Option{compiler.WithDevice("montreal")},
	}.Run(ctx)
	d, cpu := ms(time.Since(t0)), cpuMS()-c0
	if err != nil {
		return routedReport{}, err
	}
	strs := mappingText(rep.Result.Mapping.Majoranas)
	if err := checkCompiled(strs, in.sets, in.h.Modes, rep.Result.PredictedWeight); err != nil {
		return routedReport{}, err
	}
	if rep.Weight != rep.Result.PredictedWeight {
		return routedReport{}, fmt.Errorf("report weight %d, predicted %d", rep.Weight, rep.Result.PredictedWeight)
	}
	if rep.Routed == nil || rep.Routed.Circuit == nil {
		return routedReport{}, fmt.Errorf("no routed circuit")
	}
	var pairs [][2]int
	for _, g := range rep.Routed.Circuit.Gates {
		if g.Kind == circuit.KindCNOT {
			pairs = append(pairs, [2]int{g.Q2, g.Q})
		}
	}
	n, err := checkCoupling(pairs, montrealEdges)
	if err != nil {
		return routedReport{}, err
	}
	if n != rep.Routed.CNOTs {
		return routedReport{}, fmt.Errorf("routed circuit has %d CNOTs, report says %d", n, rep.Routed.CNOTs)
	}
	return routedReport{outcome{d, cpu, strs, rep.Weight}, rep.CNOTs, rep.Depth, rep.Routed.CNOTs}, nil
}

// moleculeReplay calls, one at a time, the layer functions Pipeline.Run
// chains for a routed hatt compile, each inside a span under a "replay"
// root, and returns the wall time of the whole chain, span bookkeeping
// included. With a nil rec it times the same chain without spans.
func moleculeReplay(ctx context.Context, rec *recorder, op int, in input, dev *arch.Device) (float64, error) {
	t0 := time.Now()
	root := rec.begin("replay", -1, op)
	err := replayChain(ctx, rec, root, op, in, dev)
	rec.end(root, 0)
	return ms(time.Since(t0)), err
}

func replayChain(ctx context.Context, rec *recorder, root, op int, in input, dev *arch.Device) error {
	s := rec.begin("fermion.majorana", root, op)
	mh := in.h.Majorana(1e-12)
	rec.end(s, len(mh.Terms))
	s = rec.begin("core.search", root, op)
	res, err := compiler.Compile(ctx, "hatt", mh)
	rec.end(s, 0)
	if err != nil {
		return err
	}
	s = rec.begin("mapping.apply", root, op)
	hq := res.Mapping.Apply(mh)
	rec.end(s, hq.NonIdentityTerms())
	s = rec.begin("mapping.verify", root, op)
	err = res.Mapping.VerifyIndependent()
	vac := res.Mapping.VacuumPreserved()
	rec.end(s, 0)
	if err != nil || !vac {
		return fmt.Errorf("replayed mapping: verify %v, vacuum %v", err, vac)
	}
	s = rec.begin("circuit.synth", root, op)
	logical := circuit.SynthesizeTrotter(hq, 1.0, 1, circuit.OrderLexicographic)
	rec.end(s, len(logical.Gates))
	s = rec.begin("circuit.optimize", root, op)
	logical = circuit.Optimize(logical)
	rec.end(s, len(logical.Gates))
	s = rec.begin("arch.route", root, op)
	rr, err := arch.Route(logical, dev)
	if err != nil {
		rec.end(s, 0)
		return err
	}
	rec.end(s, rr.SwapsAdded)
	return nil
}

// moleculeLoop runs ops on fresh inputs from gen until d has passed and
// returns the ops that passed their checks. Traced, each op is followed
// by two replays of its chain of layer calls, one without spans and one
// with them, and the loop also returns, per op, the traced replay's time
// minus the plain one's: what the spans cost. Which replay goes first
// alternates from op to op, so the garbage the one before leaves does not
// weigh on one side only.
func moleculeLoop(r *run, gen *generator, d time.Duration, traced bool) (ts []timed, overhead []float64) {
	dev := arch.Montreal()
	start := time.Now()
	for deadline := start.Add(d); time.Now().Before(deadline); {
		r.attempted++
		in, err := gen.take()
		if err != nil {
			r.fail("generate molecule", err)
			continue
		}
		op := gen.next - 1
		var t0 float64
		if traced {
			core.ResetBuildCache()
			t0 = r.rec.now()
		}
		o, err := moleculeOp(r.ctx, in)
		if err != nil {
			r.fail(fmt.Sprintf("molecule op %d (%d modes)", op, in.h.Modes), err)
			continue
		}
		ts = append(ts, timed{time.Since(start).Seconds(), o.ms, o.cpu})
		if traced {
			r.rec.add("compiler.pipeline", -1, op, t0, t0+o.ms)
			var took [2]float64 // without spans, with spans
			for i := 0; i < 2 && err == nil; i++ {
				spans := (i + op) % 2
				rec := r.rec
				if spans == 0 {
					rec = nil
				}
				core.ResetBuildCache()
				took[spans], err = moleculeReplay(r.ctx, rec, op, in, dev)
			}
			if err != nil {
				r.fail(fmt.Sprintf("molecule replay %d", op), err)
			} else {
				overhead = append(overhead, took[1]-took[0])
			}
		}
	}
	return ts, overhead
}

func runMolecule(r *run) error {
	var prefix []input
	setup, err := r.repeatSetup(setupRuns, func() error {
		core.ResetBuildCache()
		g := moleculeGenerator(qualitySeed, moleculePrefixModes)
		prefix = prefix[:0]
		for len(prefix) < len(moleculePrefixModes) {
			in, err := g.take()
			if err != nil {
				return err
			}
			prefix = append(prefix, in)
		}
		if err := paperCheck(r.ctx); err != nil {
			return err
		}
		warm, err := moleculeGenerator(mix(r.seed, 99), []int{8}).take()
		if err != nil {
			return err
		}
		_, err = moleculeOp(r.ctx, warm)
		return err
	}, nil)
	if err != nil {
		return err
	}
	core.ResetBuildCache()
	r.e2e["setup_s"] = setup
	r.info["repeat_share"] = 0.0

	inputs := mix(r.seed, 2)
	moleculeLoop(r, moleculeGenerator(mix(r.seed, 3), moleculeModes), warmup, false)
	// The warm-up inputs come from another stream: empty the memo so no
	// index set they share with the measured inputs is served from it.
	core.ResetBuildCache()
	// Traced, Pipeline.Run still carries no spans, so the ops' own
	// timings stay untraced ones; the replays between them are not ops.
	steal := startSteal()
	ts, overhead := moleculeLoop(r, moleculeGenerator(inputs, moleculeModes), r.seconds, r.trace)
	r.e2e["peak_rss_mb"] = peakRSSMB()
	r.phaseMetrics(ts, r.seconds.Seconds(), steal.share(), false)
	if r.trace {
		r.layer["trace.overhead_ms"] = median(overhead)
		moleculeLayers(r)
	}

	first := make([]outcome, len(prefix))
	var cnots, depth, routed int
	const replayFor = 3 * time.Second
	hits := qualityPasses(r, "molecule", len(prefix), replayFor, func(i int) (outcome, error) {
		rep, err := moleculeOp(r.ctx, prefix[i])
		if err == nil && first[i].strs == nil {
			cnots, depth, routed = cnots+rep.cnots, depth+rep.depth, routed+rep.routedCNOTs
		}
		return rep.outcome, err
	}, first)
	for _, o := range first {
		r.e2e["pauli_weight_sum"] += float64(o.weight)
	}
	r.layer["miss_p50_ms"] = r.layer["latency_p50_ms"]
	r.layer["hit_p50_ms"] = p50(hits, replayFor.Seconds())
	r.layer["circuit.cnot_sum"] = float64(cnots)
	r.layer["circuit.depth_sum"] = float64(depth)
	r.layer["arch.routed_cnot_sum"] = float64(routed)
	return nil
}

// moleculeLayers turns the replay spans into per-layer metrics. Shares
// are of the summed Pipeline.Run time; the compiler facade's residual is
// Pipeline.Run minus the layer calls the replay timed.
func moleculeLayers(r *run) {
	st := r.rec.byName()
	pipe := st["compiler.pipeline"]
	if pipe == nil {
		return
	}
	get := func(name string) *layerStat {
		if s := st[name]; s != nil {
			return s
		}
		return &layerStat{}
	}
	maj, search := get("fermion.majorana"), get("core.search")
	apply, verify := get("mapping.apply"), get("mapping.verify")
	synth, opt, route := get("circuit.synth"), get("circuit.optimize"), get("arch.route")

	r.layer["fermion.majorana_ms"] = median(maj.selfMS)
	r.layer["fermion.majorana_alloc_mb"] = median(maj.alloc)
	r.layer["fermion.majorana_terms"] = median(maj.count)
	r.layer["core.search_ms"] = median(search.selfMS)
	r.layer["core.search_alloc_mb"] = median(search.alloc)
	r.layer["mapping.apply_ms"] = median(apply.selfMS)
	r.layer["mapping.verify_ms"] = median(verify.selfMS)
	r.layer["mapping.qubit_terms"] = median(apply.count)
	r.layer["circuit.synth_ms"] = median(synth.selfMS)
	r.layer["circuit.optimize_ms"] = median(opt.selfMS)
	r.layer["circuit.gates_in"] = median(synth.count)
	r.layer["circuit.gates_out"] = median(opt.count)
	r.layer["arch.route_ms"] = median(route.selfMS)
	r.layer["arch.swaps"] = median(route.count)
	r.layer["arch.alloc_mb"] = median(route.alloc)

	circ := make([]float64, len(synth.alloc))
	for i := range circ {
		circ[i] = synth.alloc[i] + opt.alloc[i]
	}
	r.layer["circuit.alloc_mb"] = median(circ)

	layerMS := make(map[int]float64)
	for _, l := range []*layerStat{maj, search, apply, verify, synth, opt, route} {
		for i, op := range l.ops {
			layerMS[op] += l.selfMS[i]
		}
	}
	residual := make([]float64, len(pipe.ops))
	for i, op := range pipe.ops {
		residual[i] = pipe.selfMS[i] - layerMS[op]
	}
	r.layer["compiler.residual_ms"] = median(residual)
	total := pipe.total
	r.layer["fermion.share"] = maj.total / total
	r.layer["core.share"] = search.total / total
	r.layer["mapping.share"] = (apply.total + verify.total) / total
	r.layer["circuit.share"] = (synth.total + opt.total) / total
	r.layer["arch.share"] = route.total / total
	r.layer["compiler.share"] = sum(residual) / total
}
