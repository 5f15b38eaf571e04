package compiler

import (
	"context"
	"fmt"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/fermion"
	"repro/internal/obs"
	"repro/internal/pauli"
)

// WithDevice targets a catalog device by spec — "manhattan", "sycamore",
// "montreal", "linear:<n>", or "grid:<r>x<c>" — making hardware
// awareness part of the compilation: Compile (and every batch/pipeline
// path over it) synthesizes the Trotter circuit for the mapping, routes
// it onto the device with the tetris-lite pass, and reports the routed
// metrics in Result.Routed. An unknown spec surfaces as an error from
// Compile, not here, so options stay infallible to construct.
func WithDevice(spec string) Option {
	return func(o *Options) { o.DeviceName = spec; o.Device = nil }
}

// WithDeviceSpec targets an explicitly constructed device — typically a
// custom coupling graph loaded from a JSON edge list (arch.DeviceSpec /
// hattc -device-file). It overrides any WithDevice catalog spec.
func WithDeviceSpec(d *arch.Device) Option {
	return func(o *Options) { o.Device = d; o.DeviceName = "" }
}

// deviceDigest is the device component of Options.Digest: the
// canonical catalog spec for named devices, a content fingerprint for
// custom ones, "" when compilation is hardware-oblivious. Routed and
// unrouted compilations of the same problem therefore occupy separate
// store entries. Resolvable specs canonicalize through the device's own
// name, so equivalent spellings ("linear:08", "LINEAR:8") share one
// content address; an unresolvable spec falls back to its normalized
// text — harmless, since compileWith rejects it before any store access.
func (o Options) deviceDigest() string {
	switch {
	case o.Device != nil:
		return "custom:" + o.Device.Fingerprint()
	case o.DeviceName != "":
		if d, err := arch.Lookup(o.DeviceName); err == nil {
			return arch.Normalize(d.Name)
		}
		return arch.Normalize(o.DeviceName)
	}
	return ""
}

// routingDevice resolves the targeted device, or (nil, nil) when none
// is configured.
func (o Options) routingDevice() (*arch.Device, error) {
	if o.Device != nil {
		return o.Device, nil
	}
	if o.DeviceName == "" {
		return nil, nil
	}
	return arch.Lookup(o.DeviceName)
}

// Routed is the hardware-mapped view of a compilation: the synthesized
// Trotter circuit after tetris-lite routing onto a coupling graph. The
// routing pass is deterministic, so for a fixed mapping and synthesis
// options the routed circuit is byte-identical on every run — including
// runs served from a Store, which re-derive it from the cached mapping.
type Routed struct {
	Device      string           // device name, e.g. "Montreal"
	PhysQubits  int              // device size; the routed circuit spans all of it
	SwapsAdded  int              // SWAPs inserted (3 CNOTs each, pre-peephole)
	CNOTs       int              // routed two-qubit gate count
	Singles     int              // routed single-qubit (U3) gate count
	Depth       int              // routed circuit depth
	FinalLayout []int            // logical qubit → physical qubit after routing
	Circuit     *circuit.Circuit // the routed, peephole-optimized circuit

	// The synthesis intermediates, stashed so Pipeline.Run doesn't pay
	// for mapping application and Trotter synthesis a second time.
	qubitH  *pauli.Hamiltonian
	logical *circuit.Circuit
}

// attachRouted synthesizes the mapping's Trotter circuit with the
// options' synthesis knobs and routes it onto dev, filling res.Routed.
// It runs after the cache boundary on hits and misses alike: the store
// persists only mappings, and re-deriving the routed circuit from one
// is deterministic. ctx feeds the tracing seam only — synthesis and
// routing are fast deterministic passes that do not check cancellation.
func attachRouted(ctx context.Context, res *Result, mh *fermion.MajoranaHamiltonian, dev *arch.Device, o Options) error {
	if res.Mapping == nil {
		return fmt.Errorf("compiler: method %s produced no mapping to route", res.Method)
	}
	_, synthSpan := obs.StartSpan(ctx, "circuit.synthesis")
	synthSpan.SetAttr("method", res.Method)
	hq := res.Mapping.Apply(mh)
	logical, err := synthesize(hq, o)
	synthSpan.End()
	if err != nil {
		return err
	}
	_, routeSpan := obs.StartSpan(ctx, "circuit.route")
	routeSpan.SetAttr("method", res.Method)
	routeSpan.SetAttr("device", dev.Name)
	rr, err := arch.Route(logical, dev)
	routeSpan.End()
	if err != nil {
		return fmt.Errorf("compiler: routing onto %s: %w", dev.Name, err)
	}
	res.Routed = &Routed{
		Device:      dev.Name,
		PhysQubits:  dev.N,
		SwapsAdded:  rr.SwapsAdded,
		CNOTs:       rr.Circuit.CNOTCount(),
		Singles:     rr.Circuit.SingleCount(),
		Depth:       rr.Circuit.Depth(),
		FinalLayout: rr.FinalLayout,
		Circuit:     rr.Circuit,
		qubitH:      hq,
		logical:     logical,
	}
	return nil
}
