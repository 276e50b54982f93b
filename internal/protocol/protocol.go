// Package protocol is the runtime layer that presents Π2, Πk+2, χ and the
// Fatih composition as instances of one framework — traffic validation +
// distributed detection + response (§4) — instead of four unrelated
// Attach(net, Options) APIs.
//
// It has three parts:
//
//   - Env: the execution environment a detection protocol attaches to —
//     virtual clock, topology, control plane, signer/verifier, RNG streams.
//     Detector logic talks to an Env instead of reaching into sim/network
//     internals, so the simulator (SimEnv) is merely the first backend.
//
//   - Registry: name-keyed protocol descriptors with per-protocol option
//     parsing, so callers construct any registered protocol by name
//     (cmd/mrsim -protocol, scenario specs). Registration lives in the
//     protocol/catalog subpackage to keep this package import-cycle free.
//
//   - Spec: a small declarative scenario config (topology builder, attack
//     spec, protocol + options, traffic, rounds, seed) that Run executes
//     deterministically.
//
// Determinism obligations for Env backends: all time must come from the
// environment's virtual clock (wall-clock reads are lint-banned), all
// randomness from RNG(stream) (derived from Seed via sim.DeriveSeed), and
// callback dispatch order must be a pure function of the schedule — the
// parallel runner's bitwise replay contract depends on it. The rwlint
// analyzers enforce the first two module-wide.
package protocol

import (
	"time"

	"routerwatch/internal/detector"
	"routerwatch/internal/packet"
	"routerwatch/internal/telemetry"
	"routerwatch/internal/topology"
)

// Instance is a running protocol deployment, as seen by the runtime: the
// common surface of Π2, Πk+2, χ and Fatih (name, per-round lifecycle,
// suspicion log, telemetry set). The native engine stays reachable for
// protocol-specific APIs (calibration, bandwidth accounting, corruptors).
type Instance interface {
	// ProtocolName returns the registry name this instance was built under.
	ProtocolName() string
	// Round returns the validation interval τ driving the per-round
	// lifecycle (0 when the protocol is not round-based).
	Round() time.Duration
	// Log returns the suspicion log the runtime attached (nil when the
	// caller wired its own sinks instead).
	Log() *detector.Log
	// Telemetry returns the instrumentation set the deployment reports to
	// (nil when telemetry is disabled).
	Telemetry() *telemetry.Set
	// Engine returns the protocol's native value (*pik2.Protocol,
	// *chi.Protocol, *fatih.System, …) for protocol-specific access.
	Engine() any
}

// Info carries everything a Descriptor's Attach needs to satisfy Instance.
type Info struct {
	Name      string
	Round     time.Duration
	Log       *detector.Log
	Telemetry *telemetry.Set
	Engine    any
}

// NewInstance wraps an attached protocol's Info as an Instance.
func NewInstance(info Info) Instance { return &instance{info} }

type instance struct{ info Info }

func (i *instance) ProtocolName() string      { return i.info.Name }
func (i *instance) Round() time.Duration      { return i.info.Round }
func (i *instance) Log() *detector.Log        { return i.info.Log }
func (i *instance) Telemetry() *telemetry.Set { return i.info.Telemetry }
func (i *instance) Engine() any               { return i.info.Engine }

// Hooks is what the runtime wires into every protocol it attaches: where
// suspicions go and what the response mechanism is. Descriptors merge these
// with (never replace) sinks the caller set in typed options.
type Hooks struct {
	// Log is the suspicion log behind Sink, surfaced on the Instance.
	Log *detector.Log
	// Sink receives every suspicion the deployment raises or adopts.
	Sink detector.Sink
	// Responder is invoked at the suspecting router — the response loop.
	Responder func(by packet.NodeID, seg topology.Segment)
}

// LogHooks builds the runtime's default hooks: a fresh suspicion log with
// its sink wired in.
func LogHooks() (Hooks, *detector.Log) {
	log := detector.NewLog()
	return Hooks{Log: log, Sink: detector.LogSink(log)}, log
}

// MergeSink composes an options-level sink with the runtime hook sink;
// either may be nil.
func MergeSink(opt detector.Sink, hook detector.Sink) detector.Sink {
	switch {
	case opt == nil:
		return hook
	case hook == nil:
		return opt
	default:
		return detector.Tee(opt, hook)
	}
}

// MergeResponder composes an options-level responder with the runtime hook
// responder; either may be nil.
func MergeResponder(opt, hook func(by packet.NodeID, seg topology.Segment)) func(by packet.NodeID, seg topology.Segment) {
	switch {
	case opt == nil:
		return hook
	case hook == nil:
		return opt
	default:
		return func(by packet.NodeID, seg topology.Segment) {
			opt(by, seg)
			hook(by, seg)
		}
	}
}
