package main

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"syscall"
	"time"

	"routerwatch/internal/attack"
	"routerwatch/internal/capture"
	"routerwatch/internal/detector"
	"routerwatch/internal/detector/chi"
	"routerwatch/internal/network"
	"routerwatch/internal/packet"
	"routerwatch/internal/protocol"
	"routerwatch/internal/routing"
	"routerwatch/internal/sim"
	"routerwatch/internal/tcpsim"
	"routerwatch/internal/telemetry"
	"routerwatch/internal/topology"
)

// routingWorkers pins the routing layer's parallel table preparation to
// the two CPUs the benchmark is sized for, so the load never exceeds them.
const routingWorkers = 2

// pik2Options is the Πk+2 configuration every Πk+2 workload deploys.
var pik2Options = protocol.Params{
	"k": "1", "round": "1s", "timeout": "250ms",
	"loss-threshold": "2", "fabrication-threshold": "2",
}

// probes is the instrumentation a traced trial threads through assembly;
// the zero value is the untraced trial.
type probes struct {
	tel  *telemetry.Set
	busy *busyClock
}

// wrap returns the Env the protocol attaches to: env itself, or env
// behind the callback-timing decorator in a traced trial.
func (pr probes) wrap(env protocol.Env) protocol.Env {
	if pr.busy == nil {
		return env
	}
	return &busyEnv{Env: env, c: pr.busy}
}

// phases are the CPU times of one trial, taken around the benchmark's own
// calls into each layer.
type phases struct {
	// setup is all assembly that advances no virtual time; topology,
	// network, attach and open are its parts in the layers' own calls.
	setup, topology, network, attach, open time.Duration
	converge, calibrate, run               time.Duration
}

// trial is one judged scenario run.
type trial struct {
	phases
	log       *detector.Log
	precision int
	faulty    []packet.NodeID
	victims   int
	// onset is the virtual time from which the attack could bite.
	onset time.Duration
	// packets counts data packets originated in the run phase.
	packets    uint64
	recomputes int
	// want, when set, is the rendered suspicion log the trial must match
	// byte for byte (a replay against its recording).
	want string
}

// workload is one benchmark scenario: its declarative twin (what
// protocol.Run would execute, used by the equivalence tests) and the
// benchmark's own step-by-step assembly of it.
type workload struct {
	name string
	spec func(seed int64) *protocol.Spec
	// prepare runs once per process, outside all timing, and returns the
	// per-trial function and a cleanup.
	prepare func(seed int64) (func(probes) (*trial, error), func(), error)
}

var workloads = []workload{
	{name: "isp-excise", spec: ispExciseSpec, prepare: fresh(ispExciseSpec, runSim)},
	{name: "line-dense", spec: lineDenseSpec, prepare: fresh(lineDenseSpec, runSim)},
	{name: "chi-masked", spec: chiMaskedSpec, prepare: fresh(chiMaskedSpec, runChi)},
	{name: "replay-line", spec: replayLineSpec, prepare: replayPrepare},
}

func lookupWorkload(name string) (*workload, error) {
	var names []string
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
		names = append(names, workloads[i].name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// ispExciseSpec: Πk+2 on a generated 200-router ISP with link-state
// routing and the excision response on; router 0 drops 60% of data.
func ispExciseSpec(seed int64) *protocol.Spec {
	return &protocol.Spec{
		Name:     "isp-excise",
		Protocol: "pik2",
		Options:  pik2Options,
		Seed:     seed,
		Duration: protocol.Duration(20 * time.Second),
		Topology: protocol.TopologySpec{Kind: "isp", N: 200, Pops: 8, Seed: 7},
		Routing: &protocol.RoutingSpec{
			Delay: protocol.Duration(time.Second), Hold: protocol.Duration(2 * time.Second),
			Converge:       protocol.Duration(2 * time.Minute),
			Respond:        true,
			StaggerRegions: true, BundleFlood: true, BatchCompute: true,
			Workers: routingWorkers,
		},
		Attack: &protocol.AttackSpec{
			Kind: "drop", Node: 0, Rate: 0.6, Select: "data",
			Start: protocol.Duration(2 * time.Second),
		},
		Traffic: []protocol.TrafficSpec{{
			Kind: "mesh", Pairs: 120, Count: 600,
			Interval: protocol.Duration(5 * time.Millisecond),
			Offset:   protocol.Duration(time.Microsecond),
			Size:     500, Flow: 1,
		}},
	}
}

// lineSpec is Πk+2 on the 5-router line with bidirectional traffic 0↔4
// every 2 ms; router 2 drops 30% from t=5 s.
func lineSpec(name string, seed int64, ticks int, dur time.Duration) *protocol.Spec {
	return &protocol.Spec{
		Name:     name,
		Protocol: "pik2",
		Options:  pik2Options,
		Seed:     seed,
		Duration: protocol.Duration(dur),
		Jitter:   protocol.Duration(100 * time.Microsecond),
		Topology: protocol.TopologySpec{Kind: "line", N: 5},
		Attack: &protocol.AttackSpec{
			Kind: "drop", Node: 2, Rate: 0.3,
			Start: protocol.Duration(5 * time.Second),
		},
		Traffic: []protocol.TrafficSpec{{
			Kind: "pair", Src: 0, Dst: 4, Count: ticks,
			Interval: protocol.Duration(2 * time.Millisecond),
			Offset:   protocol.Duration(time.Microsecond),
			Size:     500, Flow: 1, ReverseFlow: 2,
		}},
	}
}

func lineDenseSpec(seed int64) *protocol.Spec {
	return lineSpec("line-dense", seed, 150_000, 300*time.Second)
}

func replayLineSpec(seed int64) *protocol.Spec {
	return lineSpec("replay-line", seed, 60_000, 120*time.Second)
}

// chiMaskedSpec: χ on the Fig 6.4 star (8 TCP sources, 4 sinks) with the
// masked90 attack on flow 1 from t=10 s.
func chiMaskedSpec(seed int64) *protocol.Spec {
	return &protocol.Spec{
		Name:     "chi-masked",
		Protocol: "chi",
		Seed:     seed,
		Duration: protocol.Duration(300 * time.Second),
		Topology: protocol.TopologySpec{Kind: "simple-chi", N: 8, M: 4},
		Attack:   &protocol.AttackSpec{Kind: "masked90"},
	}
}

// cpuNow returns the CPU time the process has used so far, over all its
// threads. Phases are timed in CPU time rather than wall time: on a shared
// host the wall clock also counts time the process waited for a CPU, which
// varies with the neighbours' load, not with the program.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// span adds the CPU time fn takes to *d.
func span(d *time.Duration, fn func()) {
	start := cpuNow()
	fn()
	*d += cpuNow() - start
}

// fresh is the prepare step of a workload whose every trial assembles
// the scenario from scratch.
func fresh(specOf func(int64) *protocol.Spec, run func(*protocol.Spec, probes) (*trial, error)) func(int64) (func(probes) (*trial, error), func(), error) {
	return func(seed int64) (func(probes) (*trial, error), func(), error) {
		spec := specOf(seed)
		return func(pr probes) (*trial, error) { return run(spec, pr) }, func() {}, nil
	}
}

// runSim assembles and runs a generic scenario from the layers' public
// calls, in protocol.RunGeneric's order: topology, network, routing
// convergence, protocol attach, attack install, traffic schedule, run.
// It understands the spec features the workloads use: a drop attack on
// all or only data packets, and pair or mesh traffic.
func runSim(spec *protocol.Spec, pr probes) (*trial, error) {
	d, err := protocol.Lookup(spec.Protocol)
	if err != nil {
		return nil, err
	}
	opts, err := d.ParseOptions(spec.Options)
	if err != nil {
		return nil, err
	}
	t := &trial{precision: d.Precision}
	setupStart := cpuNow()

	var g *topology.Graph
	span(&t.topology, func() { g, err = spec.Topology.Build() })
	if err != nil {
		return nil, err
	}
	var net *network.Network
	span(&t.network, func() {
		net = network.New(g, network.Options{
			Seed: spec.Seed, ProcessingJitter: spec.Jitter.D(), Telemetry: pr.tel,
		})
	})
	hooks, log := protocol.LogHooks()
	t.log = log
	if r := spec.Routing; r != nil {
		rt := routing.AttachWith(net, routing.Options{
			Timers:         routing.Timers{Delay: r.Delay.D(), Hold: r.Hold.D()},
			StaggerRegions: r.StaggerRegions,
			BundleFlood:    r.BundleFlood,
			FloodHold:      r.FloodHold.D(),
			BatchCompute:   r.BatchCompute,
			Workers:        r.Workers,
		})
		for _, dm := range rt.Daemons() {
			dm.OnRecompute(func(time.Duration) { t.recomputes++ })
		}
		span(&t.converge, func() { rt.RunUntilConverged(r.Converge.D()) })
		if r.Respond {
			hooks.Responder = func(by packet.NodeID, seg topology.Segment) {
				rt.Daemon(by).AnnounceSuspicion(seg)
			}
		}
	}
	span(&t.attach, func() { _, err = protocol.Attach(pr.wrap(protocol.NewSimEnv(net)), spec.Protocol, opts, hooks) })
	if err != nil {
		return nil, err
	}
	a := spec.Attack
	dropper := &attack.Dropper{
		P: a.Rate, Rng: attack.NewRand(spec.Seed), Start: a.Start.D(),
	}
	if a.Select == "data" {
		dropper.Select = attack.DataOnly
	}
	net.Router(packet.NodeID(a.Node)).SetBehavior(dropper)
	t.faulty = []packet.NodeID{packet.NodeID(a.Node)}

	base := net.Now()
	t.onset = max(a.Start.D(), base)
	for ti := range spec.Traffic {
		scheduleTraffic(net, spec, ti, base)
	}
	t.setup = cpuNow() - setupStart - t.converge

	span(&t.run, func() { net.Run(base + spec.Duration.D()) })
	t.victims = dropper.VictimCount()
	t.packets = net.NextPacketID() - 1
	return t, nil
}

// scheduleTraffic inserts workload ti of spec with Scheduler.At and
// Network.Inject, drawing exactly what protocol.Run draws for it.
func scheduleTraffic(net *network.Network, spec *protocol.Spec, ti int, base time.Duration) {
	sched := net.Scheduler()
	arena := &packet.Arena{}
	tr := &spec.Traffic[ti]
	src, dst := packet.NodeID(tr.Src), packet.NodeID(tr.Dst)
	interval := tr.Interval.D()
	switch tr.Kind {
	case "pair":
		for i := 0; i < tr.Count; i++ {
			i := i
			sched.At(base+time.Duration(i)*interval+tr.Offset.D(), func() {
				p := arena.New()
				p.Dst, p.Size, p.Flow = dst, tr.Size, tr.Flow
				p.Seq, p.Payload = uint32(i), uint64(i)
				net.Inject(src, p)
				q := arena.New()
				q.Dst, q.Size, q.Flow = src, tr.Size, tr.ReverseFlow
				q.Seq, q.Payload = uint32(i), uint64(i)
				net.Inject(dst, q)
			})
		}
	case "mesh":
		// One self-rechaining event per flow; pairs come from a stream
		// derived from the scenario seed and the workload's position.
		n := net.Graph().NumNodes()
		rng := sim.NewRNG(sim.DeriveSeed(spec.Seed, 0x6d657368<<8|uint64(ti)))
		for k := 0; k < tr.Pairs; k++ {
			src := packet.NodeID(rng.Intn(n))
			dst := packet.NodeID(rng.Intn(n - 1))
			if dst >= src {
				dst++
			}
			flow := tr.Flow + packet.FlowID(k)
			start := base + tr.Offset.D() + interval*time.Duration(k)/time.Duration(tr.Pairs)
			i := 0
			var tick func()
			tick = func() {
				p := arena.New()
				p.Dst, p.Size, p.Flow = dst, tr.Size, flow
				p.Seq, p.Payload = uint32(i), uint64(i)
				net.Inject(src, p)
				i++
				if i < tr.Count {
					sched.At(sched.Now()+interval, tick)
				}
			}
			sched.At(start, tick)
		}
	default:
		panic(fmt.Sprintf("traffic kind %q not used by any workload", tr.Kind))
	}
}

// runChi runs the catalog's χ scenario step by step: the learning pass
// and calibration, then the detection run under masked90.
func runChi(spec *protocol.Spec, pr probes) (*trial, error) {
	d, err := protocol.Lookup("chi")
	if err != nil {
		return nil, err
	}
	t := &trial{precision: d.Precision}
	const jitter = 2 * time.Millisecond
	const attackAt = 10 * time.Second
	var st *topology.SimpleChiTopology
	span(&t.topology, func() { st = topology.SimpleChi(spec.Topology.N, spec.Topology.M) })
	queues := []chi.QueueID{{R: st.R, RD: st.RD}}

	// assemble builds one network with χ attached and the TCP sources
	// started; its CPU time is setup.
	assemble := func(seed int64, opts chi.Options, hooks protocol.Hooks, probe probes) (*network.Network, protocol.Instance, []*tcpsim.Flow, error) {
		start := cpuNow()
		defer func() { t.setup += cpuNow() - start }()
		var net *network.Network
		span(&t.network, func() {
			net = network.New(st.Graph, network.Options{Seed: seed, ProcessingJitter: jitter, Telemetry: probe.tel})
		})
		opts.Queues = queues
		var inst protocol.Instance
		var err error
		span(&t.attach, func() { inst, err = protocol.Attach(probe.wrap(protocol.NewSimEnv(net)), "chi", opts, hooks) })
		man := tcpsim.NewManager(net)
		var flows []*tcpsim.Flow
		for i := range st.Sources {
			flows = append(flows, man.StartFlow(tcpsim.FlowConfig{
				Src: st.Sources[i], Dst: st.Sinks[i%len(st.Sinks)],
				Start: time.Duration(i) * 200 * time.Millisecond,
			}))
		}
		return net, inst, flows, err
	}

	// The learning pass runs uninstrumented, as in the catalog scenario.
	lnet, linst, _, err := assemble(spec.Seed, chi.Options{Learning: true, Round: time.Second}, protocol.Hooks{}, probes{})
	if err != nil {
		return nil, err
	}
	var cal chi.Calibration
	span(&t.calibrate, func() {
		lnet.Run(60 * time.Second)
		cal = linst.Engine().(*chi.Protocol).Validator(queues[0]).Calibrate()
	})

	hooks, log := protocol.LogHooks()
	t.log = log
	net, _, flows, err := assemble(spec.Seed+1, chi.Options{
		Round: time.Second, Calibration: cal,
		SingleThreshold: 0.999, CombinedThreshold: 0.99,
		FabricationTolerance: 2,
	}, hooks, pr)
	if err != nil {
		return nil, err
	}
	t.setup += t.topology
	dropper := &attack.Dropper{
		Select: attack.And(attack.ByFlow(flows[1].ID()), attack.DataOnly),
		P:      1, MinQueueFrac: 0.9, Start: attackAt,
	}
	t.faulty, t.onset = []packet.NodeID{st.R}, attackAt
	span(&t.run, func() {
		net.Run(attackAt)
		net.Router(st.R).SetBehavior(dropper)
		net.Run(spec.Duration.D())
	})
	t.victims = dropper.VictimCount()
	t.packets = net.NextPacketID() - 1
	return t, nil
}

// replayPrepare records the replay-line scenario once as plain pcap in a
// fresh temporary directory; each trial then replays it and must
// reproduce the recording run's verdicts.
func replayPrepare(seed int64) (func(probes) (*trial, error), func(), error) {
	dir, err := os.MkdirTemp("", "replay-line-")
	if err != nil {
		return nil, nil, err
	}
	cleanup := func() { os.RemoveAll(dir) }
	spec := replayLineSpec(seed)
	rec := capture.NewRecorder(dir, capture.RecorderOptions{})
	var recErr error
	res, err := protocol.Run(spec, protocol.RunOptions{
		BeforeRun: func(r *protocol.Result) { recErr = rec.Attach(r.Net) },
	})
	if err == nil {
		err = errors.Join(recErr, rec.Close())
	}
	if err != nil {
		cleanup()
		return nil, nil, fmt.Errorf("recording replay-line: %w", err)
	}
	orig := &trial{
		faulty: res.FaultySet, victims: res.Victims(),
		// The line has no routing to converge, so traffic and the attack
		// start on the spec's own clock.
		onset:   spec.Attack.Start.D(),
		packets: res.Net.NextPacketID() - 1,
		want:    render(res.Log),
	}
	return func(pr probes) (*trial, error) { return runReplay(dir, orig, pr) }, cleanup, nil
}

// runReplay opens the recorded trace, attaches Πk+2 and replays it to
// the recorded horizon. orig carries the recording run's ground truth.
func runReplay(dir string, orig *trial, pr probes) (*trial, error) {
	d, err := protocol.Lookup("pik2")
	if err != nil {
		return nil, err
	}
	opts, err := d.ParseOptions(pik2Options)
	if err != nil {
		return nil, err
	}
	t := &trial{
		precision: d.Precision, faulty: orig.faulty, victims: orig.victims,
		onset: orig.onset, packets: orig.packets, want: orig.want,
	}
	setupStart := cpuNow()
	var env *capture.TraceEnv
	span(&t.open, func() { env, err = capture.OpenTrace(dir, capture.TraceOptions{Telemetry: pr.tel}) })
	if err != nil {
		return nil, err
	}
	defer env.Close()
	hooks, log := protocol.LogHooks()
	t.log = log
	span(&t.attach, func() { _, err = protocol.Attach(pr.wrap(env), "pik2", opts, hooks) })
	if err != nil {
		return nil, err
	}
	t.setup = cpuNow() - setupStart
	span(&t.run, func() { env.Run(0) })
	if err := env.Err(); err != nil {
		return nil, err
	}
	return t, env.Close()
}

// render flattens a suspicion log into its byte-comparable transcript.
func render(log *detector.Log) string {
	var b strings.Builder
	for _, s := range log.All() {
		b.WriteString(s.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// implicates reports whether seg contains a compromised router.
func (t *trial) implicates(seg topology.Segment) bool {
	for _, f := range t.faulty {
		if seg.Contains(f) {
			return true
		}
	}
	return false
}

// judge is the correctness gate every trial passes through: the attack
// bit, a suspicion implicates a compromised router, no correct router
// accused beyond the protocol's precision, and a replay reproduces its
// recording's verdicts byte for byte. It returns the detection latency.
func (t *trial) judge() (time.Duration, error) {
	if t.victims == 0 {
		return 0, errors.New("invalid trial: the attack never bit")
	}
	first := time.Duration(-1)
	for _, s := range t.log.All() {
		if t.implicates(s.Segment) && (first < 0 || s.At < first) {
			first = s.At
		}
	}
	if first < 0 {
		return 0, errors.New("missed detection: no suspicion implicates a compromised router")
	}
	gt := detector.NewGroundTruth(t.faulty, nil)
	if v := detector.CheckAccuracy(t.log, gt, t.precision); len(v) > 0 {
		return 0, fmt.Errorf("%d false accusations at precision %d, first: %v", len(v), t.precision, v[0])
	}
	if t.want != "" && render(t.log) != t.want {
		return 0, errors.New("replayed suspicion log differs from the recording run's")
	}
	return first - t.onset, nil
}
