// Command bench is routerwatch's scenario benchmark. Every measured run is
// also a judged detection trial: it assembles a scenario from the layers'
// public calls (topology, network, routing, protocol, attack, traffic,
// run; or trace open, attach, replay), runs it, and passes the verdicts
// through a correctness gate. A failed gate counts as a failed operation.
//
//	go run . --workload isp-excise --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured untraced. With
// --trace 1 it alternates untraced trials with traced ones (telemetry,
// callback timing, CPU profile) and prints the per-layer metrics. The last
// line of standard output is one JSON object; see BENCHMARK.json at the
// repository root for the metric list and PREDICTIONS.md for which layer
// should move which metric on which workload.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	_ "routerwatch/internal/protocol/catalog"
	"routerwatch/internal/telemetry"
)

// maxProcs caps the Go scheduler at the two CPUs the benchmark is sized
// for (fewer when the host has fewer).
const maxProcs = 2

// minSamples is the fewest measured trials of each kind per run.
const minSamples = 3

func main() {
	name := flag.String("workload", "", "workload to run (isp-excise, line-dense, chi-masked, replay-line)")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measuring time in seconds")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from traced trials")
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// measurement is one judged trial with its host-side costs.
type measurement struct {
	t *trial
	// cpu and wall are the trial's process CPU time and host wall time
	// from assembly start to judged verdict.
	cpu, wall      time.Duration
	alloc, mallocs uint64
	gcs            uint32
	latency        time.Duration
	// verdict is the correctness gate's finding (nil = passed).
	verdict error
	// pr is the trial's instrumentation, and self its CPU time per layer,
	// in a traced trial.
	pr   probes
	self map[string]time.Duration
}

// measure runs and judges one trial from a collected heap; a traced trial
// runs under the CPU profiler. The error reports a scenario that could
// not be assembled or run at all.
func measure(fn func(probes) (*trial, error), pr probes) (measurement, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var prof bytes.Buffer
	if pr.busy != nil {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return measurement{}, err
		}
	}
	start, startCPU := time.Now(), cpuNow()
	m := measurement{pr: pr}
	var err error
	m.t, err = fn(pr)
	if err == nil {
		m.latency, m.verdict = m.t.judge()
	}
	m.cpu, m.wall = cpuNow()-startCPU, time.Since(start)
	if pr.busy != nil {
		pprof.StopCPUProfile()
		if err == nil {
			m.self, err = layerTimes(prof.Bytes())
		}
	}
	runtime.ReadMemStats(&m1)
	m.alloc = m1.TotalAlloc - m0.TotalAlloc
	m.mallocs = m1.Mallocs - m0.Mallocs
	m.gcs = m1.NumGC - m0.NumGC
	return m, err
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(name string, seed int64, budget time.Duration, traced bool) error {
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))
	trialFn, cleanup, err := w.prepare(seed)
	if err != nil {
		return err
	}
	defer cleanup()

	res := result{Metrics: map[string]metric{}}
	var plain, tracedRuns []measurement
	tracedSelf := map[string]time.Duration{}
	var verdicts string // rendered log of the warm-up trial
	// record counts a judged trial. Every trial of a run must also render
	// the warm-up trial's suspicion log: a trial is deterministic, and
	// tracing must not perturb it.
	record := func(m measurement) {
		res.Attempted++
		if m.verdict == nil && render(m.t.log) != verdicts {
			m.verdict = errors.New("suspicion log differs from the warm-up trial's")
		}
		if m.verdict != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "bench: %s seed %d: trial failed: %v\n", name, seed, m.verdict)
		}
	}

	// Warm-up: judged and counted, not timed.
	warm, err := measure(trialFn, probes{})
	if err != nil {
		return err
	}
	verdicts = render(warm.t.log)
	record(warm)

	start := time.Now()
	var last time.Duration
	for {
		enough := len(plain) >= minSamples && (!traced || len(tracedRuns) >= minSamples)
		if enough && time.Since(start)+last > budget {
			break
		}
		var pr probes
		tracedTrial := traced && len(plain) > len(tracedRuns)
		if tracedTrial {
			pr = probes{tel: &telemetry.Set{Metrics: telemetry.NewRegistry()}, busy: &busyClock{}}
		}
		m, err := measure(trialFn, pr)
		if err != nil {
			return err
		}
		record(m)
		last = m.wall
		if !tracedTrial {
			plain = append(plain, m)
			continue
		}
		tracedRuns = append(tracedRuns, m)
		for l, d := range m.self {
			tracedSelf[l] += d
		}
	}
	res.Correct = res.Failed == 0

	put := func(key string, v float64, unit string) { res.Metrics[key] = metric{v, unit} }
	med := func(ms []measurement, f func(measurement) float64) float64 {
		vs := make([]float64, 0, len(ms))
		for _, m := range ms {
			vs = append(vs, f(m))
		}
		return median(vs)
	}
	sec := func(d time.Duration) float64 { return d.Seconds() }
	// phase is the median of one phase span over the untraced trials.
	phase := func(f func(*trial) time.Duration) float64 {
		return med(plain, func(m measurement) float64 { return sec(f(m.t)) })
	}
	cpu := med(plain, func(m measurement) float64 { return sec(m.cpu) })
	if !traced {
		put("cpu_s", cpu, "s")
		put("setup_s", phase(func(t *trial) time.Duration { return t.setup }), "s")
		put("pkts_per_s", med(plain, func(m measurement) float64 { return float64(m.t.packets) / sec(m.t.run) }), "1/s")
		put("alloc_mb", med(plain, func(m measurement) float64 { return float64(m.alloc) / 1e6 }), "MB")
		return emit(res)
	}

	// Phase spans and runtime counts come from the untraced trials.
	first := plain[0].t
	put("wall_s", med(plain, func(m measurement) float64 { return sec(m.wall) }), "s")
	put("topology.build_s", phase(func(t *trial) time.Duration { return t.topology }), "s")
	put("network.new_s", phase(func(t *trial) time.Duration { return t.network }), "s")
	put("detector.attach_s", phase(func(t *trial) time.Duration { return t.attach }), "s")
	put("routing.converge_s", phase(func(t *trial) time.Duration { return t.converge }), "s")
	put("chi.calibrate_s", phase(func(t *trial) time.Duration { return t.calibrate }), "s")
	put("capture.open_s", phase(func(t *trial) time.Duration { return t.open }), "s")
	runS := phase(func(t *trial) time.Duration { return t.run })
	put("sim.run_s", runS, "s")
	put("routing.recomputes", float64(first.recomputes), "count")
	put("runtime.mallocs", med(plain, func(m measurement) float64 { return float64(m.mallocs) }), "count")
	put("runtime.gc_cycles", med(plain, func(m measurement) float64 { return float64(m.gcs) }), "count")
	put("detect_latency_s", plain[0].latency.Seconds(), "s")
	put("fail_ratio", float64(res.Failed)/float64(res.Attempted), "ratio")

	// Work counts come from the last traced trial's telemetry.
	lastPr := tracedRuns[len(tracedRuns)-1].pr
	sums := counterSums(lastPr.tel.Metrics)
	for _, tm := range telemetryMetrics {
		put(tm.metric, float64(sums[tm.counter]), tm.unit)
	}
	events := float64(sums["rw_sim_events_total"])
	put("sim.events_per_s", events/(runS+phase(func(t *trial) time.Duration { return t.converge })), "1/s")
	put("detector.summary_bytes_per_pkt", float64(sums["rw_detector_summary_bytes_total"])/float64(first.packets), "B")
	put("detector.busy_s", med(tracedRuns, func(m measurement) float64 { return sec(m.pr.busy.busy) }), "s")
	put("detector.callbacks", float64(lastPr.busy.calls), "count")
	for _, l := range layers {
		put(l+".self_s", tracedSelf[l].Seconds()/float64(len(tracedRuns)), "s")
	}
	tracedCPU := med(tracedRuns, func(m measurement) float64 { return sec(m.cpu) })
	put("trace.overhead_frac", tracedCPU/cpu-1, "ratio")
	return emit(res)
}

func emit(res result) error {
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
