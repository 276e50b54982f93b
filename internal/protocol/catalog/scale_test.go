package catalog

import (
	"os"
	"testing"
	"time"

	"routerwatch/internal/packet"
	"routerwatch/internal/protocol"
	"routerwatch/internal/protocol/envtest"
)

// ispDropSpec is a generated ~100-router hierarchical scenario: link-state
// routing with every scale option on, a 40-pair random traffic mesh, and a
// PoP-0 core router dropping transit traffic.
func ispDropSpec() *protocol.Spec {
	return &protocol.Spec{
		Name:     "isp96drop",
		Protocol: "pik2",
		Options: protocol.Params{
			"k": "1", "round": "1s", "timeout": "250ms",
			"loss-threshold": "2", "fabrication-threshold": "2",
		},
		Seed:     1,
		Duration: protocol.Duration(15 * time.Second),
		Jitter:   protocol.Duration(100 * time.Microsecond),
		Topology: protocol.TopologySpec{Kind: "isp", N: 96, Pops: 4, Seed: 11},
		Routing: &protocol.RoutingSpec{
			Delay: protocol.Duration(time.Second), Hold: protocol.Duration(2 * time.Second),
			Converge:       protocol.Duration(2 * time.Minute),
			StaggerRegions: true, BundleFlood: true, BatchCompute: true,
		},
		Attack: &protocol.AttackSpec{
			Kind: "drop", Node: 0, Rate: 0.6, Select: "data",
			Start: protocol.Duration(2 * time.Second),
		},
		Traffic: []protocol.TrafficSpec{{
			Kind: "mesh", Pairs: 40, Count: 400,
			Interval: protocol.Duration(5 * time.Millisecond),
			Offset:   protocol.Duration(time.Microsecond),
			Size:     500, Flow: 1,
		}},
	}
}

// runAndJudge runs spec and judges its Πk+2 suspicion log with the §4.2.2
// checkers: the faulty router must be implicated, and no suspicion may
// name a segment wider than k+2 = 3 routers.
func runAndJudge(t *testing.T, spec *protocol.Spec) {
	t.Helper()
	res, err := protocol.Run(spec, protocol.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	envtest.CheckDetection(t, envtest.Detection{
		Log:      res.Log,
		Faulty:   []packet.NodeID{res.Faulty},
		Accuracy: 3,
	})
}

// TestISPMeshDetects is the always-on run of the internet-scale shape: a
// generated ISP topology, a random traffic mesh and link-state routing
// with every scale option on. The run must not be inert, and its
// suspicions must implicate the faulty router within Πk+2's precision.
func TestISPMeshDetects(t *testing.T) {
	runAndJudge(t, ispDropSpec())
}

// TestScaleSmoke drives a ~200-router, multi-thousand-flow generated
// scenario end to end through Πk+2 and judges the suspicion log with the
// §4.2.2 conformance checkers. Heavy; enabled by RW_SCALE_SMOKE=1 (the CI
// scale-smoke job).
func TestScaleSmoke(t *testing.T) {
	if os.Getenv("RW_SCALE_SMOKE") == "" {
		t.Skip("set RW_SCALE_SMOKE=1 to run the ~200-router scale smoke")
	}
	spec := ispDropSpec()
	spec.Name = "isp200smoke"
	spec.Topology = protocol.TopologySpec{Kind: "isp", N: 200, Pops: 8, Seed: 7}
	spec.Routing.Workers = 0 // GOMAXPROCS
	spec.Traffic = []protocol.TrafficSpec{{
		Kind: "mesh", Pairs: 120, Count: 600,
		Interval: protocol.Duration(5 * time.Millisecond),
		Offset:   protocol.Duration(time.Microsecond),
		Size:     500, Flow: 1,
	}}
	spec.Duration = protocol.Duration(20 * time.Second)
	runAndJudge(t, spec)
}

// TestScaleFull is the internet-scale acceptance run: the committed
// 1000-router, one-million-flow scenario (the same file cmd/mrsim runs
// with -scenario) executes end to end and the §4.2.2 checkers judge the
// verdicts. ~80s wall; enabled by RW_SCALE_FULL=1.
func TestScaleFull(t *testing.T) {
	if os.Getenv("RW_SCALE_FULL") == "" {
		t.Skip("set RW_SCALE_FULL=1 to run the 1000-router / 1M-flow acceptance scenario")
	}
	data, err := os.ReadFile("../testdata/isp1000.json")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := protocol.DecodeSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	runAndJudge(t, spec)
}
