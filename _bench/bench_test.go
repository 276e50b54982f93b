package main

import (
	"testing"

	"routerwatch/internal/protocol"
	"routerwatch/internal/telemetry"
)

// prepared returns a workload's per-trial function for seed.
func prepared(t *testing.T, w *workload, seed int64) func(probes) (*trial, error) {
	t.Helper()
	fn, cleanup, err := w.prepare(seed)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cleanup)
	return fn
}

// TestAssemblyMatchesProtocolRun pins the benchmark's own step-by-step
// assembly of every workload to protocol.Run on the workload's declarative
// spec, and a traced trial (telemetry plus the callback-timing Env
// decorator) to an untraced one: all three render the same suspicion log.
func TestAssemblyMatchesProtocolRun(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			res, err := protocol.Run(w.spec(1), protocol.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want := render(res.Log)
			if want == "" {
				t.Fatal("protocol.Run raised no suspicion")
			}
			fn := prepared(t, w, 1)
			plain, err := fn(probes{})
			if err != nil {
				t.Fatal(err)
			}
			if got := render(plain.log); got != want {
				t.Errorf("benchmark assembly diverges from protocol.Run:\n--- protocol.Run\n%s--- benchmark\n%s", want, got)
			}
			busy := &busyClock{}
			traced, err := fn(probes{tel: &telemetry.Set{Metrics: telemetry.NewRegistry()}, busy: busy})
			if err != nil {
				t.Fatal(err)
			}
			if got := render(traced.log); got != want {
				t.Errorf("traced trial diverges from the untraced one:\n--- untraced\n%s--- traced\n%s", want, got)
			}
			if busy.calls == 0 || busy.busy <= 0 {
				t.Errorf("callback timing saw %d calls, %v busy", busy.calls, busy.busy)
			}
		})
	}
}

// TestHeldOutSeeds runs every workload's correctness gate on seeds the
// benchmark was not tuned on.
func TestHeldOutSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs sixteen full trials")
	}
	for i := range workloads {
		w := &workloads[i]
		for seed := int64(2); seed <= 5; seed++ {
			tr, err := prepared(t, w, seed)(probes{})
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			latency, err := tr.judge()
			if err != nil {
				t.Errorf("%s seed %d: %v", w.name, seed, err)
				continue
			}
			t.Logf("%s seed %d: detected %v after onset, %d victims", w.name, seed, latency, tr.victims)
		}
	}
}
