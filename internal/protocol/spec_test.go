package protocol

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// goldenSpecs pair in-memory Spec values with their committed scenario
// files: Encode must reproduce the file byte-for-byte and DecodeSpec must
// reproduce the value, so the JSON format itself is pinned — a field
// rename or tag change breaks this test, not users' scenario files.
func goldenSpecs() map[string]*Spec {
	return map[string]*Spec{
		"line-drop": {
			Name:     "pik2-line5",
			Protocol: "pik2",
			Options: Params{
				"k": "1", "round": "1s", "timeout": "250ms",
				"loss-threshold": "2", "fabrication-threshold": "2",
			},
			Seed:     7,
			Duration: Duration(30 * time.Second),
			Jitter:   Duration(100 * time.Microsecond),
			Topology: TopologySpec{Kind: "line", N: 5},
			Routing: &RoutingSpec{
				Delay: Duration(time.Second), Hold: Duration(2 * time.Second),
				Converge: Duration(30 * time.Second), Respond: true,
			},
			Attack: &AttackSpec{
				Kind: "drop", Node: 2, Rate: 0.3,
				Start: Duration(5 * time.Second), Seed: 11,
			},
			Traffic: []TrafficSpec{{
				Kind: "pair", Src: 0, Dst: 4, Count: 15000,
				Interval: Duration(2 * time.Millisecond),
				Offset:   Duration(time.Microsecond),
				Size:     500, Flow: 1, ReverseFlow: 2,
			}},
		},
		"custom-topology": {
			Name:     "diamond",
			Protocol: "pi2",
			Seed:     42,
			Duration: Duration(12 * time.Second),
			Topology: TopologySpec{
				Kind:  "custom",
				Nodes: []string{"a", "b", "c", "d"},
				Links: []LinkSpec{
					{From: "a", To: "b", Bandwidth: 100e6, Delay: Duration(2 * time.Millisecond), QueueLimit: 64 << 10, Cost: 1},
					{From: "b", To: "d", Cost: 1},
					{From: "a", To: "c", Cost: 5},
					{From: "c", To: "d", Cost: 5},
				},
			},
			Traffic: []TrafficSpec{{
				Src: 0, Dst: 3, Count: 10000,
				Interval: Duration(time.Millisecond), Flow: 1,
			}},
		},
		"chi-masked": {
			Name:     "chi-simple",
			Protocol: "chi",
			Seed:     3,
			Duration: Duration(30 * time.Second),
			Topology: TopologySpec{Kind: "simple-chi", N: 3, M: 2},
			Attack:   &AttackSpec{Kind: "masked90", MinQueueFrac: 0.9},
		},
	}
}

func TestSpecGoldenRoundTrip(t *testing.T) {
	for name, spec := range goldenSpecs() {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join("testdata", name+".json")
			golden, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file: %v (regenerate with Encode)", err)
			}
			enc, err := spec.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if string(enc) != string(golden) {
				t.Errorf("Encode drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, enc, golden)
			}
			dec, err := DecodeSpec(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(dec, spec) {
				t.Errorf("DecodeSpec(%s) = %+v, want %+v", path, dec, spec)
			}
		})
	}
}

func TestDurationJSON(t *testing.T) {
	// Strings and bare nanosecond numbers both decode.
	dec, err := DecodeSpec([]byte(`{"protocol":"pik2","topology":{"kind":"line"},"duration":"1m30s","jitter":1000}`))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Duration.D() != 90*time.Second {
		t.Errorf("duration = %v, want 1m30s", dec.Duration.D())
	}
	if dec.Jitter.D() != time.Microsecond {
		t.Errorf("jitter = %v, want 1µs", dec.Jitter.D())
	}
}

func TestDecodeSpecErrors(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"unknown field", `{"protocol":"pik2","topology":{"kind":"line"},"colour":"red"}`, "colour"},
		{"retired shards knob", `{"protocol":"pik2","topology":{"kind":"line"},"shards":8}`, "shards"},
		{"missing protocol", `{"topology":{"kind":"line"}}`, "missing protocol"},
		{"bad duration", `{"protocol":"pik2","topology":{"kind":"line"},"duration":"fast"}`, "invalid duration"},
		{"not json", `protocol: pik2`, "scenario"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeSpec([]byte(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("DecodeSpec error = %v, want mention of %q", err, tc.wantErr)
			}
		})
	}
}

func TestTopologyBuildErrors(t *testing.T) {
	if _, err := (TopologySpec{Kind: "mesh"}).Build(); err == nil {
		t.Error("unknown topology kind did not error")
	}
	if _, err := (TopologySpec{Kind: "custom"}).Build(); err == nil {
		t.Error("custom topology without nodes did not error")
	}
	bad := TopologySpec{Kind: "custom", Nodes: []string{"a"},
		Links: []LinkSpec{{From: "a", To: "ghost"}}}
	if _, err := bad.Build(); err == nil {
		t.Error("link to unknown node did not error")
	}
}
