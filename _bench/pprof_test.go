package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		// Innermost routerwatch/internal frame wins over runtime frames.
		{[]string{"runtime.mallocgc", "runtime.newobject", "routerwatch/internal/routing.computeRow",
			"routerwatch/internal/routing.ComputeTable", "routerwatch/internal/sim.(*Scheduler).RunUntil", "main.main"}, "routing"},
		{[]string{"routerwatch/internal/summary.(*FPSet).Add", "routerwatch/internal/detector/pik2.(*agent).onEvent",
			"routerwatch/internal/network.(*Router).emit"}, "summary"},
		{[]string{"routerwatch/internal/detector/pik2.(*agent).onEvent.func1", "routerwatch/internal/network.(*Router).emit"}, "detector.pik2"},
		{[]string{"crypto/sha256.block", "routerwatch/internal/detector/tvinfo.Fingerprint"}, "detector.tvinfo"},
		// An internal package outside the reported layers is other.
		{[]string{"routerwatch/internal/consensus.(*Service).receive", "routerwatch/internal/sim.(*Scheduler).RunUntil"}, "other"},
		// GC background workers.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.sweepone", "runtime.bgsweep"}, "runtime.gc"},
		// Anything else.
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule"}, "other"},
		// The benchmark's own timing wrapper, called from a layer, is not
		// that layer; the protocol callback it wraps is the protocol's.
		{[]string{"time.Now", "main.(*busyClock).enter", "main.(*busyEnv).Tap.func1",
			"routerwatch/internal/network.(*Router).emit"}, "other"},
		{[]string{"routerwatch/internal/detector/pik2.(*agent).onEvent", "main.(*busyEnv).Tap.func1",
			"routerwatch/internal/network.(*Router).emit"}, "detector.pik2"},
		{nil, "other"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%q) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

// pb appends protobuf fields for the hand-built profile below.
type pb []byte

func (b pb) varint(num int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3)
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(num int, body []byte) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(body)))
	return append(b, body...)
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// TestLayerTimes decodes a hand-built gzipped profile: an inlined frame
// (mallocgc inlined into computeRow's location), packed and unpacked
// sample fields, and the CPU-time value taken from the last column.
func TestLayerTimes(t *testing.T) {
	var p pb
	for _, s := range []string{"", "routerwatch/internal/routing.computeRow", "runtime.mallocgc", "runtime.gcBgMarkWorker", "main.main"} {
		p = p.bytes(profString, []byte(s))
	}
	for id := uint64(1); id <= 4; id++ {
		p = p.bytes(profFunction, pb{}.varint(funcID, id).varint(funcName, id))
	}
	line := func(fn uint64) []byte { return pb{}.varint(lineFunction, fn) }
	p = p.bytes(profLocation, pb{}.varint(locID, 1).bytes(locLine, line(2)).bytes(locLine, line(1)))
	p = p.bytes(profLocation, pb{}.varint(locID, 2).bytes(locLine, line(3)))
	p = p.bytes(profLocation, pb{}.varint(locID, 3).bytes(locLine, line(4)))
	ms := uint64(time.Millisecond)
	p = p.bytes(profSample, pb{}.bytes(sampleLocation, packed(1, 3)).bytes(sampleValue, packed(1, 10*ms)))
	p = p.bytes(profSample, pb{}.varint(sampleLocation, 2).varint(sampleValue, 2).varint(sampleValue, 20*ms))
	p = p.bytes(profSample, pb{}.bytes(sampleLocation, packed(3)).bytes(sampleValue, packed(1, 5*ms)))
	p = p.bytes(profSample, pb{}.bytes(sampleLocation, packed(1)).bytes(sampleValue, packed(1, 10*ms)))

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := layerTimes(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{"routing": 20 * time.Millisecond, "runtime.gc": 20 * time.Millisecond, "other": 5 * time.Millisecond}
	if len(got) != len(want) {
		t.Fatalf("layerTimes = %v, want %v", got, want)
	}
	for l, d := range want {
		if got[l] != d {
			t.Errorf("layer %s: %v, want %v", l, got[l], d)
		}
	}
}
