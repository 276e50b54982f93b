package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"
)

// layers are the program's layers the profile is grouped into, as
// reported in <layer>.self_s; samples in any other package count as
// "other".
var layers = []string{
	"sim", "network", "queue", "routing", "topology", "packet", "summary",
	"auth", "tcpsim", "capture", "detector.pik2", "detector.chi",
	"detector.tvinfo", "runtime.gc", "other",
}

const internalPrefix = "routerwatch/internal/"

// gcWorkers are the runtime's background garbage-collection goroutines.
var gcWorkers = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// layerOf attributes one sample, given its stack of function names from
// the innermost frame out: the innermost routerwatch/internal frame names
// the layer (runtime work such as mallocgc called from routing counts as
// routing), a GC background worker counts as runtime.gc, anything else
// as other. The benchmark's own frames (package main, such as the
// callback-timing decorator a layer calls into) are not a layer: a sample
// whose innermost attributable frame is one counts as other.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") {
			return "other"
		}
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			layer := strings.ReplaceAll(pkg, "/", ".")
			for _, l := range layers {
				if l == layer {
					return layer
				}
			}
			return "other"
		}
	}
	for _, fn := range stack {
		for _, w := range gcWorkers {
			if fn == w {
				return "runtime.gc"
			}
		}
	}
	return "other"
}

// layerTimes decodes a gzipped pprof CPU profile and sums its CPU time
// per layer.
func layerTimes(gz []byte) (map[string]time.Duration, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make(map[string]time.Duration)
	var stack []string
	for _, s := range p.samples {
		stack = stack[:0]
		for _, loc := range s.locs {
			for _, fn := range p.locations[loc] {
				stack = append(stack, p.strings[p.functions[fn]])
			}
		}
		// The last value of a CPU sample is its CPU time in nanoseconds.
		if len(s.values) > 0 {
			out[layerOf(stack)] += time.Duration(s.values[len(s.values)-1])
		}
	}
	return out, nil
}

// profile is the part of the pprof profile.proto message layer
// attribution needs.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]int64    // function id → name string index
	strings   []string
}

type sample struct {
	locs   []uint64 // location ids, leaf first
	values []int64
}

// Field numbers of profile.proto.
const (
	profSample, profLocation, profFunction, profString = 2, 4, 5, 6
	sampleLocation, sampleValue                        = 1, 2
	locID, locLine                                     = 1, 4
	lineFunction                                       = 1
	funcID, funcName                                   = 1, 2
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := fields(b, func(num int, v uint64, body []byte) error {
		switch num {
		case profSample:
			var s sample
			err := fields(body, func(num int, v uint64, body []byte) error {
				switch num {
				case sampleLocation:
					return varints(v, body, func(x uint64) { s.locs = append(s.locs, x) })
				case sampleValue:
					return varints(v, body, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := fields(body, func(num int, v uint64, body []byte) error {
				switch num {
				case locID:
					id = v
				case locLine:
					return fields(body, func(num int, v uint64, _ []byte) error {
						if num == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := fields(body, func(num int, v uint64, _ []byte) error {
				switch num {
				case funcID:
					id = v
				case funcName:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case profString:
			p.strings = append(p.strings, string(body))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, name := range p.functions {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, errors.New("function name out of the string table")
		}
	}
	return p, nil
}

// fields walks a protobuf message, calling fn with each field's number and
// either its varint value or its length-delimited body.
func fields(b []byte, fn func(num int, v uint64, body []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// varints decodes a repeated varint field in either encoding: a single
// value (v, body nil) or a packed body.
func varints(v uint64, body []byte, fn func(uint64)) error {
	if body == nil {
		fn(v)
		return nil
	}
	for len(body) > 0 {
		x, n := binary.Uvarint(body)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		fn(x)
		body = body[n:]
	}
	return nil
}
