package protocol

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzDecodeSpec feeds arbitrary bytes to the scenario decoder, seeded with
// every committed scenario file. DecodeSpec must reject bad input with an
// error, never a panic, and any spec it accepts must survive an
// encode→decode round trip as an equal value.
func FuzzDecodeSpec(f *testing.F) {
	seeds, err := filepath.Glob("testdata/*.json")
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, "../capture/testdata/abilene-pik2.json")
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSpec(data)
		if err != nil {
			return
		}
		enc, err := s.Encode()
		if err != nil {
			t.Fatalf("encode of accepted spec: %v", err)
		}
		dec, err := DecodeSpec(enc)
		if err != nil {
			t.Fatalf("decode of own encoding: %v\n%s", err, enc)
		}
		// omitempty drops an empty list or map, which then decodes as nil:
		// the same scenario, so only that difference is forgiven.
		emptyToNil(reflect.ValueOf(s).Elem())
		if !reflect.DeepEqual(s, dec) {
			t.Fatalf("spec changed across a round trip:\n%+v\nvs\n%+v\nvia\n%s", s, dec, enc)
		}
	})
}

// emptyToNil rewrites every empty slice or map reachable from v to nil.
func emptyToNil(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			emptyToNil(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			emptyToNil(v.Field(i))
		}
	case reflect.Slice, reflect.Map:
		if v.Len() == 0 {
			v.SetZero()
			return
		}
		if v.Kind() == reflect.Slice {
			for i := 0; i < v.Len(); i++ {
				emptyToNil(v.Index(i))
			}
		}
	}
}
