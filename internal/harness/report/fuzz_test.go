package report

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReportDecode feeds arbitrary bytes to Decode, the parser of envelopes
// that arrive from outside (albertad workers, stored results). Decode must
// never panic, and any Suite it accepts must survive Encode and a second
// Decode unchanged, with Encode a fixed point from then on. The one change a
// round trip may make is the canonical one: an empty top-level section is
// omitted by Encode and so decodes as nil.
func FuzzReportDecode(f *testing.F) {
	s, err := Build(fakeResults(), RunConfig{Reps: 3, Sampled: true, SampledInterval: 1 << 14, SampledPhases: 8},
		BuildOptions{Sections: AllSections()})
	if err != nil {
		f.Fatal(err)
	}
	enc, err := s.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add([]byte(`{"schema_version":2,"benchmarks":[],"config":{"reps":1},"measurements":{},"table1":[]}`))
	f.Add([]byte(`{"schema_version":2,"measurements":{"a":null,"b":[{"coverage":{},"kind":7}]}}`))
	f.Add([]byte(`{"schema_version":1}`))
	f.Add([]byte(`{"schema_version":2,"benchmarks":["\xff"],"config":{"reps":-1}}`))
	f.Add([]byte(`[`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s1, err := Decode(data)
		if err != nil {
			return
		}
		enc1, err := s1.Encode()
		if err != nil {
			t.Fatalf("accepted envelope does not encode: %v", err)
		}
		s2, err := Decode(enc1)
		if err != nil {
			t.Fatalf("re-encoded envelope rejected: %v\n%s", err, enc1)
		}
		if want := canonicalSuite(*s1); !reflect.DeepEqual(*s2, want) {
			t.Fatalf("round trip changed the envelope\nbefore: %+v\nafter:  %+v", want, *s2)
		}
		enc2, err := s2.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("Encode is not a fixed point\nfirst:  %s\nsecond: %s", enc1, enc2)
		}
	})
}

// canonicalSuite is s as Encode writes it: omitempty drops an empty
// top-level section, which then decodes as nil.
func canonicalSuite(s Suite) Suite {
	if len(s.Measurements) == 0 {
		s.Measurements = nil
	}
	if len(s.Table1) == 0 {
		s.Table1 = nil
	}
	if len(s.Table2) == 0 {
		s.Table2 = nil
	}
	if len(s.Figure1) == 0 {
		s.Figure1 = nil
	}
	if len(s.Figure2) == 0 {
		s.Figure2 = nil
	}
	if len(s.Kernels) == 0 {
		s.Kernels = nil
	}
	return s
}
