package core

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/perf"
)

type fakeBench struct {
	name string
	ws   []Workload
}

func (f *fakeBench) Name() string { return f.name }
func (f *fakeBench) Area() string { return "testing" }
func (f *fakeBench) Workloads() ([]Workload, error) {
	return f.ws, nil
}
func (f *fakeBench) Prepare(w Workload) (PreparedWorkload, error) {
	return fakePrepared{f: f, w: w}, nil
}

type fakePrepared struct {
	f *fakeBench
	w Workload
}

func (pw fakePrepared) Execute(p *perf.Profiler) (Result, error) {
	p.Do("fake", func() { p.Ops(10) })
	return Result{Benchmark: pw.f.name, Workload: pw.w.WorkloadName(), Kind: pw.w.WorkloadKind()}, nil
}

// countingGen is a generator fake that counts inventory builds and
// records every GenerateWorkload call.
type countingGen struct {
	*fakeBench
	inventories int
	calls       [][2]int64
}

func (g *countingGen) Workloads() ([]Workload, error) {
	g.inventories++
	return g.fakeBench.Workloads()
}

func (g *countingGen) GenerateWorkload(seed int64, index int) (Workload, error) {
	g.calls = append(g.calls, [2]int64{seed, int64(index)})
	return Meta{Name: GeneratedName(seed, index), Kind: KindAlberta}, nil
}

func newFake(name string) *fakeBench {
	return &fakeBench{name: name, ws: []Workload{
		Meta{Name: "test", Kind: KindTest},
		Meta{Name: "train", Kind: KindTrain},
		Meta{Name: "refrate", Kind: KindRefrate},
		Meta{Name: "alberta.1", Kind: KindAlberta},
		Meta{Name: "alberta.2", Kind: KindAlberta},
	}}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindTest: "test", KindTrain: "train", KindRefrate: "refrate", KindAlberta: "alberta",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Errorf("unknown kind formatting = %q", Kind(99).String())
	}
}

func TestFindWorkload(t *testing.T) {
	b := newFake("x")
	w, err := FindWorkload(b, "alberta.2")
	if err != nil {
		t.Fatal(err)
	}
	if w.WorkloadName() != "alberta.2" || w.WorkloadKind() != KindAlberta {
		t.Errorf("got %v/%v", w.WorkloadName(), w.WorkloadKind())
	}
	if _, err := FindWorkload(b, "nope"); !errors.Is(err, ErrNoWorkload) {
		t.Errorf("err = %v, want ErrNoWorkload", err)
	}
}

func TestWorkloadsOfKind(t *testing.T) {
	b := newFake("x")
	alb, err := WorkloadsOfKind(b, KindAlberta)
	if err != nil {
		t.Fatal(err)
	}
	if len(alb) != 2 {
		t.Errorf("alberta workloads = %d, want 2", len(alb))
	}
}

func TestMeasurementWorkloadsExcludesTest(t *testing.T) {
	b := newFake("x")
	ms, err := MeasurementWorkloads(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 4 {
		t.Errorf("measurement workloads = %d, want 4", len(ms))
	}
	for _, w := range ms {
		if w.WorkloadKind() == KindTest {
			t.Errorf("test workload %q leaked into measurement set", w.WorkloadName())
		}
	}
}

func TestSuiteOrderingAndLookup(t *testing.T) {
	s, err := NewSuite(newFake("b.two"), newFake("a.one"), newFake("c.three"))
	if err != nil {
		t.Fatal(err)
	}
	bs := s.Benchmarks()
	if len(bs) != 3 || s.Len() != 3 {
		t.Fatalf("len = %d/%d", len(bs), s.Len())
	}
	if bs[0].Name() != "a.one" || bs[2].Name() != "c.three" {
		t.Errorf("order = %v, %v, %v", bs[0].Name(), bs[1].Name(), bs[2].Name())
	}
	if _, ok := s.Lookup("b.two"); !ok {
		t.Error("Lookup(b.two) failed")
	}
	if _, ok := s.Lookup("zzz"); ok {
		t.Error("Lookup(zzz) should fail")
	}
}

func TestSuiteRejectsDuplicates(t *testing.T) {
	if _, err := NewSuite(newFake("dup"), newFake("dup")); err == nil {
		t.Error("duplicate benchmark names should be rejected")
	}
}

func TestChecksumDeterminism(t *testing.T) {
	a := NewChecksum().AddString("hello").AddUint64(42).AddFloat(3.14)
	b := NewChecksum().AddString("hello").AddUint64(42).AddFloat(3.14)
	if a != b {
		t.Errorf("checksums differ: %x vs %x", a, b)
	}
}

func TestChecksumSensitivity(t *testing.T) {
	base := NewChecksum().AddString("hello").Value()
	if NewChecksum().AddString("hellp").Value() == base {
		t.Error("checksum should change with content")
	}
	if NewChecksum().AddBytes([]byte("hello")).Value() != base {
		t.Error("AddBytes and AddString of the same content should agree")
	}
}

func TestChecksumOrderSensitivity(t *testing.T) {
	f := func(a, b uint64) bool {
		if a == b {
			return true
		}
		x := NewChecksum().AddUint64(a).AddUint64(b)
		y := NewChecksum().AddUint64(b).AddUint64(a)
		return x != y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMetaImplementsWorkload(t *testing.T) {
	var w Workload = Meta{Name: "n", Kind: KindTrain}
	if w.WorkloadName() != "n" || w.WorkloadKind() != KindTrain {
		t.Error("Meta does not round-trip its fields")
	}
}

func TestGeneratedNameRoundTrip(t *testing.T) {
	cases := []struct {
		seed  int64
		index int
	}{
		{0, 0}, {42, 7}, {MaxGeneratedSeed, MaxGeneratedIndex},
	}
	for _, c := range cases {
		name := GeneratedName(c.seed, c.index)
		seed, index, ok := ParseGeneratedName(name)
		if !ok || seed != c.seed || index != c.index {
			t.Errorf("ParseGeneratedName(%q) = (%d, %d, %v), want (%d, %d, true)",
				name, seed, index, ok, c.seed, c.index)
		}
	}
}

func TestParseGeneratedNameRejects(t *testing.T) {
	bad := []string{
		"",                           // empty
		"refrate",                    // inventory name
		"alberta.1",                  // inventory name
		"gen.0",                      // pre-contract form, no seed
		"gen.s",                      // no digits
		"gen.s5",                     // no index
		"gen.s5.",                    // empty index
		"gen.s.3",                    // empty seed
		"gen.s01.2",                  // alias: leading zero would not re-render
		"gen.s5.03",                  // alias in index
		"gen.s5.-1",                  // negative index
		"gen.s5.3.1",                 // seed "5.3" has a dot but fails ParseInt
		"gen.s5.3 ",                  // trailing junk
		"Gen.s5.3",                   // case matters
		"gen.s-7.1",                  // negative seed: outside the generated domain
		"gen.s4294967296.0",          // seed = MaxGeneratedSeed + 1
		"gen.s5.2147483648",          // index = MaxGeneratedIndex + 1
		"gen.s9223372036854775805.5", // seed far outside the domain
	}
	for _, name := range bad {
		if _, _, ok := ParseGeneratedName(name); ok {
			t.Errorf("ParseGeneratedName(%q) accepted, want rejection", name)
		}
	}
}

func TestResolveWorkloadInventoryAndErrors(t *testing.T) {
	b := newFake("600.fake_s")
	w, err := ResolveWorkload(b, "alberta.2")
	if err != nil || w.WorkloadName() != "alberta.2" {
		t.Fatalf("ResolveWorkload(alberta.2) = %v, %v", w, err)
	}
	if _, err := ResolveWorkload(b, "gen.s5.0"); err == nil {
		t.Error("generated name resolved on a non-generator benchmark")
	}
	if _, err := ResolveWorkload(b, "nope"); err == nil {
		t.Error("unknown name resolved")
	}
}

// TestResolveWorkloadIsOneGeneration pins O(1) resolution: a generated
// name, however large its index, is resolved by exactly one
// GenerateWorkload call with the recorded seed and index, and the
// inventory is never built.
func TestResolveWorkloadIsOneGeneration(t *testing.T) {
	g := &countingGen{fakeBench: newFake("600.fake_s")}
	w, err := ResolveWorkload(g, "gen.s5.1000000")
	if err != nil {
		t.Fatal(err)
	}
	if w.WorkloadName() != "gen.s5.1000000" {
		t.Errorf("resolved %q", w.WorkloadName())
	}
	if g.inventories != 0 {
		t.Errorf("Workloads() called %d times, want 0", g.inventories)
	}
	if len(g.calls) != 1 || g.calls[0] != [2]int64{5, 1000000} {
		t.Errorf("GenerateWorkload calls = %v, want [[5 1000000]]", g.calls)
	}
	// Out-of-domain names are rejected before any generator runs.
	if _, err := ResolveWorkload(g, "gen.s-7.1"); !errors.Is(err, ErrNoWorkload) {
		t.Errorf("gen.s-7.1: err = %v, want ErrNoWorkload", err)
	}
	if len(g.calls) != 1 {
		t.Errorf("out-of-domain name reached the generator: %v", g.calls)
	}
}

func TestGenerateWorkloadsDomain(t *testing.T) {
	g := &countingGen{fakeBench: newFake("600.fake_s")}
	ws, err := GenerateWorkloads(g, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range ws {
		if w.WorkloadName() != GeneratedName(3, i) {
			t.Errorf("workload %d named %q", i, w.WorkloadName())
		}
	}
	for _, c := range []struct {
		seed int64
		n    int
	}{{3, 0}, {3, -1}, {-7, 1}, {MaxGeneratedSeed + 1, 1}} {
		if _, err := GenerateWorkloads(g, c.seed, c.n); err == nil {
			t.Errorf("GenerateWorkloads(seed %d, n %d) accepted", c.seed, c.n)
		}
	}
	if len(g.calls) != 4 {
		t.Errorf("rejected requests reached the generator: %d calls, want 4", len(g.calls))
	}
}
