package perlbench

import (
	"errors"
	"os"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/perf"
)

// treeRun executes src through the retained tree-walker with corpus bound,
// returning output, steps and error plus the profiler report.
func treeRun(t *testing.T, src string, corpus []string, limit uint64) (string, uint64, error, perf.Report) {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p := perf.New()
	i := NewInterp(p)
	if limit > 0 {
		i.limit = limit
	}
	for _, line := range corpus {
		i.arrays["input"] = append(i.arrays["input"], StrValue(line))
	}
	runErr := i.Run(prog)
	rep := p.Report()
	rep.WallTime = 0
	return i.Output(), i.Steps(), runErr, rep
}

// bcRun executes src through the bytecode VM. Fails the test if the script
// does not compile (callers that want fallback behavior use Prepare).
func bcRun(t *testing.T, src string, corpus []string, limit uint64) (string, uint64, error, perf.Report) {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	bc, err := compileProgram(prog)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if limit == 0 {
		limit = interpStepLimit
	}
	p := perf.New()
	p.SetFootprint("pp_eval", 6<<10)
	p.SetFootprint("regex_match", 4<<10)
	p.SetFootprint("hash_ops", 3<<10)
	sc := newScratch(bc)
	for _, line := range corpus {
		sc.arrays[bc.inputSlot] = append(sc.arrays[bc.inputSlot], StrValue(line))
	}
	steps, runErr := bc.run(sc, p, limit)
	rep := p.Report()
	rep.WallTime = 0
	return sc.out.String(), steps, runErr, rep
}

// assertSameRun requires the two paths to agree on output, steps, error
// text and the full profiler report — the bit-identity argument for the
// compiled path.
func assertSameRun(t *testing.T, src string, corpus []string, limit uint64) {
	t.Helper()
	tOut, tSteps, tErr, tRep := treeRun(t, src, corpus, limit)
	bOut, bSteps, bErr, bRep := bcRun(t, src, corpus, limit)
	if tOut != bOut {
		t.Errorf("output diverges\ntree: %q\nbc:   %q", tOut, bOut)
	}
	if tSteps != bSteps {
		t.Errorf("steps diverge: tree %d, bc %d", tSteps, bSteps)
	}
	if (tErr == nil) != (bErr == nil) {
		t.Errorf("error diverges: tree %v, bc %v", tErr, bErr)
	} else if tErr != nil && tErr.Error() != bErr.Error() {
		t.Errorf("error text diverges: tree %q, bc %q", tErr, bErr)
	}
	if !reflect.DeepEqual(tRep, bRep) {
		t.Errorf("profiler report diverges\ntree: %+v\nbc:   %+v", tRep, bRep)
	}
}

// TestBytecodeMatchesTreeWalk sweeps every perlbench workload through both
// engines and requires bit-identical output, steps and profiler reports.
// The refrate workload joins under ALBERTA_DIFF_FULL=1 (the tree-walk side
// is the slow one).
func TestBytecodeMatchesTreeWalk(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep skipped in -short mode")
	}
	full := os.Getenv("ALBERTA_DIFF_FULL") == "1"
	b := New()
	ws, err := b.Workloads()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		pw := w.(Workload)
		if !full && pw.WorkloadKind() == core.KindRefrate {
			continue
		}
		t.Run(pw.Name, func(t *testing.T) {
			assertSameRun(t, pw.Script, pw.Corpus, 0)
		})
	}
}

// TestBytecodeMatchesTreeWalkScripts pins the tricky semantic corners on
// both paths: eager logical operators, hash-key expressions, interpolation,
// regex events, nested control flow, and the error-unwind event stream.
func TestBytecodeMatchesTreeWalkScripts(t *testing.T) {
	scripts := []string{
		// Eager Perl logicals.
		"$a = \"\" || \"fallback\";\n$b = \"x\" || \"ignored\";\n$c = \"x\" && \"kept\";\n$d = \"\" && \"never\";\nprint $a . \",\" . $b . \",\" . $c . \",\" . $d . \".\";\n",
		// Hash events inside expressions and key expressions.
		"$i = 3;\n$h{\"k\" . $i} = 42;\nprint $h{\"k3\"} . $h{\"k\" . (2 + 1)} . exists($h{\"k3\"}) . exists($h{\"zz\"});\n",
		// Regex branch cadence over longer subjects, anchored and not.
		"$s = \"the quick brown fox jumps over the lazy dog again and again\";\nif ($s =~ /qu.ck/) {\n  print \"m1\";\n}\nif ($s =~ /^the/) {\n  print \"m2\";\n}\nif ($s !~ /zebra+/) {\n  print \"m3\";\n}\n",
		// Constant folding must not change events or values.
		"$x = 2 + 3 * 4 - 1;\n$y = \"a\" . \"b\" . \"c\";\n$z = length(\"hello\") + index(\"hello\", \"llo\");\nprint $x . $y . $z . uc(\"q\") . substr(\"abcdef\", 1, 3) . int(7.9) . (10 % 3) . (9 / 2);\n",
		// Nested loops, foreach over array and keys, interpolation.
		"push @a, \"x\";\npush @a, \"y\";\nforeach $v (@a) {\n  $h{$v} = length($v);\n}\nforeach $k (keys %h) {\n  $t = \"$k=\" . $h{$k};\n  print $t . \";\";\n}\n$i = 0;\nwhile ($i < 3) {\n  $i = $i + 1;\n  if ($i == 2) {\n    print \"two\";\n  } else {\n    print $i;\n  }\n}\n",
		// Division by zero mid-script: error unwind event parity.
		"$x = 1;\nif ($x) {\n  $y = 1 / 0;\n}\nprint \"unreached\";\n",
		// Modulo by zero inside a while body.
		"$i = 0;\nwhile ($i < 2) {\n  $i = $i + 1;\n  $z = 5 % ($i - 1);\n}\n",
		// Arity error raised after args are evaluated (hash events first).
		"$h{\"k\"} = 1;\n$x = substr($h{\"k\"}, 0);\n",
		// Statically-broken statements in untaken branches must not fire.
		"if (0) {\n  $x = index(1);\n}\nif (0) {\n  foreach $v (bogus) {\n    $q = 1;\n  }\n}\nprint \"ok\";\n",
		// Negative/unary and numeric-string comparisons.
		"$x = -(2 + 3) * 2;\n$y = !(1 > 2);\nif (\"10\" == 10) {\n  print \"N\";\n}\nif (\"10\" lt \"9\") {\n  print \"S\";\n}\nprint $x . \"/\" . $y;\n",
	}
	for i, src := range scripts {
		assertSameRun(t, src, nil, 0)
		_ = i
	}
}

// TestBytecodeErrorLimitsMatchTree pins the step-limit and runaway-while
// bounds, including the unwind event stream, on a small custom limit.
func TestBytecodeErrorLimitsMatchTree(t *testing.T) {
	// Step limit trips mid-loop.
	assertSameRun(t, "$i = 0;\nwhile ($i < 100000) {\n  $i = $i + 1;\n}\n", nil, 50)
	// Runaway while: condition never falsifies.
	assertSameRun(t, "while (1) {\n  $x = 1;\n}\n", nil, 200)
}

// TestPrepareCompilesShippedScript proves the shipped workload script takes
// the bytecode path, not the fallback.
func TestPrepareCompilesShippedScript(t *testing.T) {
	b := New()
	w, err := core.FindWorkload(b, "test")
	if err != nil {
		t.Fatal(err)
	}
	pwp, err := b.Prepare(w)
	if err != nil {
		t.Fatal(err)
	}
	ps := pwp.(*prepared)
	if ps.bc == nil {
		t.Fatal("shipped script fell back to the tree-walker")
	}
	if ps.bc.inputSlot < 0 || ps.bc.arrayNames[ps.bc.inputSlot] != "input" {
		t.Errorf("input slot not interned: %v", ps.bc.arrayNames)
	}
}

// TestPrepareFallsBackOnLazyParseHazard: the tree-walker parses expression
// strings only when executed, so a script with a malformed expression in a
// never-taken branch must still run. The compiler cannot represent it, so
// Prepare must fall back — and the run must succeed.
func TestPrepareFallsBackOnLazyParseHazard(t *testing.T) {
	b := New()
	w := Workload{
		Meta:   core.Meta{Name: "hazard", Kind: core.KindTest},
		Script: "if (0) {\n  $x = frob(1);\n}\nprint \"ok\";\n",
	}
	pwp, err := b.Prepare(w)
	if err != nil {
		t.Fatal(err)
	}
	ps := pwp.(*prepared)
	if ps.bc != nil {
		t.Fatal("expected tree-walk fallback for uncompilable expression")
	}
	res, err := pwp.Execute(nil)
	if err != nil {
		t.Fatalf("fallback execute: %v", err)
	}
	if res.Checksum == 0 {
		t.Error("zero checksum from fallback path")
	}
}

// TestPreparedScratchReuse runs the same prepared workload repeatedly and
// requires bit-identical results and reports — the scratch-reset contract.
func TestPreparedScratchReuse(t *testing.T) {
	b := New()
	w, err := core.FindWorkload(b, "test")
	if err != nil {
		t.Fatal(err)
	}
	pwp, err := b.Prepare(w)
	if err != nil {
		t.Fatal(err)
	}
	var first core.Result
	var firstRep perf.Report
	for rep := 0; rep < 4; rep++ {
		p := perf.New()
		res, err := pwp.Execute(p)
		if err != nil {
			t.Fatal(err)
		}
		r := p.Report()
		r.WallTime = 0
		r.Methods = append([]perf.MethodProfile(nil), r.Methods...)
		if rep == 0 {
			first, firstRep = res, r
			continue
		}
		if res.Checksum != first.Checksum {
			t.Errorf("rep %d checksum %x != first %x", rep, res.Checksum, first.Checksum)
		}
		if !reflect.DeepEqual(r, firstRep) {
			t.Errorf("rep %d report diverges from first", rep)
		}
	}
}

// TestRuntimeErrorsBytecode mirrors TestRuntimeErrors on the compiled path.
func TestRuntimeErrorsBytecode(t *testing.T) {
	for _, src := range []string{
		"$x = 1 / 0;",
		"$x = 1 % 0;",
	} {
		prog, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		bc, err := compileProgram(prog)
		if err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
		sc := newScratch(bc)
		if _, err := bc.run(sc, nil, interpStepLimit); !errors.Is(err, ErrScript) {
			t.Errorf("%q err = %v, want ErrScript", src, err)
		}
	}
}

// TestValueNumCacheInvariant: a cached numeric form must equal what the
// prefix parser would compute from the string form — the invariant that
// makes cached and uncached Values indistinguishable.
func TestValueNumCacheInvariant(t *testing.T) {
	for _, f := range []float64{0, 1, -1, 42, -7.5, 3.14159, 1e17, 1.0000005e+06, 0.001, -1e-9, 123456789012345} {
		v := NumValue(f)
		if got, want := v.Num(), numPrefix(v.Str()); got != want {
			t.Errorf("NumValue(%v): cached %v, parsed %v (s=%q)", f, got, want, v.Str())
		}
	}
}
