package perlbench

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/perf"
)

// run parses and executes src, returning output.
func run(t *testing.T, src string) string {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	i := NewInterp(nil)
	if err := i.Run(prog); err != nil {
		t.Fatalf("run: %v", err)
	}
	return i.Output()
}

func TestValueDualNature(t *testing.T) {
	if NumValue(42).Str() != "42" {
		t.Error("NumValue formatting")
	}
	if StrValue("3.5abc").Num() != 3.5 {
		t.Errorf("Num(3.5abc) = %v", StrValue("3.5abc").Num())
	}
	if StrValue("abc").Num() != 0 {
		t.Error("non-numeric string should be 0")
	}
	if StrValue("-7").Num() != -7 {
		t.Error("negative parse")
	}
	if StrValue("0").Truthy() || StrValue("").Truthy() {
		t.Error("0 and empty are false")
	}
	if !StrValue("0.0").Truthy() {
		t.Error(`"0.0" is true in Perl`)
	}
}

func TestArithmeticAndStrings(t *testing.T) {
	out := run(t, `
$x = 2 + 3 * 4;
$s = "a" . "b" . $x;
print $s;
`)
	if out != "ab14" {
		t.Errorf("out = %q, want ab14", out)
	}
}

func TestStringInterpolation(t *testing.T) {
	out := run(t, `
$name = "world";
print "hello $name\n";
`)
	if out != "hello world\n" {
		t.Errorf("out = %q", out)
	}
}

func TestControlFlow(t *testing.T) {
	out := run(t, `
$n = 0;
$i = 0;
while ($i < 10) {
  if ($i % 2 == 0) {
    $n = $n + $i;
  } else {
    $n = $n - 1;
  }
  $i = $i + 1;
}
print $n;
`)
	if out != "15" {
		t.Errorf("out = %q, want 15 (0+2+4+6+8 - 5)", out)
	}
}

func TestArraysAndForeach(t *testing.T) {
	out := run(t, `
push @a, 3;
push @a, 5;
push @a, 7;
$sum = 0;
foreach $x (@a) {
  $sum = $sum + $x;
}
print $sum . "/" . scalar(@a);
`)
	if out != "15/3" {
		t.Errorf("out = %q", out)
	}
}

func TestHashes(t *testing.T) {
	out := run(t, `
$h{"one"} = 1;
$h{"two"} = 2;
$h{"one"} = $h{"one"} + 10;
$ks = "";
foreach $k (keys %h) {
  $ks = $ks . $k . "=" . $h{$k} . ";";
}
print $ks . exists($h{"one"}) . exists($h{"three"});
`)
	if out != "one=11;two=2;1" {
		t.Errorf("out = %q", out)
	}
}

func TestStringComparisons(t *testing.T) {
	out := run(t, `
if ("abc" eq "abc") {
  print "E";
}
if ("abc" lt "abd") {
  print "L";
}
if (2 <= 2) {
  print "N";
}
`)
	if out != "ELN" {
		t.Errorf("out = %q", out)
	}
}

func TestBuiltins(t *testing.T) {
	out := run(t, `
$s = "Hello World";
print length($s) . "," . uc(substr($s, 0, 5)) . "," . lc(substr($s, 6, 5)) . "," . index($s, "World") . "," . int(7.9);
`)
	if out != "11,HELLO,world,6,7" {
		t.Errorf("out = %q", out)
	}
}

func TestRegexMatching(t *testing.T) {
	cases := []struct {
		s, re string
		want  bool
	}{
		{"hello", "ell", true},
		{"hello", "^ell", false},
		{"hello", "^hel", true},
		{"hello", "o$", true},
		{"hello", "^h.*o$", true},
		{"hello", "z", false},
		{"abc123", "[0-9]+", true},
		{"abcdef", "[0-9]+", false},
		{"aaa", "^a*$", true},
		{"word space", `\w+\s\w+`, true},
		{"x7", `\d`, true},
		{"cat", "^[^c]", false},
	}
	i := NewInterp(nil)
	for _, tc := range cases {
		if got := i.regexMatch(tc.s, tc.re); got != tc.want {
			t.Errorf("match(%q, %q) = %v, want %v", tc.s, tc.re, got, tc.want)
		}
	}
}

func TestRegexInScript(t *testing.T) {
	out := run(t, `
push @words, "apple";
push @words, "banana";
push @words, "cherry";
$n = 0;
foreach $w (@words) {
  if ($w =~ /^[ab]/) {
    $n = $n + 1;
  }
  if ($w !~ /y$/) {
    $n = $n + 10;
  }
}
print $n;
`)
	if out != "22" {
		t.Errorf("out = %q, want 22", out)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"garbage",
		"if (1) {",  // unterminated block
		"}",         // stray close
		"$x = ;",    // empty expr
		"$x = 1 +;", // trailing op
		"push @a;",  // push without value
	}
	for _, src := range bad {
		prog, err := Parse(src)
		if err == nil {
			if i := NewInterp(nil); i.Run(prog) == nil {
				t.Errorf("script %q should fail", src)
			}
		}
	}
}

func TestRuntimeErrors(t *testing.T) {
	for _, src := range []string{
		"$x = 1 / 0;",
		"$x = 1 % 0;",
	} {
		prog, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := NewInterp(nil).Run(prog); !errors.Is(err, ErrScript) {
			t.Errorf("%q err = %v, want ErrScript", src, err)
		}
	}
}

func TestNoAlbertaWorkloads(t *testing.T) {
	// The paper's key fact about perlbench: all but one benchmark gained
	// Alberta workloads; this is the one.
	b := New()
	ws, err := b.Workloads()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		if w.WorkloadKind() == core.KindAlberta {
			t.Errorf("perlbench must not have Alberta workloads, found %s", w.WorkloadName())
		}
	}
	if _, isGen := interface{}(b).(core.Generator); isGen {
		t.Error("perlbench must not implement core.Generator")
	}
}

func TestBenchmarkRunProfiled(t *testing.T) {
	b := New()
	w, err := core.FindWorkload(b, "test")
	if err != nil {
		t.Fatal(err)
	}
	p := perf.New()
	r, err := core.Run(b, w, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Checksum == 0 {
		t.Error("zero checksum")
	}
	rep := p.Report()
	for _, m := range []string{"pp_eval", "regex_match", "hash_ops"} {
		if rep.Coverage[m] == 0 {
			t.Errorf("method %s missing from coverage", m)
		}
	}
}

func TestWordFreqScriptOutputShape(t *testing.T) {
	b := New()
	w, err := core.FindWorkload(b, "test")
	if err != nil {
		t.Fatal(err)
	}
	pw := w.(Workload)
	prog, err := Parse(pw.Script)
	if err != nil {
		t.Fatal(err)
	}
	i := NewInterp(nil)
	for _, line := range pw.Corpus {
		i.arrays["input"] = append(i.arrays["input"], StrValue(line))
	}
	if err := i.Run(prog); err != nil {
		t.Fatal(err)
	}
	out := i.Output()
	for _, field := range []string{"total=", "long=", "vowelish="} {
		if !strings.Contains(out, field) {
			t.Errorf("output %q missing %s", out, field)
		}
	}
}

func TestBenchmarkRejectsForeignWorkload(t *testing.T) {
	if _, err := New().Prepare(core.Meta{}); !errors.Is(err, core.ErrUnknownWorkload) {
		t.Errorf("err = %v", err)
	}
}
