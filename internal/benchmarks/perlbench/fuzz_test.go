package perlbench

import (
	"math/rand"
	"strings"
	"testing"
)

// TestScriptSoupNeverPanics runs random statement soup through parse and
// bounded execution on both engines, requiring the compiled program to
// match the oracle's output, steps and error text.
func TestScriptSoupNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	lines := []string{
		`$x = 1;`, `$x = $x + "a";`, `print $x;`, `if ($x) {`, `} else {`, `}`,
		`while ($x < 3) {`, `push @a, $x;`, `foreach $v (@a) {`,
		`$h{$v} = $v;`, `$y = $x =~ /a*b/;`, `$z = length($x);`, `garbage`,
	}
	for trial := 0; trial < 1500; trial++ {
		src := ""
		for k := 0; k < rng.Intn(10); k++ {
			src += lines[rng.Intn(len(lines))] + "\n"
		}
		prog, err := Parse(src)
		if err != nil {
			continue
		}
		// 20 000 steps bounds runaway loops from random composition.
		assertSameResult(t, src, prog, 20000)
	}
}

// assertSameResult runs a parsed script on the oracle and on the VM, both
// unprofiled under the same step limit, and requires identical output,
// steps and error text.
func assertSameResult(t *testing.T, src string, prog []stmt, limit uint64) {
	t.Helper()
	ti := NewInterp(nil)
	ti.limit = limit
	treeErr := ti.Run(prog)

	bc := compileProgram(prog)
	sc := newScratch(bc)
	steps, bcErr := bc.run(sc, nil, limit)

	if (treeErr == nil) != (bcErr == nil) {
		t.Fatalf("error divergence on %q: tree %v, bc %v", src, treeErr, bcErr)
	}
	if treeErr != nil && treeErr.Error() != bcErr.Error() {
		t.Fatalf("error text divergence on %q: tree %q, bc %q", src, treeErr, bcErr)
	}
	if ti.Output() != sc.out.String() {
		t.Fatalf("output divergence on %q: tree %q, bc %q", src, ti.Output(), sc.out.String())
	}
	if ti.Steps() != steps {
		t.Fatalf("steps divergence on %q: tree %d, bc %d", src, ti.Steps(), steps)
	}
}

// FuzzExprDifferential feeds one expression through both engines — the
// tree-walking oracle and the bytecode compiler+VM — inside a fixed
// preamble that populates scalars, an array and a hash, and requires
// identical output, step counts and error text. Every expression compiles,
// so malformed ones are compared too: the compiled fault must raise the
// oracle's error after the same side effects.
func FuzzExprDifferential(f *testing.F) {
	for _, expr := range []string{
		`1 + 2 * 3`,
		`$x + $y . "tail"`,
		`"$s-$x" . length($s)`,
		`$h{"k"} + $h{"k" . $x}`,
		`$s =~ /ab*c/ || $x > 1`,
		`($x || $y) && !($x eq "5")`,
		`substr($s, 0, $x) . uc($s) . lc("AB")`,
		`index($s, "b") + int($x / 2) - scalar(@a) * keys(%h)`,
		`exists($h{"k"}) . exists($h{$s})`,
		`$x % 3 + 10 / $x`,
		`1 / 0`,
		`substr($s, 1)`,
		`-$x * -2 . ("a" lt "b")`,
		`$s !~ /^a[b-d]+$/`,
		// Malformed after a side effect or a runtime error.
		`1/0 + )`,
		`$h{"k"} + frob(1)`,
		`substr($s, 1`,
		`"$`,
		`$h{1 % 0`,
		`$s =~ `,
		// A class range ending at byte 0xff.
		"$s =~ /[a-\xff]/",
		"\"\xff\" =~ /^[\x01-\xff]+$/",
	} {
		f.Add(expr)
	}
	f.Fuzz(func(t *testing.T, expr string) {
		if strings.ContainsAny(expr, "\n\r") || len(expr) > 200 {
			t.Skip()
		}
		src := "$x = 5;\n$y = 0;\n$s = \"abc5\";\npush @a, 7;\npush @a, \"q\";\n$h{\"k\"} = 3;\n$r = " + expr + ";\nprint \"r=\" . $r;\n"
		prog, err := Parse(src)
		if err != nil {
			t.Skip()
		}
		assertSameResult(t, src, prog, 100000)
	})
}

// FuzzRegexCompiledDifferential cross-checks the precompiled matcher
// against the tree-walker's string-walking matcher on arbitrary patterns
// and subjects.
func FuzzRegexCompiledDifferential(f *testing.F) {
	for _, seed := range [][2]string{
		{"ab*c", "abbbc"},
		{"^a[b-d]+$", "acdb"},
		{`\w+\s\d`, "word 7"},
		{"[^xyz]*", "abc"},
		{"a$b", "a$b"},
		{"[ab", "x[aby"},
		{"", "anything"},
		{"^$", ""},
		{"a+$", "baaa"},
		{`\$.`, "$x"},
		{"[a-\xff]+", "z\xff"},
		{"[^\x00-\xff]", "abc"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, pat, subj string) {
		// Bound backtracking blowup.
		if len(pat) > 12 || len(subj) > 32 {
			t.Skip()
		}
		i := NewInterp(nil)
		want := i.regexMatch(subj, pat)
		if got := compileRegex(pat).matchProfiled(subj, nil); got != want {
			t.Fatalf("match(%q, %q): tree %v, compiled %v", subj, pat, got, want)
		}
	})
}
