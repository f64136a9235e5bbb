package cc

import (
	"reflect"
	"testing"

	"repro/internal/perf"
)

const scratchTestSrc = `
int g = 3;
int acc = 0;
int arr[16];
int weigh(int x) { return x * g + 1; }
int main() {
  for (int i = 0; i < 12; i++) {
    arr[i % 16] = weigh(i) % 251;
    if (arr[i % 16] % 2 == 0) { acc += arr[i % 16]; } else { acc -= 1; }
  }
  print(acc);
  return acc % 97;
}
`

// TestScratchReuseBitIdentical runs one unit repeatedly on a single Scratch
// and requires every run — result, steps, and the full modeled event
// stream — to match a fresh-buffer run exactly. This is the scratch-reset
// contract the gcc benchmark's prepared workloads rely on.
func TestScratchReuseBitIdentical(t *testing.T) {
	unit, err := CompileSource(scratchTestSrc, O2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	run := func(sc *Scratch) (RunResult, perf.Report) {
		p := perf.New()
		res, err := Run(unit, VMOptions{Prof: p, Scratch: sc})
		if err != nil {
			t.Fatal(err)
		}
		rep := p.Report()
		rep.WallTime = 0
		rep.Methods = append([]perf.MethodProfile(nil), rep.Methods...)
		return res, rep
	}
	wantRes, wantRep := run(nil)
	sc := &Scratch{}
	for i := 0; i < 4; i++ {
		res, rep := run(sc)
		if res != wantRes {
			t.Errorf("run %d with scratch: result %+v, want %+v", i, res, wantRes)
		}
		if !reflect.DeepEqual(rep, wantRep) {
			t.Errorf("run %d with scratch: report diverges from fresh run", i)
		}
	}
}

// TestScratchGlobalsOverrideIsolated ensures a global override in one run
// does not leak into the next run on the same scratch.
func TestScratchGlobalsOverrideIsolated(t *testing.T) {
	unit, err := CompileSource(`int n = 2; int main() { return n * 10; }`, O0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sc := &Scratch{}
	res, err := Run(unit, VMOptions{Globals: map[string]int64{"n": 7}, Scratch: sc})
	if err != nil || res.Return != 70 {
		t.Fatalf("override run: %v, %v", res.Return, err)
	}
	res, err = Run(unit, VMOptions{Scratch: sc})
	if err != nil || res.Return != 20 {
		t.Fatalf("follow-up run saw stale global: %v, %v", res.Return, err)
	}
}

// TestFoldShortCircuitConstants pins the logical-operator folds: a constant
// left operand decides the expression through the short-circuit rules, and
// only then — a constant RIGHT operand must never drop the left side.
func TestFoldShortCircuitConstants(t *testing.T) {
	call := func() Expr { return &CallExpr{Name: "f"} }
	num := func(v int64) Expr { return &NumExpr{V: v} }
	isConst := func(e Expr, want int64) bool {
		n, ok := e.(*NumExpr)
		return ok && n.V == want
	}

	// 0 && f() → 0 and 1 || f() → 1 even though f has side effects: the
	// right side never evaluates at run time either.
	if e := foldExpr(&BinaryExpr{Op: "&&", L: num(0), R: call()}); !isConst(e, 0) {
		t.Errorf("0 && f() folded to %#v, want 0", e)
	}
	if e := foldExpr(&BinaryExpr{Op: "||", L: num(1), R: call()}); !isConst(e, 1) {
		t.Errorf("1 || f() folded to %#v, want 1", e)
	}
	// Both-const logicals normalize to 0/1.
	if e := foldExpr(&BinaryExpr{Op: "&&", L: num(5), R: num(-2)}); !isConst(e, 1) {
		t.Errorf("5 && -2 folded to %#v, want 1", e)
	}
	if e := foldExpr(&BinaryExpr{Op: "||", L: num(0), R: num(0)}); !isConst(e, 0) {
		t.Errorf("0 || 0 folded to %#v, want 0", e)
	}
	// A truthy left of && (or falsy left of ||) decides nothing: the right
	// side is the value and must survive.
	if e := foldExpr(&BinaryExpr{Op: "&&", L: num(1), R: call()}); isConst(e, 0) || isConst(e, 1) {
		t.Errorf("1 && f() must not fold, got %#v", e)
	}
	// A constant right operand must never drop a side-effecting left.
	if e := foldExpr(&BinaryExpr{Op: "&&", L: call(), R: num(0)}); isConst(e, 0) {
		t.Errorf("f() && 0 must not fold, got %#v", e)
	}
	// x * 0 → 0 only for side-effect-free x.
	if e := foldExpr(&BinaryExpr{Op: "*", L: &VarExpr{Name: "x"}, R: num(0)}); !isConst(e, 0) {
		t.Errorf("x * 0 folded to %#v, want 0", e)
	}
	if e := foldExpr(&BinaryExpr{Op: "*", L: num(0), R: &VarExpr{Name: "x"}}); !isConst(e, 0) {
		t.Errorf("0 * x folded to %#v, want 0", e)
	}
	if e := foldExpr(&BinaryExpr{Op: "*", L: call(), R: num(0)}); isConst(e, 0) {
		t.Errorf("f() * 0 must not fold, got %#v", e)
	}
}

// TestShortCircuitFoldsPreserveSemantics runs a side-effect-laden program
// at every level and requires identical results — the end-to-end guard for
// the new folds.
func TestShortCircuitFoldsPreserveSemantics(t *testing.T) {
	src := `
int g = 0;
int bump() { g = g + 1; return 3; }
int main() {
  int a = 0 && bump();
  int b = 1 || bump();
  int c = bump() && 1;
  int d = bump() * 0;
  int e = 7 && 0 || 2;
  return g * 1000 + a * 100 + b * 10 + c + d + e;
}
`
	var want int64
	for i, level := range []OptLevel{O0, O1, O2, O3} {
		res := mustRun(t, src, level)
		if i == 0 {
			want = res.Return
			continue
		}
		if res.Return != want {
			t.Errorf("%v: return = %d, want %d", level, res.Return, want)
		}
	}
}

// BenchmarkVMRun measures the uninstrumented dispatch loop on a
// call-and-loop-heavy unit, with and without a recycled scratch.
func BenchmarkVMRun(b *testing.B) {
	unit, err := CompileSource(`
int fib(int n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
int arr[64];
int main() {
  int s = 0;
  for (int i = 0; i < 40; i++) {
    arr[i % 64] = fib(14) + i;
    s += arr[i % 64] % 1009;
  }
  return s;
}
`, O2, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Run(unit, VMOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scratch", func(b *testing.B) {
		b.ReportAllocs()
		sc := &Scratch{}
		for i := 0; i < b.N; i++ {
			if _, err := Run(unit, VMOptions{Scratch: sc}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
