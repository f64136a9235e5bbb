package perlbench

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/perf"
)

// Workload is one 500.perlbench_r input: a script plus a generated input
// corpus bound to the @input array before execution.
type Workload struct {
	core.Meta
	Script string
	// Corpus is bound to @input (the stand-in for the benchmark's input
	// files).
	Corpus []string
}

// Benchmark is the 500.perlbench_r reproduction. NOTE: faithful to the
// paper, it provides NO Alberta workloads — every real Perl application the
// Alberta team evaluated (Perl Defence Blaster, Perl Racer, BioPerl,
// Catalyst, Dancer) requires C-extension modules that the stripped-down
// interpreter cannot load. It also does not implement core.Generator.
type Benchmark struct{}

// New returns the benchmark.
func New() *Benchmark { return &Benchmark{} }

// Name implements core.Benchmark.
func (*Benchmark) Name() string { return "500.perlbench_r" }

// Area implements core.Benchmark.
func (*Benchmark) Area() string { return "Perl interpreter" }

// wordFreqScript is the SPEC-style workload: a word-frequency and pattern
// scanner over the corpus.
const wordFreqScript = `
foreach $line (@input) {
  $i = 0;
  $word = "";
  while ($i <= length($line)) {
    $ch = substr($line, $i, 1);
    if ($ch =~ /[a-z]/) {
      $word = $word . $ch;
    } else {
      if (length($word) > 0) {
        $count{$word} = $count{$word} + 1;
        $total = $total + 1;
      }
      $word = "";
    }
    $i = $i + 1;
  }
}
$long = 0;
$vowelish = 0;
foreach $w (keys %count) {
  if (length($w) > 6) {
    $long = $long + 1;
  }
  if ($w =~ /^[aeiou]/) {
    $vowelish = $vowelish + $count{$w};
  }
}
print "total=" . $total . " distinct=" . scalar(@input) . " long=" . $long . " vowelish=" . $vowelish . "\n";
`

// genCorpus builds deterministic pseudo-text lines.
func genCorpus(lines int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	words := []string{
		"interpreter", "scalar", "workload", "alberta", "pattern", "regex",
		"hash", "array", "bench", "perl", "string", "number", "context",
		"aeiou", "onomatopoeia", "iteration", "execution",
	}
	out := make([]string, lines)
	for i := range out {
		var sb strings.Builder
		n := 4 + rng.Intn(10)
		for j := 0; j < n; j++ {
			sb.WriteString(words[rng.Intn(len(words))])
			sb.WriteByte(' ')
		}
		out[i] = sb.String()
	}
	return out
}

// Workloads returns only SPEC-style inputs (see the Benchmark doc comment
// for why there are no Alberta workloads).
func (b *Benchmark) Workloads() ([]core.Workload, error) {
	mk := func(name string, kind core.Kind, lines int, seed int64) core.Workload {
		return Workload{
			Meta:   core.Meta{Name: name, Kind: kind},
			Script: wordFreqScript,
			Corpus: genCorpus(lines, seed),
		}
	}
	return []core.Workload{
		mk("test", core.KindTest, 20, 1),
		mk("train", core.KindTrain, 150, 2),
		mk("refrate", core.KindRefrate, 600, 3),
	}, nil
}

// Run implements core.Benchmark.
func (b *Benchmark) Run(w core.Workload, p *perf.Profiler) (core.Result, error) {
	pw, err := b.Prepare(w)
	if err != nil {
		return core.Result{}, err
	}
	return pw.Execute(p)
}

// prepared holds the compiled program plus its recycled run scratch. The
// script is bytecode-compiled once at Prepare; Execute is the flat VM
// dispatch loop in bytecode.go. The compiler accepts every script Parse
// accepts, so this is the only execution path.
type prepared struct {
	b      *Benchmark
	pw     Workload
	bc     *program
	sc     *bcScratch
	corpus []Value
}

// Prepare implements core.Preparer: parse and compile the script once,
// uninstrumented.
func (b *Benchmark) Prepare(w core.Workload) (core.PreparedWorkload, error) {
	pw, ok := w.(Workload)
	if !ok {
		return nil, fmt.Errorf("%w: %T", core.ErrUnknownWorkload, w)
	}
	prog, err := Parse(pw.Script)
	if err != nil {
		return nil, fmt.Errorf("perlbench: %s: %w", pw.Name, err)
	}
	bc := compileProgram(prog)
	ps := &prepared{
		b: b, pw: pw, bc: bc,
		sc:     newScratch(bc),
		corpus: make([]Value, len(pw.Corpus)),
	}
	for i, line := range pw.Corpus {
		ps.corpus[i] = StrValue(line)
	}
	return ps, nil
}

// Execute implements core.PreparedWorkload: run the compiled program over
// the corpus, resetting the scratch in place.
func (ps *prepared) Execute(p *perf.Profiler) (core.Result, error) {
	b, pw := ps.b, ps.pw
	declareFootprints(p)
	sc := ps.sc
	sc.reset()
	sc.arrays[ps.bc.inputSlot] = append(sc.arrays[ps.bc.inputSlot][:0], ps.corpus...)
	steps, err := ps.bc.run(sc, p, interpStepLimit)
	if err != nil {
		return core.Result{}, fmt.Errorf("perlbench: %s: %w", pw.Name, err)
	}
	out := sc.out.String()
	if out == "" {
		return core.Result{}, fmt.Errorf("perlbench: %s: script produced no output", pw.Name)
	}
	sum := core.NewChecksum().AddString(out).AddUint64(steps)
	return core.Result{
		Benchmark: b.Name(),
		Workload:  pw.Name,
		Kind:      pw.WorkloadKind(),
		Checksum:  sum.Value(),
	}, nil
}
