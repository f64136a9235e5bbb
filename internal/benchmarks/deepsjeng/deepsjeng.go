package deepsjeng

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/perf"
)

// Position is one analysis task: a FEN position and its ply depth, matching
// the paper's workload format ("a chess position in FEN ... and the depth
// to which this position should be analyzed").
type Position struct {
	FEN   string
	Depth int
}

// Workload is a set of positions, as produced by the Alberta workload
// script (eight positions per workload in the paper's nine workloads).
type Workload struct {
	core.Meta
	Positions []Position
}

// GeneratePositions plays deterministic weak-engine games from the start
// position and records middlegame positions. It substitutes for the Arasan
// test-suite file the paper's script reads.
func GeneratePositions(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	var out []string
	for len(out) < n {
		b := StartPosition()
		plies := 8 + rng.Intn(30)
		ok := true
		for i := 0; i < plies; i++ {
			moves := b.LegalMoves()
			if len(moves) == 0 {
				ok = false
				break
			}
			// Prefer captures occasionally to create sharp positions.
			var m Move
			if rng.Intn(3) == 0 {
				captures := moves[:0:0]
				for _, c := range moves {
					if b.Squares[c.To] != Empty {
						captures = append(captures, c)
					}
				}
				if len(captures) > 0 {
					m = captures[rng.Intn(len(captures))]
				} else {
					m = moves[rng.Intn(len(moves))]
				}
			} else {
				m = moves[rng.Intn(len(moves))]
			}
			b.MakeMove(m)
		}
		if ok && len(b.LegalMoves()) > 0 {
			out = append(out, b.FEN())
		}
	}
	return out
}

// Benchmark is the 531.deepsjeng_r reproduction.
type Benchmark struct{}

// New returns the benchmark.
func New() *Benchmark { return &Benchmark{} }

// Name implements core.Benchmark.
func (*Benchmark) Name() string { return "531.deepsjeng_r" }

// Area implements core.Benchmark.
func (*Benchmark) Area() string { return "AI: alpha-beta tree search" }

// suitePositions is the shared position pool (the stand-in for Arasan's 946
// test positions); generated once, deterministically.
var suitePositions = GeneratePositions(977, 96)

// workloadFromPool builds a workload of n positions drawn from the pool
// with depths in [minDepth, maxDepth], mirroring the Alberta script's
// parameters (positions per workload, ply-depth range).
func workloadFromPool(name string, kind core.Kind, seed int64, n, minDepth, maxDepth int) Workload {
	rng := rand.New(rand.NewSource(seed))
	w := Workload{Meta: core.Meta{Name: name, Kind: kind}}
	for i := 0; i < n; i++ {
		w.Positions = append(w.Positions, Position{
			FEN:   suitePositions[rng.Intn(len(suitePositions))],
			Depth: minDepth + rng.Intn(maxDepth-minDepth+1),
		})
	}
	return w
}

// Workloads returns SPEC-style inputs plus nine Alberta workloads of eight
// positions each (the paper's counts; ply depths are scaled down from 11-16
// to 3-5 so the modeled engine finishes in reasonable wall time).
func (b *Benchmark) Workloads() ([]core.Workload, error) {
	ws := []core.Workload{
		workloadFromPool("test", core.KindTest, 1, 2, 2, 2),
		workloadFromPool("train", core.KindTrain, 2, 4, 3, 4),
		workloadFromPool("refrate", core.KindRefrate, 3, 6, 4, 5),
	}
	for i := 0; i < 9; i++ {
		ws = append(ws, workloadFromPool(
			fmt.Sprintf("alberta.%d", i+1), core.KindAlberta,
			100+int64(i), 8, 3, 5))
	}
	return ws, nil
}

// GenerateWorkload implements core.Generator.
func (b *Benchmark) GenerateWorkload(seed int64, i int) (core.Workload, error) {
	return workloadFromPool(
		core.GeneratedName(seed, i), core.KindAlberta, seed+int64(i), 8, 3, 5), nil
}

// prepared is the workload's parsed positions (immutable after Prepare)
// plus the reusable search scratch: one board copy target and one searcher
// whose transposition table is cleared in place between positions and
// between Execute calls.
type prepared struct {
	b      *Benchmark
	w      Workload
	boards []Board // parsed FENs; immutable
	// scratch
	board    Board
	searcher *Searcher
}

// Prepare implements core.Benchmark: parse every FEN once, uninstrumented.
func (b *Benchmark) Prepare(w core.Workload) (core.PreparedWorkload, error) {
	dw, ok := w.(Workload)
	if !ok {
		return nil, fmt.Errorf("%w: %T", core.ErrUnknownWorkload, w)
	}
	pw := &prepared{b: b, w: dw, boards: make([]Board, 0, len(dw.Positions))}
	for i, pos := range dw.Positions {
		board, err := ParseFEN(pos.FEN)
		if err != nil {
			return nil, fmt.Errorf("deepsjeng: %s position %d: %w", dw.Name, i, err)
		}
		pw.boards = append(pw.boards, *board)
	}
	return pw, nil
}

// Execute implements core.PreparedWorkload: analyze every prepared position,
// copying it into the scratch board (the search mutates its board in place)
// and recycling one searcher across positions and repetitions.
func (pw *prepared) Execute(p *perf.Profiler) (core.Result, error) {
	sum := core.NewChecksum()
	for i, pos := range pw.w.Positions {
		pw.board = pw.boards[i]
		if pw.searcher == nil {
			pw.searcher = NewSearcher(&pw.board, 18, p)
		} else {
			pw.searcher.Reset(&pw.board, p)
		}
		res := pw.searcher.Analyze(pos.Depth)
		sum = sum.AddUint64(res.Nodes).
			AddUint64(uint64(int64(res.Score))).
			AddUint64(uint64(res.BestMove.From)<<8 | uint64(res.BestMove.To))
	}
	return core.Result{
		Benchmark: pw.b.Name(),
		Workload:  pw.w.Name,
		Kind:      pw.w.WorkloadKind(),
		Checksum:  sum.Value(),
	}, nil
}
