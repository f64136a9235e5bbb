package leela

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/perf"
)

// Game is a parsed SGF-lite game record.
type Game struct {
	Size  int
	Moves []int // board points; PassMove for passes
	// first player is always Black, alternating thereafter.
}

// FormatSGF renders the game in the SGF subset the package reads.
func (g *Game) FormatSGF() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "(;SZ[%d]", g.Size)
	color := Black
	for _, m := range g.Moves {
		tag := "B"
		if color == White {
			tag = "W"
		}
		fmt.Fprintf(&sb, ";%s[%s]", tag, MoveToSGF(m, g.Size))
		color = color.Opponent()
	}
	sb.WriteString(")")
	return sb.String()
}

// ParseSGF parses the SGF subset produced by FormatSGF: a single game tree
// with an SZ property and alternating B/W moves.
func ParseSGF(s string) (*Game, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "(;") || !strings.HasSuffix(s, ")") {
		return nil, fmt.Errorf("leela: not an SGF game: %q", truncate(s, 32))
	}
	body := s[2 : len(s)-1]
	g := &Game{}
	expect := Black
	for _, node := range strings.Split(body, ";") {
		node = strings.TrimSpace(node)
		if node == "" {
			continue
		}
		open := strings.IndexByte(node, '[')
		close := strings.IndexByte(node, ']')
		if open < 0 || close < open {
			return nil, fmt.Errorf("leela: bad SGF node %q", node)
		}
		prop := node[:open]
		val := node[open+1 : close]
		switch prop {
		case "SZ":
			if _, err := fmt.Sscanf(val, "%d", &g.Size); err != nil {
				return nil, fmt.Errorf("leela: bad SZ %q", val)
			}
		case "B", "W":
			if g.Size == 0 {
				return nil, fmt.Errorf("leela: move before SZ")
			}
			want := "B"
			if expect == White {
				want = "W"
			}
			if prop != want {
				return nil, fmt.Errorf("leela: expected %s move, got %s", want, prop)
			}
			m, err := SGFToMove(val, g.Size)
			if err != nil {
				return nil, err
			}
			g.Moves = append(g.Moves, m)
			expect = expect.Opponent()
		default:
			// Other properties are ignored.
		}
	}
	if g.Size == 0 {
		return nil, fmt.Errorf("leela: SGF without SZ")
	}
	return g, nil
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

// Replay applies the game's moves to a fresh board and returns it with the
// color to move next.
func (g *Game) Replay() (*Board, Color, error) {
	b, err := NewBoard(g.Size)
	if err != nil {
		return nil, Vacant, err
	}
	color := Black
	for i, m := range g.Moves {
		if _, err := b.Play(m, color); err != nil {
			return nil, Vacant, fmt.Errorf("leela: move %d: %w", i, err)
		}
		color = color.Opponent()
	}
	return b, color, nil
}

// CullMoves removes n moves from the end of the game so that it is
// incomplete — the Alberta script's transformation of archive games.
func CullMoves(g *Game, n int) *Game {
	keep := len(g.Moves) - n
	if keep < 0 {
		keep = 0
	}
	return &Game{Size: g.Size, Moves: append([]int(nil), g.Moves[:keep]...)}
}

// SelfPlayGame generates a complete random-legal game record (the stand-in
// for an NNGS archive game).
func SelfPlayGame(size int, seed int64) (*Game, error) {
	b, err := NewBoard(size)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	g := &Game{Size: size}
	color := Black
	passes := 0
	e := &Engine{rng: rng}
	var buf []int
	for len(g.Moves) < 3*size*size && passes < 2 {
		moves := e.legalMoves(b, color, buf)
		buf = moves
		var m int
		if len(moves) == 0 {
			m = PassMove
			passes++
		} else {
			m = moves[rng.Intn(len(moves))]
			passes = 0
		}
		if _, err := b.Play(m, color); err != nil {
			m = PassMove
			passes++
			_, _ = b.Play(m, color)
		}
		g.Moves = append(g.Moves, m)
		color = color.Opponent()
	}
	return g, nil
}

// Workload is one 541.leela_r input: incomplete games plus the fixed
// simulation budget per move.
type Workload struct {
	core.Meta
	SGFs []string
	Sims int
	Seed int64
}

// Benchmark is the 541.leela_r reproduction.
type Benchmark struct{}

// New returns the benchmark.
func New() *Benchmark { return &Benchmark{} }

// Name implements core.Benchmark.
func (*Benchmark) Name() string { return "541.leela_r" }

// Area implements core.Benchmark.
func (*Benchmark) Area() string { return "AI: Go game playing" }

// buildWorkload assembles games positions with the given board sizes and
// culling depths (paper: six positions per workload; sizes and cull counts
// vary between workloads).
func buildWorkload(name string, kind core.Kind, seed int64, sizes []int, cull, sims, positions int) (core.Workload, error) {
	w := Workload{Meta: core.Meta{Name: name, Kind: kind}, Sims: sims, Seed: seed}
	for i := 0; i < positions; i++ {
		size := sizes[i%len(sizes)]
		g, err := SelfPlayGame(size, seed*131+int64(i))
		if err != nil {
			return nil, err
		}
		culled := CullMoves(g, cull+i%3)
		w.SGFs = append(w.SGFs, culled.FormatSGF())
	}
	return w, nil
}

// Workloads returns SPEC-style inputs plus nine Alberta workloads of six
// positions each (board sizes and culled-move counts vary, as in the
// paper; sizes are scaled down from 9/13/19 to 7/9/11 for wall-time).
func (b *Benchmark) Workloads() ([]core.Workload, error) {
	var ws []core.Workload
	add := func(w core.Workload, err error) error {
		if err != nil {
			return err
		}
		ws = append(ws, w)
		return nil
	}
	if err := add(buildWorkload("test", core.KindTest, 1, []int{7}, 20, 8, 1)); err != nil {
		return nil, err
	}
	if err := add(buildWorkload("train", core.KindTrain, 2, []int{7, 9}, 28, 16, 2)); err != nil {
		return nil, err
	}
	if err := add(buildWorkload("refrate", core.KindRefrate, 3, []int{9, 9, 11}, 36, 24, 3)); err != nil {
		return nil, err
	}
	sizesByWorkload := [][]int{
		{7}, {9}, {11}, {7, 9}, {9, 11}, {7, 11}, {7, 9, 11}, {9}, {11},
	}
	for i := 0; i < 9; i++ {
		err := add(buildWorkload(
			fmt.Sprintf("alberta.%d", i+1), core.KindAlberta,
			50+int64(i), sizesByWorkload[i], 18+4*i, 12+2*(i%4), 6))
		if err != nil {
			return nil, err
		}
	}
	return ws, nil
}

// GenerateWorkload implements core.Generator.
func (b *Benchmark) GenerateWorkload(seed int64, i int) (core.Workload, error) {
	return buildWorkload(core.GeneratedName(seed, i), core.KindAlberta,
		seed+int64(i), []int{7, 9}, 20+i%10, 12, 6)
}

// prepared holds each game's replayed starting position (immutable after
// Prepare) plus per-game scratch: a working board the engine plays on and
// the engine itself, whose simulation buffers are recycled across
// repetitions.
type prepared struct {
	b      *Benchmark
	lw     Workload
	boards []*Board // replayed positions; immutable
	toMove []Color
	// scratch
	play    []*Board
	engines []*Engine
}

// Prepare implements core.Benchmark: parse and replay every SGF once,
// uninstrumented.
func (b *Benchmark) Prepare(w core.Workload) (core.PreparedWorkload, error) {
	lw, ok := w.(Workload)
	if !ok {
		return nil, fmt.Errorf("%w: %T", core.ErrUnknownWorkload, w)
	}
	pw := &prepared{b: b, lw: lw,
		play: make([]*Board, len(lw.SGFs)), engines: make([]*Engine, len(lw.SGFs))}
	for i, sgf := range lw.SGFs {
		g, err := ParseSGF(sgf)
		if err != nil {
			return nil, fmt.Errorf("leela: %s game %d: %w", lw.Name, i, err)
		}
		board, toMove, err := g.Replay()
		if err != nil {
			return nil, fmt.Errorf("leela: %s game %d: %w", lw.Name, i, err)
		}
		pw.boards = append(pw.boards, board)
		pw.toMove = append(pw.toMove, toMove)
	}
	return pw, nil
}

// Execute implements core.PreparedWorkload: play every prepared game to the
// end on a recycled working board with a recycled engine.
func (pw *prepared) Execute(p *perf.Profiler) (core.Result, error) {
	lw := pw.lw
	sum := core.NewChecksum()
	for i, board := range pw.boards {
		if pw.play[i] == nil {
			pw.play[i] = board.Clone()
		} else {
			pw.play[i].CopyFrom(board)
		}
		seed := lw.Seed*1009 + int64(i)
		if pw.engines[i] == nil {
			pw.engines[i] = NewEngine(lw.Sims, seed, p)
		} else {
			pw.engines[i].Reset(seed, p)
		}
		engine := pw.engines[i]
		black, white, moves := engine.PlayToEnd(pw.play[i], pw.toMove[i])
		sum = sum.AddUint64(uint64(black)).
			AddUint64(uint64(white)).
			AddUint64(uint64(moves)).
			AddUint64(engine.Playouts)
	}
	return core.Result{
		Benchmark: pw.b.Name(),
		Workload:  lw.Name,
		Kind:      lw.WorkloadKind(),
		Checksum:  sum.Value(),
	}, nil
}
