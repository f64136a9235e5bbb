package deepsjeng

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/perf"
)

func TestPerftInitialPosition(t *testing.T) {
	// Standard perft values; depths 1-3 are unaffected by the omitted
	// castling/en-passant rules.
	b := StartPosition()
	for depth, want := range map[int]uint64{1: 20, 2: 400, 3: 8902} {
		if got := b.Perft(depth); got != want {
			t.Errorf("perft(%d) = %d, want %d", depth, got, want)
		}
	}
}

func TestFENRoundTrip(t *testing.T) {
	b := StartPosition()
	fen := b.FEN()
	if !strings.HasPrefix(fen, "rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w") {
		t.Errorf("start FEN = %q", fen)
	}
	b2, err := ParseFEN(fen)
	if err != nil {
		t.Fatal(err)
	}
	if b2.FEN() != fen {
		t.Errorf("round trip: %q vs %q", b2.FEN(), fen)
	}
	if b2.Hash() != b.Hash() {
		t.Error("hash differs after FEN round trip")
	}
}

func TestParseFENErrors(t *testing.T) {
	bad := []string{
		"",
		"rnbqkbnr/pppppppp w", // 2 ranks
		"rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR x",  // bad side
		"rnbqkbnr/ppppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w", // 9 files
		"rnbqkbnr/ppzppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w",  // bad piece
	}
	for _, fen := range bad {
		if _, err := ParseFEN(fen); !errors.Is(err, ErrBadFEN) {
			t.Errorf("ParseFEN(%q) err = %v, want ErrBadFEN", fen, err)
		}
	}
}

func TestMakeUnmakePreservesState(t *testing.T) {
	b := StartPosition()
	orig := *b
	for _, m := range b.LegalMoves() {
		u := b.MakeMove(m)
		b.UnmakeMove(u)
		if *b != orig {
			t.Fatalf("make/unmake of %+v corrupted the board", m)
		}
	}
}

func TestZobristIncrementalMatchesRecompute(t *testing.T) {
	b := StartPosition()
	moves := []Move{{From: 12, To: 28}, {From: 52, To: 36}, {From: 6, To: 21}}
	for _, m := range moves {
		b.MakeMove(m)
		inc := b.Hash()
		b.recomputeHash()
		if b.Hash() != inc {
			t.Fatalf("incremental hash diverged after move %+v", m)
		}
	}
}

func TestPromotion(t *testing.T) {
	b, err := ParseFEN("8/P6k/8/8/8/8/8/K7 w")
	if err != nil {
		t.Fatal(err)
	}
	moves := b.LegalMoves()
	var promo *Move
	for i, m := range moves {
		if m.From == 48 && m.To == 56 {
			promo = &moves[i]
		}
	}
	if promo == nil {
		t.Fatal("promotion move not generated")
	}
	b.MakeMove(*promo)
	if b.Squares[56] != Queen {
		t.Errorf("promoted piece = %v, want queen", b.Squares[56])
	}
}

func TestCheckDetection(t *testing.T) {
	b, err := ParseFEN("4k3/8/8/8/8/8/4R3/4K3 b") // rook gives check on e-file
	if err != nil {
		t.Fatal(err)
	}
	if !b.InCheck() {
		t.Error("black should be in check from the e2 rook")
	}
	// Every legal move must resolve the check.
	for _, m := range b.LegalMoves() {
		u := b.MakeMove(m)
		k := b.kingSquare(false)
		if b.SquareAttacked(k, true) {
			t.Errorf("move %+v leaves king in check", m)
		}
		b.UnmakeMove(u)
	}
}

func TestSearchFindsMateInOne(t *testing.T) {
	// Back-rank mate: Ra8#.
	b, err := ParseFEN("6k1/5ppp/8/8/8/8/8/R3K3 w")
	if err != nil {
		t.Fatal(err)
	}
	s := NewSearcher(b, 14, nil)
	res := s.Analyze(3)
	if res.BestMove.From != 0 || res.BestMove.To != 56 {
		t.Errorf("best move = %+v, want Ra1-a8", res.BestMove)
	}
	if res.Score < mateScore-10 {
		t.Errorf("score = %d, want near-mate", res.Score)
	}
}

func TestSearchPrefersWinningCapture(t *testing.T) {
	// White queen on a1 can take the undefended black queen on a8.
	b, err := ParseFEN("q3k3/8/8/8/8/8/8/Q3K3 w")
	if err != nil {
		t.Fatal(err)
	}
	s := NewSearcher(b, 14, nil)
	res := s.Analyze(4)
	if res.BestMove.To != 56 {
		t.Errorf("best move target = %d, want a8 (56)", res.BestMove.To)
	}
}

func TestSearchDeterministicNodeCount(t *testing.T) {
	run := func() uint64 {
		b := StartPosition()
		s := NewSearcher(b, 16, nil)
		s.Analyze(4)
		return s.Nodes
	}
	if a, b := run(), run(); a != b || a == 0 {
		t.Errorf("node counts: %d vs %d", a, b)
	}
}

func TestDeeperSearchVisitsMoreNodes(t *testing.T) {
	nodes := func(depth int) uint64 {
		b := StartPosition()
		s := NewSearcher(b, 16, nil)
		s.Analyze(depth)
		return s.Nodes
	}
	if n3, n5 := nodes(3), nodes(5); n5 <= n3 {
		t.Errorf("depth-5 nodes (%d) should exceed depth-3 (%d)", n5, n3)
	}
}

func TestGeneratePositionsValidAndDeterministic(t *testing.T) {
	a := GeneratePositions(7, 10)
	b := GeneratePositions(7, 10)
	if len(a) != 10 {
		t.Fatalf("generated %d positions", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("position %d differs across identical seeds", i)
		}
		board, err := ParseFEN(a[i])
		if err != nil {
			t.Errorf("position %d unparseable: %v", i, err)
			continue
		}
		if len(board.LegalMoves()) == 0 {
			t.Errorf("position %d has no legal moves", i)
		}
	}
}

func TestWorkloadInventory(t *testing.T) {
	b := New()
	ws, err := b.Workloads()
	if err != nil {
		t.Fatal(err)
	}
	alberta := 0
	for _, w := range ws {
		if w.WorkloadKind() == core.KindAlberta {
			alberta++
			dw := w.(Workload)
			if len(dw.Positions) != 8 {
				t.Errorf("%s has %d positions, want 8", dw.Name, len(dw.Positions))
			}
		}
	}
	if alberta != 9 {
		t.Errorf("alberta workloads = %d, want 9 (paper ships nine)", alberta)
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
	if rep.Coverage["search"] == 0 || rep.Coverage["evaluate"] == 0 {
		t.Errorf("expected search/evaluate in coverage, got %v", rep.Coverage)
	}
	// A game-tree search mispredicts: bad speculation should be visible,
	// as in the paper's Table II (s = 11.5 for deepsjeng).
	if rep.TopDown.BadSpec <= 0.005 {
		t.Errorf("bad speculation = %v, expected a visible fraction", rep.TopDown.BadSpec)
	}
}

func TestBenchmarkRejectsForeignWorkload(t *testing.T) {
	if _, err := New().Prepare(core.Meta{}); !errors.Is(err, core.ErrUnknownWorkload) {
		t.Errorf("err = %v", err)
	}
}

func TestGenerateWorkloads(t *testing.T) {
	b := New()
	ws, err := core.GenerateWorkloads(b, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 3 {
		t.Fatalf("got %d workloads", len(ws))
	}
	if _, err := core.GenerateWorkloads(b, 5, 0); err == nil {
		t.Error("n=0 should fail")
	}
}
