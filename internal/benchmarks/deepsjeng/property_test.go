package deepsjeng

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
)

// TestMakeUnmakeRandomWalk plays random legal games, unmaking every move in
// reverse, and checks the board returns to the exact original state —
// including the incremental Zobrist hash.
func TestMakeUnmakeRandomWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		b := StartPosition()
		var undos []undo
		var hashes []uint64
		plies := 1 + rng.Intn(40)
		for i := 0; i < plies; i++ {
			moves := b.LegalMoves()
			if len(moves) == 0 {
				break
			}
			hashes = append(hashes, b.Hash())
			undos = append(undos, b.MakeMove(moves[rng.Intn(len(moves))]))
		}
		for i := len(undos) - 1; i >= 0; i-- {
			b.UnmakeMove(undos[i])
			if b.Hash() != hashes[i] {
				t.Fatalf("trial %d: hash mismatch at unmake %d", trial, i)
			}
		}
		if b.FEN() != StartPosition().FEN() {
			t.Fatalf("trial %d: board not restored: %s", trial, b.FEN())
		}
	}
}

// TestLegalMovesNeverLeaveKingInCheck is the core legality invariant.
func TestLegalMovesNeverLeaveKingInCheck(t *testing.T) {
	for _, fen := range GeneratePositions(55, 20) {
		b, err := ParseFEN(fen)
		if err != nil {
			t.Fatal(err)
		}
		mover := b.WhiteToMove
		for _, m := range b.LegalMoves() {
			u := b.MakeMove(m)
			k := b.kingSquare(mover)
			if k >= 0 && b.SquareAttacked(k, !mover) {
				t.Fatalf("position %q: move %+v leaves king attacked", fen, m)
			}
			b.UnmakeMove(u)
		}
	}
}

// TestGenLegalMatchesKingScan pins genLegal's once-per-call king lookup to
// LegalMoves, which scans for the mover's king after every pseudo-move. It
// compares the two move lists on every position of the suite's and of
// generated workloads, on positions up to twelve random legal plies on from
// those (so king moves occur), and on positions with no king or two kings
// for the side to move, where genLegal falls back to the scan.
func TestGenLegalMatchesKingScan(t *testing.T) {
	var ws []core.Workload
	suite, err := New().Workloads()
	if err != nil {
		t.Fatal(err)
	}
	ws = append(ws, suite...)
	for i := 0; i < 4; i++ {
		w, err := New().GenerateWorkload(7, i)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	fens := []string{
		"4k3/8/8/8/8/8/4R3/4K2K b", // two white kings, black to move
		"4k3/8/8/8/8/8/4r3/K3K3 w", // two white kings, white to move
		"8/8/8/8/8/8/4r3/4K3 b",    // no black king
		"4k3/8/8/8/8/8/8/8 w",      // no white king
	}
	for _, w := range ws {
		for _, pos := range w.(Workload).Positions {
			fens = append(fens, pos.FEN)
		}
	}
	rng := rand.New(rand.NewSource(61))
	kingMoves := 0
	s := NewSearcher(StartPosition(), 4, nil)
	for _, fen := range fens {
		b, err := ParseFEN(fen)
		if err != nil {
			t.Fatal(err)
		}
		for ply := 0; ply < 12; ply++ {
			s.Reset(b, nil)
			got := s.genLegal(0)
			want := b.LegalMoves()
			if !slices.Equal(got, want) {
				t.Fatalf("%s ply %d (%s): genLegal %v, per-move scan %v", fen, ply, b.FEN(), got, want)
			}
			if len(want) == 0 {
				break
			}
			m := want[rng.Intn(len(want))]
			if abs8(b.Squares[m.From]) == int(King) {
				kingMoves++
			}
			b.MakeMove(m)
		}
	}
	if kingMoves == 0 {
		t.Fatal("no king move was played")
	}
}
