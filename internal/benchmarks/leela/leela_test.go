package leela

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/perf"
)

func TestBoardBasics(t *testing.T) {
	b, err := NewBoard(9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Play(40, Black); err != nil {
		t.Fatal(err)
	}
	if b.At(40) != Black {
		t.Error("stone not placed")
	}
	if _, err := b.Play(40, White); !errors.Is(err, ErrIllegalMove) {
		t.Error("occupied point should be illegal")
	}
	if _, err := NewBoard(2); err == nil {
		t.Error("size 2 should be rejected")
	}
}

func TestCaptureSingleStone(t *testing.T) {
	b, _ := NewBoard(5)
	// White stone at center (12), black surrounds it.
	mustPlay(t, b, 12, White)
	mustPlay(t, b, 7, Black)
	mustPlay(t, b, 11, Black)
	mustPlay(t, b, 13, Black)
	caps, err := b.Play(17, Black)
	if err != nil {
		t.Fatal(err)
	}
	if caps != 1 {
		t.Errorf("captured %d, want 1", caps)
	}
	if b.At(12) != Vacant {
		t.Error("captured stone not removed")
	}
	if b.Captures(Black) != 1 {
		t.Errorf("black captures = %d", b.Captures(Black))
	}
}

func TestCaptureGroup(t *testing.T) {
	b, _ := NewBoard(5)
	// Two white stones at 11,12 surrounded by black.
	mustPlay(t, b, 11, White)
	mustPlay(t, b, 12, White)
	for _, p := range []int{6, 7, 10, 16, 17} {
		mustPlay(t, b, p, Black)
	}
	caps, err := b.Play(13, Black)
	if err != nil {
		t.Fatal(err)
	}
	if caps != 2 {
		t.Errorf("captured %d, want 2", caps)
	}
}

func TestSuicideForbidden(t *testing.T) {
	b, _ := NewBoard(5)
	// Black surrounds point 12; white playing there is suicide.
	for _, p := range []int{7, 11, 13, 17} {
		mustPlay(t, b, p, Black)
	}
	if b.Legal(12, White) {
		t.Error("suicide should be illegal")
	}
	// But capturing into that point is legal for black.
	if !b.Legal(12, Black) {
		t.Error("filling own surrounded point is legal (not suicide)")
	}
}

func TestKoForbidsImmediateRecapture(t *testing.T) {
	b, _ := NewBoard(5)
	// Build:      . B W .
	//             B W . W      with black to capture at (1,2)=7...
	// Points: (0,1)=1 B, (0,2)=2 W, (1,0)=5 B, (1,1)=6 W, (1,3)=8 W, (2,1)=11 B?
	// Simpler canonical ko:
	//  row0:  . B W .
	//  row1:  B W . W
	//  row2:  . B W .
	mustPlay(t, b, 1, Black)
	mustPlay(t, b, 2, White)
	mustPlay(t, b, 5, Black)
	mustPlay(t, b, 6, White)
	mustPlay(t, b, 8, White)
	mustPlay(t, b, 11, Black)
	mustPlay(t, b, 12, White)
	// Black plays at 7, capturing the single white stone at 6.
	caps, err := b.Play(7, Black)
	if err != nil {
		t.Fatal(err)
	}
	if caps != 1 {
		t.Fatalf("captured %d, want 1 (the ko stone)", caps)
	}
	// White may not immediately recapture at 6.
	if b.Legal(6, White) {
		t.Error("immediate ko recapture should be illegal")
	}
	// After white plays elsewhere, the ko lifts.
	mustPlay(t, b, 20, White)
	if !b.Legal(6, White) {
		t.Error("ko should lift after a move elsewhere")
	}
}

func TestScoreTerritory(t *testing.T) {
	b, _ := NewBoard(5)
	// Black wall on column 2 splits the board; black plays col 3 too.
	for r := 0; r < 5; r++ {
		mustPlay(t, b, r*5+2, Black)
	}
	black, white := b.Score()
	// Black: 5 stones + all 20 empty points (white has none adjacent).
	if black != 25 || white != 0 {
		t.Errorf("score = %d/%d, want 25/0", black, white)
	}
}

func TestScoreNeutralRegion(t *testing.T) {
	b, _ := NewBoard(5)
	mustPlay(t, b, 0, Black)
	mustPlay(t, b, 24, White)
	black, white := b.Score()
	// The shared empty region touches both: counts for neither.
	if black != 1 || white != 1 {
		t.Errorf("score = %d/%d, want 1/1", black, white)
	}
}

func TestSGFRoundTrip(t *testing.T) {
	g := &Game{Size: 9, Moves: []int{40, 41, PassMove, 0}}
	s := g.FormatSGF()
	parsed, err := ParseSGF(s)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Size != 9 || len(parsed.Moves) != 4 {
		t.Fatalf("parsed %+v", parsed)
	}
	for i := range g.Moves {
		if parsed.Moves[i] != g.Moves[i] {
			t.Errorf("move %d: %d vs %d", i, parsed.Moves[i], g.Moves[i])
		}
	}
}

func TestParseSGFErrors(t *testing.T) {
	bad := []string{
		"",
		"(;B[aa])",       // move before SZ
		"(;SZ[9];W[aa])", // white moves first
		"(;SZ[9];B[zz])", // off-board
		"not an sgf",
	}
	for _, s := range bad {
		if _, err := ParseSGF(s); err == nil {
			t.Errorf("ParseSGF(%q) should fail", s)
		}
	}
}

func TestSelfPlayGameAndCull(t *testing.T) {
	g, err := SelfPlayGame(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Moves) < 10 {
		t.Fatalf("self-play game too short: %d moves", len(g.Moves))
	}
	culled := CullMoves(g, 5)
	if len(culled.Moves) != len(g.Moves)-5 {
		t.Errorf("cull removed %d, want 5", len(g.Moves)-len(culled.Moves))
	}
	// Culled prefix must replay cleanly.
	if _, _, err := culled.Replay(); err != nil {
		t.Errorf("culled game does not replay: %v", err)
	}
	over := CullMoves(g, len(g.Moves)+10)
	if len(over.Moves) != 0 {
		t.Error("over-culling should leave an empty game")
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() (int, uint64) {
		b, _ := NewBoard(7)
		e := NewEngine(8, 42, nil)
		m := e.BestMove(b, Black)
		return m, e.Playouts
	}
	m1, p1 := run()
	m2, p2 := run()
	if m1 != m2 || p1 != p2 {
		t.Errorf("nondeterministic engine: (%d,%d) vs (%d,%d)", m1, p1, m2, p2)
	}
	if p1 == 0 {
		t.Error("no playouts recorded")
	}
}

func TestPlayToEndTerminates(t *testing.T) {
	b, _ := NewBoard(7)
	e := NewEngine(4, 7, nil)
	black, white, moves := e.PlayToEnd(b, Black)
	if moves == 0 {
		t.Error("no moves played")
	}
	if black+white == 0 {
		t.Error("empty final score")
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
			lw := w.(Workload)
			if len(lw.SGFs) != 6 {
				t.Errorf("%s has %d games, want 6 (paper: exactly six positions)", lw.Name, len(lw.SGFs))
			}
		}
	}
	if alberta != 9 {
		t.Errorf("alberta workloads = %d, want 9", alberta)
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
	if rep.Coverage["playout"] == 0 {
		t.Errorf("playout missing from coverage: %v", rep.Coverage)
	}
}

func TestBenchmarkRejectsForeignWorkload(t *testing.T) {
	if _, err := New().Prepare(core.Meta{}); !errors.Is(err, core.ErrUnknownWorkload) {
		t.Errorf("err = %v", err)
	}
}

func mustPlay(t *testing.T, b *Board, p int, c Color) {
	t.Helper()
	if _, err := b.Play(p, c); err != nil {
		t.Fatalf("play %d %v: %v", p, c, err)
	}
}
