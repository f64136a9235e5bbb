package leela

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// TestLegalScannedMatchesLegal pins the chain-state legality test to the
// flood-fill oracle: over random game positions, legalVacant must agree
// with the oracle at every vacant point for both colors (Legal adds only
// bounds and occupancy checks), and legalMoves, which walks the kept
// candidate set, must list the points a scan of every vacant point that is
// not eye-like finds, in the same order. The MCTS move scan feeds these
// verdicts straight into the profiler's branch event stream, so any
// divergence would change Reports. Sizes 3 and 25 are the edge-heavy and
// int16-range corners.
func TestLegalScannedMatchesLegal(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	e := &Engine{}
	for _, tc := range []struct{ size, trials int }{{3, 40}, {5, 40}, {9, 40}, {13, 40}, {25, 4}} {
		size := tc.size
		o := newOracle(size)
		for trial := 0; trial < tc.trials; trial++ {
			b, err := NewBoard(size)
			if err != nil {
				t.Fatal(err)
			}
			c := Black
			// Play a random game, checking every position along the way.
			for mv := 0; mv < 3*size*size; mv++ {
				o.load(b)
				var legal []int
				for p := 0; p < size*size; p++ {
					if b.At(p) != Vacant {
						continue
					}
					for _, col := range []Color{Black, White} {
						want := o.legal(p, col)
						if got := b.legalVacant(p, col); got != want {
							t.Fatalf("size %d trial %d move %d: legalVacant(%d, %s) = %v, oracle %v",
								size, trial, mv, p, col, got, want)
						}
						if want && col == c {
							legal = append(legal, p)
						}
					}
				}
				var scan []int
				for _, p := range legal {
					if !o.eyeLike(p, c) {
						scan = append(scan, p)
					}
				}
				if got := e.legalMoves(b, c, nil); !slices.Equal(got, scan) {
					t.Fatalf("size %d trial %d move %d: legalMoves = %v, scan %v", size, trial, mv, got, scan)
				}
				// Advance with a random legal move.
				if len(legal) == 0 {
					break
				}
				if _, err := b.Play(legal[rng.Intn(len(legal))], c); err != nil {
					t.Fatal(err)
				}
				c = c.Opponent()
			}
		}
	}
}

// TestChainStateMatchesOracle replays seeded random games on a Board and on
// the flood-fill oracle side by side and, after every move, requires the
// same verdicts, captures and ko point, and chain state that matches the
// oracle's groups (see chainMismatch). The games mix in passes, rejected
// plays (occupied, suicide and ko-barred points) and ko recaptures after an
// intervening move; the test fails if any of these never happened.
func TestChainStateMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var passes, rejected, kos, recaptures int
	for _, tc := range []struct{ size, games int }{{3, 200}, {5, 100}, {9, 30}, {13, 10}, {25, 3}} {
		for game := 0; game < tc.games; game++ {
			n := tc.size * tc.size
			b, err := NewBoard(tc.size)
			if err != nil {
				t.Fatal(err)
			}
			o := newOracle(tc.size)
			play := func(p int, c Color) (int, error) {
				caps, err := playBoth(b, o, p, c)
				if err != nil && !errors.Is(err, ErrIllegalMove) {
					t.Fatalf("size %d game %d: %v", tc.size, game, err)
				}
				return caps, err
			}
			// barred[c] is the last point ko barred c from, so c can try
			// to retake there once the ko lifts.
			barred := [3]int{-1, -1, -1}
			c := Black
			for ply, inRow := 0, 0; ply < 3*n && inRow < 2; ply++ {
				if b.koPoint >= 0 {
					barred[c] = b.koPoint
					if _, err := play(b.koPoint, c); err == nil {
						t.Fatalf("size %d game %d: ko point %d accepted", tc.size, game, b.koPoint)
					}
					rejected++
				}
				moved := false
				if p := barred[c]; p >= 0 && p != b.koPoint && rng.Intn(2) == 0 {
					if caps, err := play(p, c); err == nil {
						moved = true
						if caps == 1 {
							recaptures++
						}
					}
					barred[c] = -1
				}
				// Otherwise try random points, passing one ply in twelve
				// or when ten tries all fail.
				pass := rng.Intn(12) == 0
				for try := 0; !moved && !pass && try < 10; try++ {
					if _, err := play(rng.Intn(n), c); err == nil {
						moved = true
					} else {
						rejected++
					}
				}
				if moved {
					inRow = 0
				} else {
					_, _ = play(PassMove, c)
					passes++
					inRow++
				}
				if b.koPoint >= 0 {
					kos++
				}
				c = c.Opponent()
			}
		}
	}
	if passes == 0 || rejected == 0 || kos == 0 || recaptures == 0 {
		t.Fatalf("games missed a case: %d passes, %d rejected, %d kos, %d ko recaptures",
			passes, rejected, kos, recaptures)
	}
	t.Logf("%d passes, %d rejected plays, %d kos, %d ko recaptures", passes, rejected, kos, recaptures)
}

// FuzzBoardChains decodes bytes into a board size and a move sequence and
// plays it on a Board and the flood-fill oracle side by side, checking the
// chain state against the oracle after every move. Byte 0 picks the size
// (3 to 25); each following byte pair is one move: the top bit picks the
// color, and the rest modulo n+2 maps to pass, a point, or an off-board
// point. Only the first 64 moves are played: every move is checked
// against a board-wide oracle scan, and short inputs keep the fuzzer's
// minimizer fast.
func FuzzBoardChains(f *testing.F) {
	// The 5x5 ko of TestKoForbidsImmediateRecapture, with the barred
	// recapture, a move elsewhere and the retake.
	f.Add(encodeGame(5, []Color{Black, White, Black, White, White, Black, White, Black, White, White, Black, White},
		[]int{1, 2, 5, 6, 8, 11, 12, 7, 6, 20, 24, 6}))
	f.Add(encodeGame(3, []Color{Black, White, Black, White, Black, White, Black},
		[]int{4, 0, 1, 8, 3, PassMove, 2}))
	f.Add([]byte{22, 0x01, 0x38, 0x81, 0x39, 0x00, 0x00, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		size := 3 + int(data[0])%23
		n := size * size
		b, err := NewBoard(size)
		if err != nil {
			t.Fatal(err)
		}
		o := newOracle(size)
		for i := 1; i+1 < len(data) && i < 1+2*64; i += 2 {
			v := int(data[i])<<8 | int(data[i+1])
			c := Black
			if v&0x8000 != 0 {
				c = White
			}
			p := (v&0x7fff)%(n+2) - 1
			if _, err := playBoth(b, o, p, c); err != nil && !errors.Is(err, ErrIllegalMove) {
				t.Fatalf("size %d move %d: %v", size, i/2, err)
			}
		}
	})
}

// encodeGame is FuzzBoardChains' input for the given moves.
func encodeGame(size int, colors []Color, moves []int) []byte {
	data := []byte{byte(size - 3)}
	for i, m := range moves {
		v := m + 1
		if colors[i] == White {
			v |= 0x8000
		}
		data = append(data, byte(v>>8), byte(v))
	}
	return data
}

// TestCopyFromMatchesClone pins the in-place board reset: after CopyFrom,
// the destination must behave identically to a fresh Clone of the source.
func TestCopyFromMatchesClone(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	src, err := NewBoard(9)
	if err != nil {
		t.Fatal(err)
	}
	dst := src.Clone()
	c := Black
	for mv := 0; mv < 200; mv++ {
		// Mutate dst arbitrarily, then reset it from src and compare
		// observable state against a fresh clone.
		for k := 0; k < 5; k++ {
			p := rng.Intn(81)
			if dst.At(p) == Vacant && dst.Legal(p, c) {
				_, _ = dst.Play(p, c)
			}
		}
		dst.CopyFrom(src)
		ref := src.Clone()
		if mm := chainMismatch(ref, oracleOf(src)); mm != nil {
			t.Fatalf("move %d: after Clone: %v", mv, mm)
		}
		// Chain state must be copied too: a stale head, ring or liberty
		// count would silently misjudge legality and captures.
		for _, arr := range []struct {
			name      string
			got, want []int16
		}{
			{"head", dst.head, ref.head}, {"next", dst.next, ref.next},
			{"libs", dst.libs, ref.libs}, {"stones", dst.stones, ref.stones},
		} {
			if !slices.Equal(arr.got, arr.want) {
				t.Fatalf("move %d: %s differs after CopyFrom", mv, arr.name)
			}
		}
		if mm := chainMismatch(dst, oracleOf(src)); mm != nil {
			t.Fatalf("move %d: after CopyFrom: %v", mv, mm)
		}
		for p := 0; p < 81; p++ {
			if dst.At(p) != ref.At(p) {
				t.Fatalf("move %d: point %d differs after CopyFrom", mv, p)
			}
			for _, col := range []Color{Black, White} {
				if dst.At(p) == Vacant && dst.Legal(p, col) != ref.Legal(p, col) {
					t.Fatalf("move %d: Legal(%d, %s) differs after CopyFrom", mv, p, col)
				}
			}
		}
		// Advance the source game.
		var legal []int
		for p := 0; p < 81; p++ {
			if src.At(p) == Vacant && src.Legal(p, c) {
				legal = append(legal, p)
			}
		}
		if len(legal) == 0 {
			break
		}
		if _, err := src.Play(legal[rng.Intn(len(legal))], c); err != nil {
			t.Fatal(err)
		}
		c = c.Opponent()
	}
}

// TestParseSGFNeverPanics feeds random SGF-shaped noise to the parser.
func TestParseSGFNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	fragments := []string{"(;", ")", ";B[", ";W[", "]", "SZ[9", "SZ[", "aa", "zz", "[", ";"}
	for trial := 0; trial < 3000; trial++ {
		src := ""
		for k := 0; k < rng.Intn(10); k++ {
			src += fragments[rng.Intn(len(fragments))]
		}
		if g, err := ParseSGF(src); err == nil {
			_, _, _ = g.Replay() // replay of parsed games must not panic
		}
	}
}
