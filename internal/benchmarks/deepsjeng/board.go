// Package deepsjeng reproduces 531.deepsjeng_r: a chess playing and
// analysis engine performing alpha-beta tree search with a transposition
// table, driven by workloads of FEN positions analyzed to a given ply depth
// (Section IV-A). The Alberta workload script's Arasan position suite is
// replaced by a deterministic position generator that plays out games with
// a weak randomized engine and records interesting middlegame positions.
//
// Simplifications relative to full chess (documented in DESIGN.md):
// castling and en passant are not implemented; pawns always promote to
// queens. These do not affect the benchmark's character (deep recursive
// search over a branching game tree with table lookups).
package deepsjeng

import (
	"errors"
	"fmt"
	"strings"
)

// Piece codes. Positive = white, negative = black, 0 = empty.
type Piece int8

// White piece codes; negate for black.
const (
	Empty  Piece = 0
	Pawn   Piece = 1
	Knight Piece = 2
	Bishop Piece = 3
	Rook   Piece = 4
	Queen  Piece = 5
	King   Piece = 6
)

// Board is a chess position in mailbox form: squares indexed rank*8+file,
// rank 0 = white's first rank.
type Board struct {
	Squares [64]Piece
	// WhiteToMove reports the side to move.
	WhiteToMove bool
	// hash is the incrementally maintained Zobrist key.
	hash uint64
}

// Move is a from/to square pair with promotion handled implicitly
// (pawns reaching the last rank become queens).
type Move struct {
	From, To int8
}

// zobrist keys: [piece+6][square], plus side to move.
var zobristTable [13][64]uint64
var zobristSide uint64

func init() {
	s := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
	for p := 0; p < 13; p++ {
		for sq := 0; sq < 64; sq++ {
			zobristTable[p][sq] = next()
		}
	}
	zobristSide = next()
}

// recomputeHash rebuilds the Zobrist key from scratch.
func (b *Board) recomputeHash() {
	h := uint64(0)
	for sq, p := range b.Squares {
		if p != Empty {
			h ^= zobristTable[p+6][sq]
		}
	}
	if !b.WhiteToMove {
		h ^= zobristSide
	}
	b.hash = h
}

// Hash returns the position's Zobrist key.
func (b *Board) Hash() uint64 { return b.hash }

// StartPosition returns the standard initial position.
func StartPosition() *Board {
	b := &Board{WhiteToMove: true}
	back := []Piece{Rook, Knight, Bishop, Queen, King, Bishop, Knight, Rook}
	for f := 0; f < 8; f++ {
		b.Squares[f] = back[f]
		b.Squares[8+f] = Pawn
		b.Squares[48+f] = -Pawn
		b.Squares[56+f] = -back[f]
	}
	b.recomputeHash()
	return b
}

// ErrBadFEN reports an unparseable FEN string.
var ErrBadFEN = errors.New("deepsjeng: bad FEN")

var fenPieces = map[byte]Piece{
	'P': Pawn, 'N': Knight, 'B': Bishop, 'R': Rook, 'Q': Queen, 'K': King,
	'p': -Pawn, 'n': -Knight, 'b': -Bishop, 'r': -Rook, 'q': -Queen, 'k': -King,
}

// ParseFEN parses the board and side-to-move fields of a FEN string
// (remaining fields are accepted and ignored).
func ParseFEN(fen string) (*Board, error) {
	fields := strings.Fields(fen)
	if len(fields) < 2 {
		return nil, fmt.Errorf("%w: %q", ErrBadFEN, fen)
	}
	b := &Board{}
	ranks := strings.Split(fields[0], "/")
	if len(ranks) != 8 {
		return nil, fmt.Errorf("%w: %d ranks", ErrBadFEN, len(ranks))
	}
	for r := 0; r < 8; r++ {
		rank := 7 - r // FEN starts at rank 8
		file := 0
		for i := 0; i < len(ranks[r]); i++ {
			ch := ranks[r][i]
			if ch >= '1' && ch <= '8' {
				file += int(ch - '0')
				continue
			}
			p, ok := fenPieces[ch]
			if !ok || file > 7 {
				return nil, fmt.Errorf("%w: rank %q", ErrBadFEN, ranks[r])
			}
			b.Squares[rank*8+file] = p
			file++
		}
		if file != 8 {
			return nil, fmt.Errorf("%w: rank %q has %d files", ErrBadFEN, ranks[r], file)
		}
	}
	switch fields[1] {
	case "w":
		b.WhiteToMove = true
	case "b":
		b.WhiteToMove = false
	default:
		return nil, fmt.Errorf("%w: side %q", ErrBadFEN, fields[1])
	}
	b.recomputeHash()
	return b, nil
}

// FEN renders the position's board and side fields.
func (b *Board) FEN() string {
	names := map[Piece]byte{
		Pawn: 'P', Knight: 'N', Bishop: 'B', Rook: 'R', Queen: 'Q', King: 'K',
		-Pawn: 'p', -Knight: 'n', -Bishop: 'b', -Rook: 'r', -Queen: 'q', -King: 'k',
	}
	var sb strings.Builder
	for r := 7; r >= 0; r-- {
		empty := 0
		for f := 0; f < 8; f++ {
			p := b.Squares[r*8+f]
			if p == Empty {
				empty++
				continue
			}
			if empty > 0 {
				sb.WriteByte(byte('0' + empty))
				empty = 0
			}
			sb.WriteByte(names[p])
		}
		if empty > 0 {
			sb.WriteByte(byte('0' + empty))
		}
		if r > 0 {
			sb.WriteByte('/')
		}
	}
	if b.WhiteToMove {
		sb.WriteString(" w")
	} else {
		sb.WriteString(" b")
	}
	return sb.String()
}

// undo captures the state needed to unmake a move.
type undo struct {
	move     Move
	captured Piece
	moved    Piece // pre-promotion piece
	hash     uint64
}

// MakeMove applies m (assumed pseudo-legal) and returns the undo record.
func (b *Board) MakeMove(m Move) undo {
	u := undo{move: m, captured: b.Squares[m.To], moved: b.Squares[m.From], hash: b.hash}
	p := b.Squares[m.From]
	// Update hash: remove moving piece from origin, any capture from
	// target, place (possibly promoted) piece.
	b.hash ^= zobristTable[p+6][m.From]
	if u.captured != Empty {
		b.hash ^= zobristTable[u.captured+6][m.To]
	}
	placed := p
	if p == Pawn && m.To >= 56 {
		placed = Queen
	} else if p == -Pawn && m.To < 8 {
		placed = -Queen
	}
	b.hash ^= zobristTable[placed+6][m.To]
	b.hash ^= zobristSide
	b.Squares[m.To] = placed
	b.Squares[m.From] = Empty
	b.WhiteToMove = !b.WhiteToMove
	return u
}

// UnmakeMove reverses a MakeMove.
func (b *Board) UnmakeMove(u undo) {
	b.Squares[u.move.From] = u.moved
	b.Squares[u.move.To] = u.captured
	b.WhiteToMove = !b.WhiteToMove
	b.hash = u.hash
}

// pieceDirs holds sliding/stepping offsets as (dr, df) pairs.
var (
	knightSteps = [8][2]int{{1, 2}, {2, 1}, {2, -1}, {1, -2}, {-1, -2}, {-2, -1}, {-2, 1}, {-1, 2}}
	kingSteps   = [8][2]int{{1, 0}, {1, 1}, {0, 1}, {-1, 1}, {-1, 0}, {-1, -1}, {0, -1}, {1, -1}}
	bishopDirs  = [4][2]int{{1, 1}, {1, -1}, {-1, 1}, {-1, -1}}
	rookDirs    = [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}
)

// SquareAttacked reports whether sq is attacked by the given side.
func (b *Board) SquareAttacked(sq int, byWhite bool) bool {
	r, f := sq/8, sq%8
	sign := Piece(1)
	if !byWhite {
		sign = -1
	}
	// Pawn attacks: a white pawn on r-1 attacks r.
	pr := r - 1
	if !byWhite {
		pr = r + 1
	}
	if pr >= 0 && pr < 8 {
		for _, df := range []int{-1, 1} {
			pf := f + df
			if pf >= 0 && pf < 8 && b.Squares[pr*8+pf] == sign*Pawn {
				return true
			}
		}
	}
	for _, st := range knightSteps {
		nr, nf := r+st[0], f+st[1]
		if nr >= 0 && nr < 8 && nf >= 0 && nf < 8 && b.Squares[nr*8+nf] == sign*Knight {
			return true
		}
	}
	for _, st := range kingSteps {
		nr, nf := r+st[0], f+st[1]
		if nr >= 0 && nr < 8 && nf >= 0 && nf < 8 && b.Squares[nr*8+nf] == sign*King {
			return true
		}
	}
	slide := func(dirs [4][2]int, p1, p2 Piece) bool {
		for _, d := range dirs {
			nr, nf := r+d[0], f+d[1]
			for nr >= 0 && nr < 8 && nf >= 0 && nf < 8 {
				q := b.Squares[nr*8+nf]
				if q != Empty {
					if q == p1 || q == p2 {
						return true
					}
					break
				}
				nr += d[0]
				nf += d[1]
			}
		}
		return false
	}
	if slide(bishopDirs, sign*Bishop, sign*Queen) {
		return true
	}
	return slide(rookDirs, sign*Rook, sign*Queen)
}

// kingSquare locates the given side's king (-1 if absent).
func (b *Board) kingSquare(white bool) int {
	want := King
	if !white {
		want = -King
	}
	for sq, p := range b.Squares {
		if p == want {
			return sq
		}
	}
	return -1
}

// soleKing returns the given side's king square when that side has exactly
// one king, and -1 otherwise.
func (b *Board) soleKing(white bool) int {
	want := King
	if !white {
		want = -King
	}
	k := -1
	for sq, p := range b.Squares {
		if p == want {
			if k >= 0 {
				return -1
			}
			k = sq
		}
	}
	return k
}

// InCheck reports whether the side to move is in check.
func (b *Board) InCheck() bool {
	k := b.kingSquare(b.WhiteToMove)
	if k < 0 {
		return false
	}
	return b.SquareAttacked(k, !b.WhiteToMove)
}

// GenMoves appends all pseudo-legal moves for the side to move to buf and
// returns it. Captures of the king never occur because search prunes
// illegal positions.
func (b *Board) GenMoves(buf []Move) []Move {
	white := b.WhiteToMove
	for sq := 0; sq < 64; sq++ {
		p := b.Squares[sq]
		if p == Empty || (p > 0) != white {
			continue
		}
		r, f := sq/8, sq%8
		add := func(nr, nf int) bool {
			// Returns true when sliding may continue past (nr,nf).
			if nr < 0 || nr > 7 || nf < 0 || nf > 7 {
				return false
			}
			t := b.Squares[nr*8+nf]
			if t == Empty {
				buf = append(buf, Move{From: int8(sq), To: int8(nr*8 + nf)})
				return true
			}
			if (t > 0) != white {
				buf = append(buf, Move{From: int8(sq), To: int8(nr*8 + nf)})
			}
			return false
		}
		switch p {
		case Pawn, -Pawn:
			dir := 1
			startRank := 1
			if p < 0 {
				dir = -1
				startRank = 6
			}
			if nr := r + dir; nr >= 0 && nr < 8 {
				if b.Squares[nr*8+f] == Empty {
					buf = append(buf, Move{From: int8(sq), To: int8(nr*8 + f)})
					if r == startRank && b.Squares[(r+2*dir)*8+f] == Empty {
						buf = append(buf, Move{From: int8(sq), To: int8((r+2*dir)*8 + f)})
					}
				}
				for _, df := range []int{-1, 1} {
					nf := f + df
					if nf >= 0 && nf < 8 {
						t := b.Squares[nr*8+nf]
						if t != Empty && (t > 0) != white {
							buf = append(buf, Move{From: int8(sq), To: int8(nr*8 + nf)})
						}
					}
				}
			}
		case Knight, -Knight:
			for _, st := range knightSteps {
				add(r+st[0], f+st[1])
			}
		case King, -King:
			for _, st := range kingSteps {
				add(r+st[0], f+st[1])
			}
		case Bishop, -Bishop:
			for _, d := range bishopDirs {
				for nr, nf := r+d[0], f+d[1]; add(nr, nf); nr, nf = nr+d[0], nf+d[1] {
				}
			}
		case Rook, -Rook:
			for _, d := range rookDirs {
				for nr, nf := r+d[0], f+d[1]; add(nr, nf); nr, nf = nr+d[0], nf+d[1] {
				}
			}
		case Queen, -Queen:
			for _, d := range bishopDirs {
				for nr, nf := r+d[0], f+d[1]; add(nr, nf); nr, nf = nr+d[0], nf+d[1] {
				}
			}
			for _, d := range rookDirs {
				for nr, nf := r+d[0], f+d[1]; add(nr, nf); nr, nf = nr+d[0], nf+d[1] {
				}
			}
		}
	}
	return buf
}

// LegalMoves filters GenMoves by king safety.
func (b *Board) LegalMoves() []Move {
	pseudo := b.GenMoves(nil)
	legal := pseudo[:0]
	for _, m := range pseudo {
		u := b.MakeMove(m)
		k := b.kingSquare(!b.WhiteToMove) // mover's king after the move
		ok := k >= 0 && !b.SquareAttacked(k, b.WhiteToMove)
		b.UnmakeMove(u)
		if ok {
			legal = append(legal, m)
		}
	}
	return legal
}

// Perft counts leaf nodes of the legal move tree to the given depth
// (validation helper).
func (b *Board) Perft(depth int) uint64 {
	if depth == 0 {
		return 1
	}
	var total uint64
	for _, m := range b.LegalMoves() {
		u := b.MakeMove(m)
		total += b.Perft(depth - 1)
		b.UnmakeMove(u)
	}
	return total
}
