package deepsjeng

import (
	"repro/internal/perf"
)

// Evaluation material values in centipawns.
var pieceValue = [7]int{0, 100, 320, 330, 500, 900, 20000}

// Synthetic address bases for the modeled hierarchy.
const (
	ttBase    = 0x20_0000_0000
	boardBase = 0x21_0000_0000
)

// ttEntry is one transposition-table slot.
type ttEntry struct {
	key   uint64
	score int32
	depth int8
	flag  uint8 // 0 exact, 1 lower bound, 2 upper bound
	best  Move
}

const (
	ttExact = iota
	ttLower
	ttUpper
)

// Searcher runs fixed-depth alpha-beta analysis with a transposition table.
type Searcher struct {
	board *Board
	tt    []ttEntry
	p     *perf.Profiler
	// Nodes counts interior+leaf nodes visited (the benchmark's work
	// metric and checksum input).
	Nodes uint64
	// movesBuf reuses move slices per ply to avoid allocation noise.
	movesBuf [64][]Move
}

// NewSearcher builds a searcher with a table of 2^ttBits entries.
func NewSearcher(b *Board, ttBits uint, p *perf.Profiler) *Searcher {
	s := &Searcher{tt: make([]ttEntry, 1<<ttBits)}
	s.Reset(b, p)
	return s
}

// Reset re-aims the searcher at a new position and profiler, clearing the
// transposition table and node count in place. A cleared table is all-zero,
// exactly like a freshly allocated one, so a recycled searcher produces the
// same analysis — and the same probe-hit/miss event stream — as a fresh
// NewSearcher; one multi-megabyte table allocation serves a whole workload
// instead of one per position.
func (s *Searcher) Reset(b *Board, p *perf.Profiler) {
	s.board = b
	s.p = p
	s.Nodes = 0
	clear(s.tt)
	if p != nil {
		p.SetFootprint("search", 6<<10)
		p.SetFootprint("qsearch", 3<<10)
		p.SetFootprint("evaluate", 2<<10)
		p.SetFootprint("movegen", 4<<10)
	}
}

// evaluate scores the position from the side to move's perspective:
// material plus a small centralization term.
func (s *Searcher) evaluate() int {
	if s.p != nil {
		s.p.Enter("evaluate")
		defer s.p.Leave()
	}
	score := 0
	for sq, p := range s.board.Squares {
		if p == Empty {
			continue
		}
		v := pieceValue[abs8(p)]
		r, f := sq/8, sq%8
		center := 3 - max(absInt(2*r-7), absInt(2*f-7))/2
		v += 4 * center
		if p > 0 {
			score += v
		} else {
			score -= v
		}
	}
	if s.p != nil {
		s.p.Ops(64 * 3)
		s.p.Load(boardBase + uint64(s.board.hash%4096))
	}
	if !s.board.WhiteToMove {
		score = -score
	}
	return score
}

func abs8(p Piece) int {
	if p < 0 {
		return int(-p)
	}
	return int(p)
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

const mateScore = 100000

// probe looks up the current position.
func (s *Searcher) probe() *ttEntry {
	idx := s.board.hash & uint64(len(s.tt)-1)
	e := &s.tt[idx]
	if s.p != nil {
		// Fused ops+branch, then the load: cross-channel reorder is
		// Report-invariant (DESIGN.md §10).
		s.p.OpsBranch(4, 10, e.key == s.board.hash)
		s.p.Load(ttBase + idx*24)
	}
	if e.key == s.board.hash {
		return e
	}
	return nil
}

// store records a search result (always-replace scheme).
func (s *Searcher) store(depth int, score int, flag uint8, best Move) {
	idx := s.board.hash & uint64(len(s.tt)-1)
	s.tt[idx] = ttEntry{key: s.board.hash, score: int32(score), depth: int8(depth), flag: flag, best: best}
	if s.p != nil {
		s.p.Ops(2)
		s.p.Store(ttBase + idx*24)
	}
}

// orderMoves sorts captures first (MVV-LVA) and the TT move to the front.
func (s *Searcher) orderMoves(moves []Move, ttMove Move) {
	if s.p != nil {
		s.p.Enter("movegen")
		defer s.p.Leave()
		s.p.Ops(uint64(len(moves)) * 4)
	}
	score := func(m Move) int {
		if m == ttMove {
			return 1 << 20
		}
		victim := s.board.Squares[m.To]
		if victim != Empty {
			return 1000*pieceValue[abs8(victim)] - pieceValue[abs8(s.board.Squares[m.From])]
		}
		return 0
	}
	// Insertion sort: move lists are short and mostly sorted.
	for i := 1; i < len(moves); i++ {
		m := moves[i]
		sc := score(m)
		j := i - 1
		for j >= 0 && score(moves[j]) < sc {
			moves[j+1] = moves[j]
			j--
		}
		moves[j+1] = m
		if s.p != nil {
			s.p.Branch(11, j != i-1)
		}
	}
}

// genLegal generates legal moves into the per-ply buffer.
func (s *Searcher) genLegal(ply int) []Move {
	if s.p != nil {
		s.p.Enter("movegen")
	}
	pseudo := s.board.GenMoves(s.movesBuf[ply][:0])
	if s.p != nil {
		s.p.Ops(uint64(len(pseudo)) * 6)
		s.p.Load(boardBase + uint64(s.board.hash%65536))
	}
	// The mover's king is looked up once: no move adds or removes one of
	// the mover's kings, so a lone king stays where it is unless it is the
	// piece that moves. A side without exactly one king keeps the per-move
	// scan, which finds the lowest-numbered king.
	king := s.board.soleKing(s.board.WhiteToMove)
	legal := pseudo[:0]
	for _, m := range pseudo {
		k := king
		if int(m.From) == king {
			k = int(m.To)
		}
		u := s.board.MakeMove(m)
		if king < 0 {
			k = s.board.kingSquare(!s.board.WhiteToMove)
		}
		ok := k >= 0 && !s.board.SquareAttacked(k, s.board.WhiteToMove)
		s.board.UnmakeMove(u)
		if s.p != nil {
			s.p.OpsBranch(12, 12, ok)
		}
		if ok {
			legal = append(legal, m)
		}
	}
	s.movesBuf[ply] = pseudo[:cap(pseudo)]
	if s.p != nil {
		s.p.Leave()
	}
	return legal
}

// qsearch resolves captures to quiet positions.
func (s *Searcher) qsearch(alpha, beta, ply int) int {
	s.Nodes++
	if s.p != nil {
		s.p.Enter("qsearch")
		defer s.p.Leave()
		s.p.Ops(8)
	}
	stand := s.evaluate()
	if stand >= beta {
		return beta
	}
	if stand > alpha {
		alpha = stand
	}
	if ply >= 32 {
		return alpha
	}
	moves := s.genLegal(ply)
	s.orderMoves(moves, Move{})
	for _, m := range moves {
		if s.board.Squares[m.To] == Empty {
			continue // captures only
		}
		u := s.board.MakeMove(m)
		score := -s.qsearch(-beta, -alpha, ply+1)
		s.board.UnmakeMove(u)
		cut := score >= beta
		if s.p != nil {
			s.p.Branch(13, cut)
		}
		if cut {
			return beta
		}
		if score > alpha {
			alpha = score
		}
	}
	return alpha
}

// alphaBeta is the main negamax search.
func (s *Searcher) alphaBeta(depth, alpha, beta, ply int) int {
	s.Nodes++
	if s.p != nil {
		s.p.Enter("search")
		defer s.p.Leave()
		s.p.Ops(10)
	}
	alphaOrig := alpha
	var ttMove Move
	if e := s.probe(); e != nil {
		ttMove = e.best
		if int(e.depth) >= depth {
			switch e.flag {
			case ttExact:
				return int(e.score)
			case ttLower:
				if int(e.score) > alpha {
					alpha = int(e.score)
				}
			case ttUpper:
				if int(e.score) < beta {
					beta = int(e.score)
				}
			}
			if alpha >= beta {
				return int(e.score)
			}
		}
	}
	if depth <= 0 {
		return s.qsearch(alpha, beta, ply)
	}
	moves := s.genLegal(ply)
	if len(moves) == 0 {
		if s.board.InCheck() {
			return -mateScore + ply // mated
		}
		return 0 // stalemate
	}
	s.orderMoves(moves, ttMove)
	best := -mateScore * 2
	var bestMove Move
	for _, m := range moves {
		u := s.board.MakeMove(m)
		score := -s.alphaBeta(depth-1, -beta, -alpha, ply+1)
		s.board.UnmakeMove(u)
		if score > best {
			best = score
			bestMove = m
		}
		if score > alpha {
			alpha = score
		}
		cut := alpha >= beta
		if s.p != nil {
			s.p.Branch(14, cut)
		}
		if cut {
			break
		}
	}
	flag := uint8(ttExact)
	if best <= alphaOrig {
		flag = ttUpper
	} else if best >= beta {
		flag = ttLower
	}
	s.store(depth, best, flag, bestMove)
	return best
}

// AnalysisResult is the outcome of analyzing one position.
type AnalysisResult struct {
	BestMove Move
	Score    int
	Nodes    uint64
	Depth    int
}

// Analyze runs iterative deepening to the given ply depth and returns the
// principal result.
func (s *Searcher) Analyze(depth int) AnalysisResult {
	var res AnalysisResult
	for d := 1; d <= depth; d++ {
		score := s.alphaBeta(d, -2*mateScore, 2*mateScore, 0)
		res.Score = score
		res.Depth = d
		if e := s.probe(); e != nil {
			res.BestMove = e.best
		}
	}
	res.Nodes = s.Nodes
	return res
}
