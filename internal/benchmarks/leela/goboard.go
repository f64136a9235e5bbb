// Package leela reproduces 541.leela_r: a Go-playing engine that takes an
// incomplete game (board state plus move history) and plays it to the end
// with a fixed number of Monte-Carlo tree-search simulations per move
// (Section IV-A). The Alberta workloads' NNGS archive games are replaced by
// deterministic self-play game prefixes; the culling script that removes
// moves from the end of each game is reproduced as CullMoves.
package leela

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Color of a point.
type Color int8

// Point states.
const (
	Vacant Color = iota
	Black
	White
)

// Opponent returns the other player.
func (c Color) Opponent() Color {
	switch c {
	case Black:
		return White
	case White:
		return Black
	default:
		return Vacant
	}
}

// String names the color.
func (c Color) String() string {
	switch c {
	case Black:
		return "black"
	case White:
		return "white"
	default:
		return "vacant"
	}
}

// PassMove is the move value representing a pass.
const PassMove = -1

// Board is a Go position with simple-ko tracking and incrementally kept
// chain state: every occupied point knows its chain's head, and the head
// holds the chain's exact liberty and stone counts, so legality and capture
// tests never flood-fill.
type Board struct {
	Size   int
	points []Color
	// koPoint is the point forbidden by simple ko (-1 when none).
	koPoint int
	// Captures by each player (index by Color).
	captures [3]int
	// Chain state, meaningful at occupied points only: head[p] is the
	// chain's representative point, next[p] links the chain's stones into a
	// ring, and at a head libs and stones hold the chain's distinct
	// liberties and its size. Play keeps all four exact.
	head   []int16
	next   []int16
	libs   []int16
	stones []int16
	// Neighbor counts and playout candidates, indexed by Color: adj[c][p]
	// counts p's neighbors of color c, and for Black and White bit p of
	// cand[c] is set exactly when p is vacant and not eye-like for c (not
	// all of p's neighbors are c's). setPoint keeps both exact.
	adj  [3][]uint8
	cand [3][]uint64
	// scratch buffers for flood fills (Score, liberty recounts).
	visited []int32
	stamp   int32
	queue   []int
	// Precomputed neighbor table: nbr[p*4 : p*4+nbrN[p]] are p's orthogonal
	// neighbors (up, down, left, right). Immutable after NewBoard; shared by
	// clones.
	nbr  []int16
	nbrN []uint8
}

// NewBoard returns an empty board of the given size (9, 13 or 19 in the
// workloads; any size ≥ 3 is accepted). The 25 cap keeps every point and
// liberty count within int16.
func NewBoard(size int) (*Board, error) {
	if size < 3 || size > 25 {
		return nil, fmt.Errorf("leela: unsupported board size %d", size)
	}
	n := size * size
	b := &Board{
		Size:    size,
		points:  make([]Color, n),
		koPoint: -1,
		head:    make([]int16, n),
		next:    make([]int16, n),
		libs:    make([]int16, n),
		stones:  make([]int16, n),
		visited: make([]int32, n),
		nbr:     make([]int16, n*4),
		nbrN:    make([]uint8, n),
	}
	for c := range b.adj {
		b.adj[c] = make([]uint8, n)
	}
	for _, c := range [...]Color{Black, White} {
		b.cand[c] = make([]uint64, (n+63)/64)
		// Every point of an empty board is a candidate: it has a neighbor,
		// and none is occupied.
		for p := 0; p < n; p++ {
			b.cand[c][p>>6] |= 1 << (p & 63)
		}
	}
	for p := 0; p < n; p++ {
		r, c := p/size, p%size
		k := p * 4
		if r > 0 {
			b.nbr[k] = int16(p - size)
			k++
		}
		if r < size-1 {
			b.nbr[k] = int16(p + size)
			k++
		}
		if c > 0 {
			b.nbr[k] = int16(p - 1)
			k++
		}
		if c < size-1 {
			b.nbr[k] = int16(p + 1)
			k++
		}
		b.nbrN[p] = uint8(k - p*4)
		b.adj[Vacant][p] = b.nbrN[p]
		// Pad edge/corner slots with the point itself so the liberty
		// recount can iterate a fixed 4 entries: a self entry is occupied
		// by the chain being counted, so it is never counted as a liberty.
		for ; k < p*4+4; k++ {
			b.nbr[k] = int16(p)
		}
	}
	return b, nil
}

// At returns the point's color.
func (b *Board) At(p int) Color { return b.points[p] }

// Captures reports stones captured by c.
func (b *Board) Captures(c Color) int { return b.captures[c] }

// nextStamp advances the visited-marking stamp, clearing the visited array
// on (unlikely) wraparound so long-lived boards stay correct.
func (b *Board) nextStamp() {
	if b.stamp == math.MaxInt32 {
		for i := range b.visited {
			b.visited[i] = 0
		}
		b.stamp = 0
	}
	b.stamp++
}

// legalVacant is Legal without the bounds and occupancy checks, for a
// vacant point p, decided from the kept counts and chain state:
// a vacant neighbor (adj[Vacant] counts them) is a liberty of the new
// stone; an opponent neighbor
// chain with exactly one liberty must have p as that liberty (p is vacant
// and adjacent), so the move captures; a friendly neighbor chain with a
// second liberty beyond p keeps the merged chain alive. Otherwise the move
// is suicide.
func (b *Board) legalVacant(p int, c Color) bool {
	if p == b.koPoint {
		return false
	}
	if b.adj[Vacant][p] != 0 {
		return true
	}
	k := p * 4
	for _, nb := range b.nbr[k : k+int(b.nbrN[p])] {
		libs := b.libs[b.head[nb]]
		if b.points[nb] == c {
			if libs >= 2 {
				return true
			}
		} else if libs == 1 {
			return true
		}
	}
	return false
}

// ErrIllegalMove reports an illegal play.
var ErrIllegalMove = errors.New("leela: illegal move")

// Legal reports whether c may play at p.
func (b *Board) Legal(p int, c Color) bool {
	if p == PassMove {
		return true
	}
	if p < 0 || p >= len(b.points) || b.points[p] != Vacant {
		return false
	}
	return b.legalVacant(p, c)
}

// Play places a stone for c at p (or passes). It returns the number of
// stones captured, or an error for illegal moves.
func (b *Board) Play(p int, c Color) (int, error) {
	if p == PassMove {
		b.koPoint = -1
		return 0, nil
	}
	if !b.Legal(p, c) {
		return 0, fmt.Errorf("%w: %s at %d", ErrIllegalMove, c, p)
	}
	opp := c.Opponent()
	b.setPoint(p, c)
	b.head[p], b.next[p], b.stones[p] = int16(p), int16(p), 1
	// Collect the distinct neighbor chains; p takes one liberty from each
	// opponent chain, and the largest friendly chain absorbs the rest.
	k := p * 4
	var oppHeads [4]int16
	nOpp := 0
	big := int16(p)
	for _, nb := range b.nbr[k : k+int(b.nbrN[p])] {
		h := b.head[nb]
		switch b.points[nb] {
		case opp:
			if !containsHead(oppHeads[:nOpp], h) {
				oppHeads[nOpp] = h
				nOpp++
				b.libs[h]--
			}
		case c:
			if h != big {
				if b.stones[h] > b.stones[big] {
					big, h = h, big
				}
				b.mergeInto(big, h)
			}
		}
	}
	b.libs[big] = b.countLiberties(big)
	// Capture every opponent chain p left without liberties.
	captured := 0
	koCandidate := -1
	for _, h := range oppHeads[:nOpp] {
		if b.libs[h] != 0 {
			continue
		}
		if b.stones[h] == 1 {
			koCandidate = int(h)
		}
		captured += b.removeChain(h)
	}
	b.captures[c] += captured
	// Simple ko: exactly one stone captured by a single new stone whose
	// chain has exactly that one liberty.
	if captured == 1 && b.stones[big] == 1 && b.libs[big] == 1 {
		b.koPoint = koCandidate
	} else {
		b.koPoint = -1
	}
	return captured, nil
}

// setPoint sets p to col and refreshes the candidate state it touches: its
// neighbors' counts of the old and new color, their candidate bits for the
// old and new stone color, and p's own bits.
func (b *Board) setPoint(p int, col Color) {
	old := b.points[p]
	b.points[p] = col
	k := p * 4
	for _, nb := range b.nbr[k : k+int(b.nbrN[p])] {
		b.adj[old][nb]--
		b.adj[col][nb]++
		if old != Vacant {
			b.refreshCand(int(nb), old)
		}
		if col != Vacant {
			b.refreshCand(int(nb), col)
		}
	}
	b.refreshCand(p, Black)
	b.refreshCand(p, White)
}

// refreshCand recomputes p's candidate bit for c.
func (b *Board) refreshCand(p int, c Color) {
	w, bit := p>>6, uint64(1)<<(p&63)
	if b.points[p] == Vacant && b.adj[c][p] < b.nbrN[p] {
		b.cand[c][w] |= bit
	} else {
		b.cand[c][w] &^= bit
	}
}

// containsHead reports whether h is among heads.
func containsHead(heads []int16, h int16) bool {
	for _, x := range heads {
		if x == h {
			return true
		}
	}
	return false
}

// mergeInto relabels the chain headed by small to head big and splices the
// two stone rings.
func (b *Board) mergeInto(big, small int16) {
	s := small
	for {
		b.head[s] = big
		s = b.next[s]
		if s == small {
			break
		}
	}
	b.next[big], b.next[small] = b.next[small], b.next[big]
	b.stones[big] += b.stones[small]
}

// countLiberties counts the distinct vacant points next to the chain headed
// by h with one stamp walk of its ring.
func (b *Board) countLiberties(h int16) int16 {
	b.nextStamp()
	n := int16(0)
	s := h
	for {
		k := int(s) * 4
		for _, nb := range b.nbr[k : k+4 : k+4] {
			if b.points[nb] == Vacant && b.visited[nb] != b.stamp {
				b.visited[nb] = b.stamp
				n++
			}
		}
		s = b.next[s]
		if s == h {
			break
		}
	}
	return n
}

// removeChain empties the chain headed by h and gives each distinct chain
// next to each removed stone one liberty back. It returns the chain's size.
func (b *Board) removeChain(h int16) int {
	col := b.points[h]
	s := h
	for {
		b.setPoint(int(s), Vacant)
		k := int(s) * 4
		var seen [4]int16
		nSeen := 0
		for _, nb := range b.nbr[k : k+int(b.nbrN[s])] {
			// Stones of col left on the board belong to this chain and are
			// about to go; every other occupied neighbor gains s.
			if pc := b.points[nb]; pc == Vacant || pc == col {
				continue
			}
			if nh := b.head[nb]; !containsHead(seen[:nSeen], nh) {
				seen[nSeen] = nh
				nSeen++
				b.libs[nh]++
			}
		}
		s = b.next[s]
		if s == h {
			break
		}
	}
	return int(b.stones[h])
}

// Clone deep-copies the board.
func (b *Board) Clone() *Board {
	c := &Board{
		Size:     b.Size,
		points:   append([]Color(nil), b.points...),
		koPoint:  b.koPoint,
		captures: b.captures,
		head:     append([]int16(nil), b.head...),
		next:     append([]int16(nil), b.next...),
		libs:     append([]int16(nil), b.libs...),
		stones:   append([]int16(nil), b.stones...),
		visited:  make([]int32, len(b.points)),
		// The neighbor table is immutable — clones share it.
		nbr:  b.nbr,
		nbrN: b.nbrN,
	}
	for col := range b.adj {
		c.adj[col] = append([]uint8(nil), b.adj[col]...)
		c.cand[col] = append([]uint64(nil), b.cand[col]...)
	}
	return c
}

// CopyFrom resets b to src's position, chain state included, without
// allocating. The boards must share a size; the visited stamps are left
// as-is, since stamps only ever advance and stale marks never alias fresh
// ones.
func (b *Board) CopyFrom(src *Board) {
	copy(b.points, src.points)
	copy(b.head, src.head)
	copy(b.next, src.next)
	copy(b.libs, src.libs)
	copy(b.stones, src.stones)
	for c := range b.adj {
		copy(b.adj[c], src.adj[c])
		copy(b.cand[c], src.cand[c])
	}
	b.koPoint = src.koPoint
	b.captures = src.captures
}

// Score computes area scores (stones + surrounded empty territory) for both
// players. Empty regions touching both colors count for neither.
func (b *Board) Score() (black, white int) {
	n := len(b.points)
	// One stamp marks every visited vacant point: regions are disjoint, so
	// a single stamp suffices and no per-call allocation is needed.
	b.nextStamp()
	for p := 0; p < n; p++ {
		switch b.points[p] {
		case Black:
			black++
		case White:
			white++
		case Vacant:
			if b.visited[p] == b.stamp {
				continue
			}
			// Flood-fill the vacant region, noting bordering colors.
			b.queue = b.queue[:0]
			b.queue = append(b.queue, p)
			b.visited[p] = b.stamp
			touchBlack, touchWhite := false, false
			for i := 0; i < len(b.queue); i++ {
				q := b.queue[i]
				k := q * 4
				for _, nb := range b.nbr[k : k+int(b.nbrN[q])] {
					switch b.points[nb] {
					case Black:
						touchBlack = true
					case White:
						touchWhite = true
					case Vacant:
						if b.visited[nb] != b.stamp {
							b.visited[nb] = b.stamp
							b.queue = append(b.queue, int(nb))
						}
					}
				}
			}
			if touchBlack && !touchWhite {
				black += len(b.queue)
			} else if touchWhite && !touchBlack {
				white += len(b.queue)
			}
		}
	}
	return black, white
}

// sgfCoords are the letter coordinates of SGF point notation.
const sgfCoords = "abcdefghijklmnopqrstuvwxy"

// MoveToSGF renders a move in SGF point notation ("" for pass).
func MoveToSGF(p, size int) string {
	if p == PassMove {
		return ""
	}
	return string([]byte{sgfCoords[p%size], sgfCoords[p/size]})
}

// SGFToMove parses an SGF point ("" = pass).
func SGFToMove(s string, size int) (int, error) {
	if s == "" {
		return PassMove, nil
	}
	if len(s) != 2 {
		return 0, fmt.Errorf("leela: bad SGF point %q", s)
	}
	c := strings.IndexByte(sgfCoords, s[0])
	r := strings.IndexByte(sgfCoords, s[1])
	if c < 0 || r < 0 || c >= size || r >= size {
		return 0, fmt.Errorf("leela: SGF point %q outside %dx%d board", s, size, size)
	}
	return r*size + c, nil
}
