package leela

import (
	"errors"
	"fmt"
)

// oracle is the flood-fill reference for Board: the same rules over a bare
// point array, deciding every liberty question by flooding the group
// instead of reading chain state.
type oracle struct {
	size     int
	points   []Color
	koPoint  int
	captures [3]int
	// nbrs[p] lists p's orthogonal neighbors in up/down/left/right order.
	nbrs [][]int
	// seen[q] == gen marks q as visited by the current flood, whose stones
	// are collected in buf.
	seen []int
	gen  int
	buf  []int
}

func newOracle(size int) *oracle {
	n := size * size
	o := &oracle{size: size, points: make([]Color, n), koPoint: -1,
		nbrs: make([][]int, n), seen: make([]int, n), buf: make([]int, 0, n)}
	for p := range o.nbrs {
		r, c := p/size, p%size
		nbs := make([]int, 0, 4)
		if r > 0 {
			nbs = append(nbs, p-size)
		}
		if r < size-1 {
			nbs = append(nbs, p+size)
		}
		if c > 0 {
			nbs = append(nbs, p-1)
		}
		if c < size-1 {
			nbs = append(nbs, p+1)
		}
		o.nbrs[p] = nbs
	}
	return o
}

// oracleOf snapshots b's position.
func oracleOf(b *Board) *oracle {
	o := newOracle(b.Size)
	o.load(b)
	return o
}

// load replaces o's position with b's.
func (o *oracle) load(b *Board) {
	copy(o.points, b.points)
	o.koPoint, o.captures = b.koPoint, b.captures
}

// group flood-fills the group containing the occupied point p, returning
// its stones in visit order and its distinct liberty count. The stones
// slice is reused by the next call.
func (o *oracle) group(p int) (stones []int, libs int) {
	col := o.points[p]
	o.gen++
	o.seen[p] = o.gen
	stones = append(o.buf[:0], p)
	for i := 0; i < len(stones); i++ {
		for _, nb := range o.nbrs[stones[i]] {
			if o.seen[nb] == o.gen {
				continue
			}
			switch o.points[nb] {
			case Vacant:
				o.seen[nb] = o.gen
				libs++
			case col:
				o.seen[nb] = o.gen
				stones = append(stones, nb)
			}
		}
	}
	return stones, libs
}

// scanGroups flood-fills every group on the board: gid maps each occupied
// point to a group index (-1 when vacant), and libs and stones hold each
// group's liberty count and size.
func (o *oracle) scanGroups() (gid, libs, stones []int) {
	gid = make([]int, len(o.points))
	for i := range gid {
		gid[i] = -1
	}
	for p := range o.points {
		if o.points[p] == Vacant || gid[p] >= 0 {
			continue
		}
		g, l := o.group(p)
		for _, q := range g {
			gid[q] = len(libs)
		}
		libs = append(libs, l)
		stones = append(stones, len(g))
	}
	return gid, libs, stones
}

// legal decides c's play at p by placing the stone and flooding: the move
// is legal when it captures an opponent group or its own group keeps a
// liberty, and p is neither occupied nor the ko point.
func (o *oracle) legal(p int, c Color) bool {
	if p == PassMove {
		return true
	}
	if p < 0 || p >= len(o.points) || o.points[p] != Vacant || p == o.koPoint {
		return false
	}
	o.points[p] = c
	defer func() { o.points[p] = Vacant }()
	for _, nb := range o.nbrs[p] {
		if o.points[nb] == c.Opponent() {
			if _, l := o.group(nb); l == 0 {
				return true
			}
		}
	}
	_, l := o.group(p)
	return l > 0
}

// play applies c's move at p with flood-fill captures and simple ko, and
// returns the capture count.
func (o *oracle) play(p int, c Color) (int, error) {
	if p == PassMove {
		o.koPoint = -1
		return 0, nil
	}
	if !o.legal(p, c) {
		return 0, fmt.Errorf("%w: %s at %d", ErrIllegalMove, c, p)
	}
	o.points[p] = c
	captured, koCandidate := 0, -1
	for _, nb := range o.nbrs[p] {
		if o.points[nb] != c.Opponent() {
			continue
		}
		g, l := o.group(nb)
		if l > 0 {
			continue
		}
		if len(g) == 1 {
			koCandidate = g[0]
		}
		for _, q := range g {
			o.points[q] = Vacant
		}
		captured += len(g)
	}
	o.captures[c] += captured
	o.koPoint = -1
	if g, l := o.group(p); captured == 1 && len(g) == 1 && l == 1 {
		o.koPoint = koCandidate
	}
	return captured, nil
}

// eyeLike reports whether p is a single-point eye for c: every neighbor is
// c's (the playout move filter never fills one).
func (o *oracle) eyeLike(p int, c Color) bool {
	for _, nb := range o.nbrs[p] {
		if o.points[nb] != c {
			return false
		}
	}
	return true
}

// candMismatch compares b's kept neighbor counts and playout candidates
// with a scan of the oracle's points: adj[c][p] counts p's neighbors of
// color c, and for Black and White bit p of cand[c] is set exactly when p
// is vacant and not eye-like for c, with no bit set past the last point.
func candMismatch(b *Board, o *oracle) error {
	for _, c := range []Color{Vacant, Black, White} {
		for p, nbs := range o.nbrs {
			n := 0
			for _, nb := range nbs {
				if o.points[nb] == c {
					n++
				}
			}
			if int(b.adj[c][p]) != n {
				return fmt.Errorf("point %d: %d %s neighbors kept, %d on the board", p, b.adj[c][p], c, n)
			}
		}
		if c == Vacant {
			continue
		}
		if len(b.cand[c]) != (len(o.points)+63)/64 {
			return fmt.Errorf("%s: %d candidate words for %d points", c, len(b.cand[c]), len(o.points))
		}
		for p := 0; p < 64*len(b.cand[c]); p++ {
			got := b.cand[c][p>>6]>>(p&63)&1 == 1
			want := p < len(o.points) && o.points[p] == Vacant && !o.eyeLike(p, c)
			if got != want {
				return fmt.Errorf("%s candidate bit %d: board %v, scan %v", c, p, got, want)
			}
		}
	}
	return nil
}

// chainMismatch compares b's position and chain state with the oracle's:
// points, ko point and captures; stones share a head exactly when the
// oracle groups them together; each head's liberty and stone counts equal
// the oracle's; each head's ring visits exactly its chain's stones; and the
// playout candidates match a scan (see candMismatch).
func chainMismatch(b *Board, o *oracle) error {
	for p := range o.points {
		if b.points[p] != o.points[p] {
			return fmt.Errorf("point %d: board %s, oracle %s", p, b.points[p], o.points[p])
		}
	}
	if b.koPoint != o.koPoint {
		return fmt.Errorf("koPoint: board %d, oracle %d", b.koPoint, o.koPoint)
	}
	if b.captures != o.captures {
		return fmt.Errorf("captures: board %v, oracle %v", b.captures, o.captures)
	}
	gid, libs, stones := o.scanGroups()
	headOf := make([]int, len(libs)) // oracle group -> board head
	for g := range headOf {
		headOf[g] = -1
	}
	for p, g := range gid {
		if g < 0 {
			continue
		}
		if h := int(b.head[p]); headOf[g] < 0 {
			headOf[g] = h
		} else if h != headOf[g] {
			return fmt.Errorf("point %d: head %d, but its group's head is %d", p, h, headOf[g])
		}
	}
	// Each head must be a stone of its own group, which also makes the
	// heads of distinct groups distinct.
	visited := make([]bool, len(gid))
	for g, h := range headOf {
		if gid[h] != g || int(b.head[h]) != h {
			return fmt.Errorf("head %d is not a stone of its own chain", h)
		}
		if int(b.libs[h]) != libs[g] || int(b.stones[h]) != stones[g] {
			return fmt.Errorf("head %d: libs %d stones %d, oracle libs %d stones %d",
				h, b.libs[h], b.stones[h], libs[g], stones[g])
		}
		n := 0
		for s := h; ; {
			if gid[s] != g || visited[s] {
				return fmt.Errorf("head %d: ring reaches point %d outside its chain or twice", h, s)
			}
			visited[s] = true
			n++
			if s = int(b.next[s]); s == h {
				break
			}
		}
		if n != stones[g] {
			return fmt.Errorf("head %d: ring visits %d stones, chain has %d", h, n, stones[g])
		}
	}
	return candMismatch(b, o)
}

// playBoth applies one move to the board and the oracle and requires the
// same verdict, capture count, and resulting position and chain state.
func playBoth(b *Board, o *oracle, p int, c Color) (int, error) {
	caps, err := b.Play(p, c)
	wantCaps, wantErr := o.play(p, c)
	if (err == nil) != (wantErr == nil) || (err != nil && !errors.Is(err, ErrIllegalMove)) {
		return 0, fmt.Errorf("%s at %d: board err %v, oracle err %v", c, p, err, wantErr)
	}
	if caps != wantCaps {
		return 0, fmt.Errorf("%s at %d: board captured %d, oracle %d", c, p, caps, wantCaps)
	}
	if mm := chainMismatch(b, o); mm != nil {
		return 0, fmt.Errorf("after %s at %d: %w", c, p, mm)
	}
	return caps, err
}
