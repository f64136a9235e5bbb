// Package uarch models the micro-architectural resources whose utilization
// Intel's top-down methodology measures: branch prediction, the cache/TLB
// hierarchy, and a pipeline-slot cycle-accounting model that classifies
// every issue slot as front-end bound, back-end bound, bad speculation, or
// retiring (Section V-B of the paper).
//
// The paper measured real hardware counters on an i7-2600; this package is
// the synthetic substitute. It is driven by the *actual* branch outcomes and
// memory addresses of the benchmark implementations, so workload-induced
// behaviour changes surface in the same four categories the paper reports.
package uarch

// Predictor is a branch direction predictor. Predict-then-update is folded
// into a single Observe call because the model never needs the prediction
// without immediately learning the outcome.
type Predictor interface {
	// Observe records a dynamic branch at the given site with the actual
	// outcome and reports whether the predictor had predicted it
	// correctly.
	Observe(site uint64, taken bool) (correct bool)
	// Reset restores the initial predictor state.
	Reset()
}

// twoBit is a saturating 2-bit counter: 0,1 predict not-taken; 2,3 predict
// taken.
type twoBit uint8

func (c twoBit) taken() bool { return c >= 2 }

func (c twoBit) update(taken bool) twoBit {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// satNext is the saturating 2-bit counter transition table, indexed by
// (counter<<1)|outcome. It is twoBit.update flattened into a branchless
// lookup for the predictor hot path.
var satNext = [8]twoBit{
	0, 1, // from 0: not-taken → 0, taken → 1
	0, 2, // from 1
	1, 3, // from 2
	2, 3, // from 3
}

// tournEntry packs the two per-site tables the tournament indexes with the
// same hash — the bimodal counter and the chooser — into one slot, so a
// branch touches one cache line for both.
type tournEntry struct {
	bimodal twoBit
	chooser twoBit // ≥2 selects gshare
}

// Tournament combines a bimodal and a gshare predictor with a per-site
// chooser, approximating the hybrid predictors of the Sandy Bridge era
// machines used in the paper.
type Tournament struct {
	sites    []tournEntry
	gshare   []twoBit
	mask     uint64
	history  uint64
	histMask uint64
}

// NewTournament returns a tournament predictor with 2^bits entries in each
// component table and a 12-bit gshare history.
func NewTournament(bits uint) *Tournament {
	n := uint64(1) << bits
	t := &Tournament{
		sites:    make([]tournEntry, n),
		gshare:   make([]twoBit, n),
		mask:     n - 1,
		histMask: (1 << 12) - 1,
	}
	t.Reset()
	return t
}

// Reset restores all component predictors and the chooser.
func (t *Tournament) Reset() {
	for i := range t.sites {
		t.sites[i] = tournEntry{bimodal: 2, chooser: 2} // weakly taken, weakly prefer gshare
	}
	for i := range t.gshare {
		t.gshare[i] = 2
	}
	t.history = 0
}

// Observe implements Predictor. The site is hashed once and shared by the
// chooser and both component tables (the components index with the same
// mix(site) value they would compute themselves), and counters step through
// satNext, so predictions are bit-identical to the retained RefTournament —
// three hashes and branchy updates per branch — which
// TestTournamentMatchesReference asserts.
func (t *Tournament) Observe(site uint64, taken bool) bool {
	h := mix(site)
	e := &t.sites[h&t.mask]
	gi := (h ^ t.history) & t.mask
	g := t.gshare[gi]
	bit := twoBit(0)
	if taken {
		bit = 1
	}
	bCorrect := e.bimodal.taken() == taken
	gCorrect := g.taken() == taken
	useGshare := e.chooser.taken()
	e.bimodal = satNext[e.bimodal<<1|bit]
	t.gshare[gi] = satNext[g<<1|bit]
	t.history = (t.history<<1 | uint64(bit)) & t.histMask
	// Train the chooser toward whichever component was right.
	if gCorrect != bCorrect {
		gbit := twoBit(0)
		if gCorrect {
			gbit = 1
		}
		e.chooser = satNext[e.chooser<<1|gbit]
	}
	if useGshare {
		return gCorrect
	}
	return bCorrect
}

// mix is a 64-bit finalizer (splitmix64) that spreads branch-site
// identifiers across the predictor tables.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
