package uarch

import "fmt"

// Checkpoint/Restore snapshot the mutable state of the optimized event-path
// simulators so a caller can rewind them to a known point. The sampled
// execution mode (internal/perf) is the client: it captures the warmed-up
// simulator state at the end of the first instruction interval and restores
// it at every dead→live interval transition, so each fully-simulated
// representative interval starts from the same canonical warm state instead
// of whatever the previous live interval left behind.
//
// Snapshots are deep copies: restoring one is idempotent and a restored
// simulator is bit-identical — same hits, misses, replacement decisions,
// predictions — to the simulator at capture time, which the checkpoint tests
// assert by replaying identical access streams.

// CacheState is a point-in-time snapshot of a Cache (or TLB).
type CacheState struct {
	tags     []uint64
	order    []uint64
	accesses uint64
	misses   uint64
}

// Checkpoint captures the cache's complete replacement state and statistics.
func (c *Cache) Checkpoint() *CacheState {
	return &CacheState{
		tags:     append([]uint64(nil), c.tags...),
		order:    append([]uint64(nil), c.order...),
		accesses: c.accesses,
		misses:   c.misses,
	}
}

// Restore rewinds the cache to a snapshot taken from the same geometry. It
// copies in place — no allocation — and panics on a geometry mismatch, which
// indicates a checkpoint from a different cache.
func (c *Cache) Restore(st *CacheState) {
	if len(st.tags) != len(c.tags) || len(st.order) != len(c.order) {
		panic(fmt.Sprintf("uarch: restore of cache %q from mismatched snapshot (%d/%d tags)",
			c.name, len(st.tags), len(c.tags)))
	}
	copy(c.tags, st.tags)
	copy(c.order, st.order)
	c.accesses = st.accesses
	c.misses = st.misses
}

// HierarchyState is a point-in-time snapshot of a Hierarchy.
type HierarchyState struct {
	l1, l2, llc, dtlb *CacheState
	tlbMisses         uint64
}

// Checkpoint captures all four levels plus the DTLB miss counter.
func (h *Hierarchy) Checkpoint() *HierarchyState {
	return &HierarchyState{
		l1:        h.L1.Checkpoint(),
		l2:        h.L2.Checkpoint(),
		llc:       h.LLC.Checkpoint(),
		dtlb:      h.DTLB.Checkpoint(),
		tlbMisses: h.tlbMisses,
	}
}

// Restore rewinds every level to the snapshot.
func (h *Hierarchy) Restore(st *HierarchyState) {
	h.L1.Restore(st.l1)
	h.L2.Restore(st.l2)
	h.LLC.Restore(st.llc)
	h.DTLB.Restore(st.dtlb)
	h.tlbMisses = st.tlbMisses
}

// TournamentState is a point-in-time snapshot of a Tournament predictor.
type TournamentState struct {
	sites   []tournEntry
	gshare  []twoBit
	history uint64
}

// Checkpoint captures both component tables, the choosers, and the global
// history register.
func (t *Tournament) Checkpoint() *TournamentState {
	return &TournamentState{
		sites:   append([]tournEntry(nil), t.sites...),
		gshare:  append([]twoBit(nil), t.gshare...),
		history: t.history,
	}
}

// Restore rewinds the predictor to a snapshot taken from the same table
// geometry; it panics on a size mismatch.
func (t *Tournament) Restore(st *TournamentState) {
	if len(st.sites) != len(t.sites) || len(st.gshare) != len(t.gshare) {
		panic(fmt.Sprintf("uarch: restore of tournament from mismatched snapshot (%d/%d sites)",
			len(st.sites), len(t.sites)))
	}
	copy(t.sites, st.sites)
	copy(t.gshare, st.gshare)
	t.history = st.history
}
