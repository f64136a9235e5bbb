// Package perf provides the instrumentation layer between the benchmark
// implementations and the micro-architecture model in internal/uarch. A
// Profiler plays the role that hardware performance counters and a
// sampling profiler played in the paper: it attributes modeled pipeline
// slots to the method currently executing, classifies them with the
// top-down methodology, and reports per-method coverage.
//
// Benchmarks call Enter/Leave (or Do) to delimit methods, Ops/LongOps to
// retire work, Branch to route real branch outcomes through the modeled
// predictor, and Load/Store to route real addresses through the modeled
// cache hierarchy.
package perf

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/stats"
	"repro/internal/uarch"
)

// ClockHz is the modeled core frequency, matching the i7-2600's 3.4 GHz.
const ClockHz = 3.4e9

// opBytes is the modeled average encoded size of one micro-op, used to
// advance the instruction-fetch pointer through a method's code footprint.
const opBytes = 4

// DefaultFootprint is the synthetic code size assigned to a method unless
// SetFootprint overrides it. Larger, flatter programs (a compiler, an XSLT
// engine) should declare bigger footprints so the front-end model sees
// their instruction-cache pressure.
const DefaultFootprint = 1 << 10

type methodRecord struct {
	name     string
	codeBase uint64
	codeSize uint64
	fetchOff uint64

	// Exact event counts.
	ops, longOps    uint64
	branches, taken uint64
	loads, stores   uint64

	probeCounts

	// Phase-sampled measure passes (see sampled.go): base is probeCounts as
	// it stood when the current weighted interval first touched this
	// record, and touched says the interval has.
	base    probeCounts
	touched bool
}

// probeCounts are a method's simulator probe outcomes: the counters a
// sampled measure pass extrapolates by interval weight.
type probeCounts struct {
	sMispredicts, sL2, sLLC, sMem, sTLBMiss uint64
	icMiss, itlbMiss                        uint64
}

// Profiler is the modeled equivalent of "perf stat -e topdown... + perf
// record". It is not safe for concurrent use; benchmarks are single-threaded
// (SPEC CPU rate runs are independent copies).
type Profiler struct {
	model uarch.Model
	tour  *uarch.Tournament
	mem   *uarch.Hierarchy
	l1i   *uarch.Cache
	itlb  *uarch.Cache

	// mirror is nil outside the differential tests (see eventMirror).
	mirror eventMirror

	// samp, when non-nil, puts the profiler in a phase-sampled pass (see
	// sampled.go). The exact hot path pays a nil check in probing and one in
	// tick.
	samp *sampState

	// memShift is the data-side coalescing granularity (log2 of the L1 line
	// size): two addresses with equal addr>>memShift are indistinguishable
	// to the modeled hierarchy. Batched APIs rely on it.
	memShift uint

	// lastData and lastFetch memoize the line of the most recent data and
	// instruction probe. A repeat of the last probed line is a guaranteed
	// MRU hit at every level — probing it neither changes simulator state
	// nor any Report counter — so the probe is skipped entirely (see
	// DESIGN.md). lastFetchPage is the same memo one level up: the page of
	// the most recent ITLB probe, which only fetch makes. Sentinel ^0 means
	// "nothing probed yet".
	lastData      uint64
	lastFetch     uint64
	lastFetchPage uint64

	methods map[string]*methodRecord
	order   []string
	stack   []*methodRecord
	current *methodRecord

	// methodBuf backs Report's Methods slice; Report clears and refills it
	// instead of allocating, so each Report invalidates the Methods slice
	// of the previous one (see Report's doc comment).
	methodBuf []MethodProfile

	started time.Time
}

// eventMirror is handed, in lockstep, every event the public event methods
// take, with the host's record of the method current at the event. It is a
// test seam: the differential tests attach the retained pre-optimization
// event path here (see export_test.go), and nothing outside _test.go files
// sets it. Leave and SetFootprint are not mirrored; a mirror reads
// attribution and codeSize from the record it is handed. Reset is not
// mirrored either, so a mirror sees the events of one run.
type eventMirror interface {
	Enter(m *methodRecord)
	Ops(m *methodRecord, n uint64)
	LongOps(m *methodRecord, n uint64)
	Branch(m *methodRecord, site uint64, taken bool)
	Jump(m *methodRecord)
	Load(m *methodRecord, addr uint64)
	Store(m *methodRecord, addr uint64)
	LoadRange(m *methodRecord, base, stride, n uint64)
	StoreRange(m *methodRecord, base, stride, n uint64)
	LoadStore(m *methodRecord, addr uint64)
	LoadStoreRange(m *methodRecord, base, stride, n uint64)
	OpsBranch(m *methodRecord, n, site uint64, taken bool)
}

// New returns a profiler with the default slot cost model.
func New() *Profiler {
	p := &Profiler{
		model:         uarch.DefaultModel(),
		tour:          uarch.NewTournament(14),
		mem:           uarch.NewHierarchy(),
		l1i:           uarch.NewCache(uarch.CacheConfig{Name: "L1I", SizeB: 32 << 10, Ways: 8, LineSize: 64}),
		itlb:          uarch.NewCache(uarch.CacheConfig{Name: "ITLB", SizeB: 128 * 4096, Ways: 4, LineSize: 4096}),
		methods:       make(map[string]*methodRecord),
		started:       time.Now(),
		lastData:      ^uint64(0),
		lastFetch:     ^uint64(0),
		lastFetchPage: ^uint64(0),
	}
	p.memShift = p.mem.L1.LineShift()
	p.current = p.method("(toplevel)")
	return p
}

// Reset restores the profiler to its just-constructed state — cleared
// method table, cold simulators, fresh wall clock — without reallocating
// anything: the modeled hierarchy is cleared in place and the method
// records are kept and zeroed rather than rebuilt, so a profiler can be
// recycled across repetitions and across (benchmark, workload) cells with
// no allocation rework. The harness relies on this.
//
// Recycled records are restored exactly to their just-constructed state
// (counters and fetch offset zeroed, footprint back to DefaultFootprint),
// so a Reset profiler's Report is bit-identical to a fresh profiler's for
// the same event stream; Report's output ordering is independent of the
// retained insertion order because it sorts by (cycles, name) and skips
// methods that observed no events.
func (p *Profiler) Reset() {
	p.tour.Reset()
	p.mem.Reset()
	p.l1i.Reset()
	p.itlb.Reset()
	p.lastData = ^uint64(0)
	p.lastFetch = ^uint64(0)
	p.lastFetchPage = ^uint64(0)
	// Reset leaves sampled mode: each sampled pass is re-entered explicitly
	// on a Reset profiler via BeginSampleProfile/BeginSampleMeasure.
	p.samp = nil
	// Keep and clear the records: name and codeBase are pure functions of
	// the method name, so a recycled record is indistinguishable from a
	// fresh one once its run state is zeroed.
	for _, m := range p.methods {
		*m = methodRecord{name: m.name, codeBase: m.codeBase, codeSize: DefaultFootprint}
	}
	p.stack = p.stack[:0]
	p.current = p.method("(toplevel)")
	p.started = time.Now()
}

// method returns (creating if needed) the record for name, assigning it a
// synthetic, stable code region.
func (p *Profiler) method(name string) *methodRecord {
	if m, ok := p.methods[name]; ok {
		return m
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	m := &methodRecord{
		name:     name,
		codeBase: (h &^ 0x3f) | 0x4000000000, // cache-line aligned, away from data
		codeSize: DefaultFootprint,
	}
	p.methods[name] = m
	p.order = append(p.order, name)
	return m
}

// SetFootprint declares the synthetic code size, in bytes, of a method. It
// may be called before or after the method first runs. The fetch offset is
// reduced modulo the new size, which keeps fetch's walk on the same lines:
// the walk is modular in the footprint.
func (p *Profiler) SetFootprint(name string, bytes uint64) {
	if bytes < 64 {
		bytes = 64
	}
	m := p.method(name)
	m.codeSize = bytes &^ 0x3f
	m.fetchOff %= m.codeSize
}

// Enter pushes method name onto the region stack. Events observed until the
// matching Leave (or a nested Enter) are attributed to it.
func (p *Profiler) Enter(name string) {
	p.stack = append(p.stack, p.current)
	m := p.method(name)
	p.current = m
	if p.mirror != nil {
		p.mirror.Enter(m)
	}
	// A call re-steers fetch to the method entry. It retires no ops (no
	// interval tick), but it is the strongest phase signal, so it weighs
	// extra in a profile pass's signature.
	if p.probing(m) {
		p.fetch(m, 1)
	} else {
		advanceFetch(m, 1)
		p.samp.sign(m.codeBase, enterSigWeight)
	}
}

// Leave pops the region stack. Unbalanced Leave calls panic: they indicate
// an instrumentation bug in a benchmark.
func (p *Profiler) Leave() {
	if len(p.stack) == 0 {
		panic("perf: Leave without matching Enter")
	}
	p.current = p.stack[len(p.stack)-1]
	p.stack = p.stack[:len(p.stack)-1]
}

// Do runs fn inside an Enter/Leave pair for name.
func (p *Profiler) Do(name string, fn func()) {
	p.Enter(name)
	defer p.Leave()
	fn()
}

// probing reports whether an event of m probes the simulators: always on
// the exact path and in a warm pass, only in live intervals of a measure
// pass, never in a profile pass. In a weighted interval it first records
// m's fold base (see sampState.touch), so the probes count straight into
// m's report counters and the boundary fold extrapolates their growth.
func (p *Profiler) probing(m *methodRecord) bool {
	s := p.samp
	if s == nil {
		return true
	}
	if s.weight > 1 {
		s.touch(m)
	}
	return s.weight > 0
}

// tick retires n ops against a sampled pass's interval clock.
func (p *Profiler) tick(n uint64) {
	if p.samp != nil {
		p.sampAdvance(n)
	}
}

// fetch advances the current method's instruction-fetch pointer by n ops and
// touches the instruction cache/TLB for every 64-byte line crossed.
func (p *Profiler) fetch(m *methodRecord, n uint64) {
	bytes := fetchBytes(m, n)
	// off is the walk's offset into the footprint; it stays below codeSize,
	// and codeSize is a multiple of 64 of at least 64, so each step wraps
	// with at most one subtraction.
	off := m.fetchOff
	for done := uint64(0); done < bytes; done += 64 {
		addr := m.codeBase + off
		off = wrapFetch(off+64, m.codeSize)
		// A refetch of the line just fetched (a short Ops batch that did
		// not cross a line boundary) is a guaranteed L1I and ITLB MRU hit
		// with no state change; skip the probes.
		line := addr >> 6
		if line == p.lastFetch {
			continue
		}
		p.lastFetch = line
		if !p.l1i.Access(addr) {
			m.icMiss++
		}
		// Likewise a new line on the page of the last ITLB probe: nothing
		// else probes the ITLB, so that page is still its set's MRU entry.
		if page := addr >> itlbPageShift; page != p.lastFetchPage {
			p.lastFetchPage = page
			if !p.itlb.Access(addr) {
				m.itlbMiss++
			}
		}
	}
	m.fetchOff = wrapFetch(m.fetchOff+bytes, m.codeSize)
}

// itlbPageShift is log2 of the modeled ITLB's 4 KiB page, its line size.
const itlbPageShift = 12

// fetchBytes is the length of the fetch walk for n ops in m. The walk is
// bounded so a huge Ops batch in a small method costs one pass over its
// footprint (the loop body is resident after that); the bound, 2·codeSize,
// is what lets wrapFetch stand in for a modulo.
func fetchBytes(m *methodRecord, n uint64) uint64 {
	bytes := n * opBytes
	if bytes > m.codeSize*2 {
		bytes = m.codeSize * 2
	}
	return bytes
}

// wrapFetch reduces a fetch offset x < 3·size modulo size. fetchOff stays
// below codeSize and a walk adds at most 2·codeSize, so two conditional
// subtractions replace the division.
func wrapFetch(x, size uint64) uint64 {
	if x >= size {
		x -= size
	}
	if x >= size {
		x -= size
	}
	return x
}

// Ops retires n simple micro-ops in the current method.
func (p *Profiler) Ops(n uint64) {
	m := p.current
	if p.mirror != nil {
		p.mirror.Ops(m, n)
	}
	m.ops += n
	if p.probing(m) {
		p.fetch(m, n)
	} else {
		advanceFetch(m, n)
	}
	p.tick(n)
}

// LongOps retires n long-latency micro-ops (divisions, square roots,
// transcendental kernels) in the current method.
func (p *Profiler) LongOps(n uint64) {
	m := p.current
	if p.mirror != nil {
		p.mirror.LongOps(m, n)
	}
	m.longOps += n
	if p.probing(m) {
		p.fetch(m, n)
	} else {
		advanceFetch(m, n)
	}
	p.tick(n)
}

// Branch records a dynamic conditional branch at the given site (any value
// stable for the static branch) with its actual outcome. The site is
// combined with the method's code region so sites are globally distinct.
func (p *Profiler) Branch(site uint64, taken bool) {
	m := p.current
	if p.mirror != nil {
		p.mirror.Branch(m, site, taken)
	}
	m.branches++
	if taken {
		m.taken++
	}
	m.ops++ // the branch itself retires
	pc := m.codeBase + site*8
	if p.probing(m) {
		if !p.tour.Observe(pc, taken) {
			m.sMispredicts++
		}
	} else {
		p.samp.sign(pc, 1)
	}
	p.tick(1)
}

// Jump records an unconditional control transfer: it retires one op and
// redirects fetch (same front-end bubble as a taken branch), but involves
// no prediction. It is the one event method the compiler inlines (its one
// call site is gcc's VM dispatch loop), so its mirror and sampled-mode hooks
// sit out of line, behind one combined check.
func (p *Profiler) Jump() {
	p.current.ops++
	p.current.taken++
	if p.samp != nil || p.mirror != nil {
		p.jumpHooks()
	}
}

// jumpHooks mirrors a Jump and retires its op against a sampled pass's
// interval clock.
func (p *Profiler) jumpHooks() {
	if p.mirror != nil {
		p.mirror.Jump(p.current)
	}
	p.tick(1)
}

// Load records a data load from addr through the modeled hierarchy.
func (p *Profiler) Load(addr uint64) {
	m := p.current
	if p.mirror != nil {
		p.mirror.Load(m, addr)
	}
	m.loads++
	m.ops++
	if p.probing(m) {
		p.classifyLoad(m, addr)
	}
	p.tick(1)
}

// Store records a data store to addr. Stores allocate in the hierarchy but
// their latency is assumed hidden by the store buffer, so only TLB misses
// and line fills are modeled.
func (p *Profiler) Store(addr uint64) {
	m := p.current
	if p.mirror != nil {
		p.mirror.Store(m, addr)
	}
	m.stores++
	m.ops++
	if p.probing(m) {
		p.storeProbe(m, addr)
	}
	p.tick(1)
}

// events converts a method record to uarch events.
func (m *methodRecord) events() uarch.Events {
	return uarch.Events{
		Ops:         m.ops,
		LongOps:     m.longOps,
		Branches:    m.branches,
		Taken:       m.taken,
		Mispredicts: m.sMispredicts,
		Loads:       m.loads,
		Stores:      m.stores,
		L2Hits:      m.sL2,
		LLCHits:     m.sLLC,
		MemHits:     m.sMem,
		TLBMisses:   m.sTLBMiss,
		ICMisses:    m.icMiss,
		ITLBMisses:  m.itlbMiss,
	}
}

// MethodProfile is the per-method portion of a report.
type MethodProfile struct {
	Name   string
	Events uarch.Events
	Slots  uarch.Slots
	Cycles uint64
}

// Report is the complete observation of one benchmark execution: the whole-
// program event totals, top-down classification, modeled time, and method
// coverage.
type Report struct {
	Total     uarch.Events
	Slots     uarch.Slots
	Cycles    uint64
	TopDown   stats.TopDown
	Methods   []MethodProfile
	Coverage  stats.Coverage
	WallTime  time.Duration
	ModeledNS float64
}

// Report finalizes and returns the observation. The profiler can keep
// accumulating afterwards; Report is a snapshot — except for the Methods
// slice, which is backed by a buffer the profiler recycles: the next
// Report or Reset call on the same profiler overwrites it. Callers that
// retain Methods across Report calls must copy it; the scalar fields and
// the Coverage map are always fresh.
func (p *Profiler) Report() Report {
	if len(p.stack) != 0 {
		panic(fmt.Sprintf("perf: Report with %d unmatched Enter calls (current %q)", len(p.stack), p.current.name))
	}
	// A sampled measure pass ends here: fold the final interval.
	if p.samp != nil {
		p.samp.fold()
	}
	var total uarch.Events
	var totalSlots uarch.Slots
	rep := Report{Coverage: stats.Coverage{}, Methods: p.methodBuf[:0]}

	for _, name := range p.order {
		m := p.methods[name]
		ev := m.events()
		slots := p.model.Account(ev)
		if slots.Total() == 0 {
			continue
		}
		total.Add(ev)
		totalSlots.Add(slots)
		rep.Methods = append(rep.Methods, MethodProfile{
			Name:   name,
			Events: ev,
			Slots:  slots,
			Cycles: p.model.Cycles(slots),
		})
	}

	rep.Total = total
	rep.Slots = totalSlots
	rep.Cycles = p.model.Cycles(totalSlots)
	fe, be, bs, rt := totalSlots.Fractions()
	rep.TopDown = stats.TopDown{FrontEnd: fe, BackEnd: be, BadSpec: bs, Retiring: rt}

	if rep.Cycles > 0 {
		for i := range rep.Methods {
			rep.Coverage[rep.Methods[i].Name] = float64(rep.Methods[i].Slots.Total()) / float64(totalSlots.Total())
		}
	}
	sort.Slice(rep.Methods, func(i, j int) bool {
		if rep.Methods[i].Cycles != rep.Methods[j].Cycles {
			return rep.Methods[i].Cycles > rep.Methods[j].Cycles
		}
		return rep.Methods[i].Name < rep.Methods[j].Name
	})
	p.methodBuf = rep.Methods
	rep.WallTime = time.Since(p.started)
	rep.ModeledNS = float64(rep.Cycles) / ClockHz * 1e9
	return rep
}

// ModeledSeconds converts modeled cycles to seconds at the modeled clock.
func ModeledSeconds(cycles uint64) float64 { return float64(cycles) / ClockHz }
