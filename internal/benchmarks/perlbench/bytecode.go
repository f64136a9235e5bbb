package perlbench

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/perf"
)

// Errors raised by the VM at run time. All wrap ErrScript.
var (
	errStepLimit = fmt.Errorf("%w: step limit exceeded", ErrScript)
	errRunaway   = fmt.Errorf("%w: runaway while", ErrScript)
	errDivZero   = fmt.Errorf("%w: division by zero", ErrScript)
	errModZero   = fmt.Errorf("%w: modulo by zero", ErrScript)
)

// interpStepLimit bounds every script run: statements executed, and
// iterations of any one while loop.
const interpStepLimit = 20_000_000

// declareFootprints declares the modeled code footprints of the engine's
// three instrumented methods on p (nil-safe).
func declareFootprints(p *perf.Profiler) {
	if p != nil {
		p.SetFootprint("pp_eval", 6<<10)
		p.SetFootprint("regex_match", 4<<10)
		p.SetFootprint("hash_ops", 3<<10)
	}
}

// bcScratch is the mutable run state of a compiled program, recycled
// across Executes under the prepared-workload scratch-reset contract.
type bcScratch struct {
	scalars []Value
	arrays  [][]Value
	hashes  []map[string]Value
	stack   []Value
	ctrl    []uint64 // while-loop iteration counters
	iters   []iterFrame
	sb      strings.Builder // interpolation scratch
	out     strings.Builder
}

type iterFrame struct {
	items []Value
	idx   int
}

func newScratch(pr *program) *bcScratch {
	sc := &bcScratch{
		scalars: make([]Value, len(pr.scalarNames)),
		arrays:  make([][]Value, len(pr.arrayNames)),
		hashes:  make([]map[string]Value, len(pr.hashNames)),
		stack:   make([]Value, pr.maxStack),
	}
	for i := range sc.hashes {
		sc.hashes[i] = map[string]Value{}
	}
	return sc
}

// reset clears run state in place, keeping every allocation.
func (sc *bcScratch) reset() {
	for i := range sc.scalars {
		sc.scalars[i] = Value{}
	}
	for i := range sc.arrays {
		sc.arrays[i] = sc.arrays[i][:0]
	}
	for i := range sc.hashes {
		clear(sc.hashes[i])
	}
	sc.ctrl = sc.ctrl[:0]
	sc.iters = sc.iters[:0]
	sc.out.Reset()
}

// run executes the program: a flat dispatch loop over branch-free
// expression code plus explicit statement-frame ops. The event stream is
// that of an eager tree-walking evaluator (one pp_eval frame per
// statement, hash and regex events at their operands' evaluation points);
// the tree-walking oracle in oracle_test.go pins it.
func (pr *program) run(sc *bcScratch, p *perf.Profiler, limit uint64) (uint64, error) {
	var (
		code  = pr.code
		stack = sc.stack
		sp    int
		steps uint64
		depth int
		err   error
	)
	if len(stack) < pr.maxStack {
		stack = make([]Value, pr.maxStack)
		sc.stack = stack
	}
	for pc := 0; ; pc++ {
		in := code[pc]
		switch in.op {
		case vHALT:
			return steps, nil

		case vSTMT:
			// Mirrors exec: count and bound BEFORE Enter, so the statement
			// that trips the limit leaves no frame to unwind.
			steps++
			if steps > limit {
				err = errStepLimit
				goto fail
			}
			if p != nil {
				p.Enter("pp_eval")
			}
			depth++

		case vEND:
			if p != nil {
				p.Ops(8)
				p.Leave()
			}
			depth--

		case vASSIGN:
			sp--
			sc.scalars[in.a] = stack[sp]

		case vPRINT:
			sp--
			sc.out.WriteString(stack[sp].Str())

		case vPUSHARR:
			sp--
			sc.arrays[in.a] = append(sc.arrays[in.a], stack[sp])

		case vHASHSET:
			val := stack[sp-1]
			key := stack[sp-2].Str()
			sp -= 2
			if p != nil {
				p.Enter("hash_ops")
				p.Ops(6)
				p.Store(0x90_0000_0000 + hashAddrSeeded(pr.hashSeeds[in.a], key))
				p.Leave()
			}
			sc.hashes[in.a][key] = val

		case vIFBR:
			sp--
			t := stack[sp].Truthy()
			if p != nil {
				p.Branch(80, t)
			}
			if !t {
				pc = int(in.a) - 1
			}

		case vWHILEBR:
			sp--
			t := stack[sp].Truthy()
			if p != nil {
				p.Branch(81, t)
			}
			if !t {
				pc = int(in.a) - 1
			}

		case vLOOPPUSH:
			sc.ctrl = append(sc.ctrl, 0)

		case vLOOPPOP:
			sc.ctrl = sc.ctrl[:len(sc.ctrl)-1]

		case vITER:
			// Matches the tree-walker's post-body runaway check: iter holds
			// the number of completed bodies minus one.
			n := len(sc.ctrl) - 1
			if sc.ctrl[n] > limit {
				err = errRunaway
				goto fail
			}
			sc.ctrl[n]++
			pc = int(in.a) - 1

		case vJMP:
			pc = int(in.a) - 1

		case vFORA:
			// Slice-header snapshot: pushes inside the body that reallocate
			// the array do not affect this iteration, exactly like ranging
			// over the captured slice in execOne.
			sc.iters = append(sc.iters, iterFrame{items: sc.arrays[in.a]})

		case vFORK:
			h := sc.hashes[in.a]
			keys := make([]string, 0, len(h))
			for k := range h {
				keys = append(keys, k)
			}
			sort.Strings(keys) // deterministic iteration
			items := make([]Value, len(keys))
			for i, k := range keys {
				items[i] = StrValue(k)
			}
			sc.iters = append(sc.iters, iterFrame{items: items})

		case vITERNEXT:
			fr := &sc.iters[len(sc.iters)-1]
			if fr.idx >= len(fr.items) {
				sc.iters = sc.iters[:len(sc.iters)-1]
				pc = int(in.b) - 1
			} else {
				sc.scalars[in.a] = fr.items[fr.idx]
				fr.idx++
			}

		case vCONST:
			stack[sp] = pr.consts[in.a]
			sp++

		case vSCALAR:
			stack[sp] = sc.scalars[in.a]
			sp++

		case vINTERP:
			sc.sb.Reset()
			for _, part := range pr.interps[in.a] {
				if part.slot >= 0 {
					sc.sb.WriteString(sc.scalars[part.slot].s)
				} else {
					sc.sb.WriteString(part.lit)
				}
			}
			stack[sp] = Value{s: sc.sb.String()}
			sp++

		case vHASHGET:
			key := stack[sp-1].Str()
			if p != nil {
				p.Enter("hash_ops")
				p.Ops(4)
				p.Load(0x90_0000_0000 + hashAddrSeeded(pr.hashSeeds[in.a], key))
				p.Leave()
			}
			stack[sp-1] = sc.hashes[in.a][key]

		case vEXISTS:
			_, ok := sc.hashes[in.a][stack[sp-1].Str()]
			stack[sp-1] = boolVal(ok)

		case vMATCH:
			stack[sp-1] = boolVal(pr.regexes[in.a].matchProfiled(stack[sp-1].Str(), p))

		case vNOTMATCH:
			stack[sp-1] = boolVal(!pr.regexes[in.a].matchProfiled(stack[sp-1].Str(), p))

		case vADD:
			sp--
			stack[sp-1] = NumValue(stack[sp-1].Num() + stack[sp].Num())
		case vSUB:
			sp--
			stack[sp-1] = NumValue(stack[sp-1].Num() - stack[sp].Num())
		case vCONCAT:
			sp--
			stack[sp-1] = StrValue(stack[sp-1].Str() + stack[sp].Str())
		case vMUL:
			sp--
			stack[sp-1] = NumValue(stack[sp-1].Num() * stack[sp].Num())
		case vDIV:
			sp--
			if stack[sp].Num() == 0 {
				err = errDivZero
				goto fail
			}
			stack[sp-1] = NumValue(stack[sp-1].Num() / stack[sp].Num())
		case vMOD:
			sp--
			if int64(stack[sp].Num()) == 0 {
				err = errModZero
				goto fail
			}
			stack[sp-1] = NumValue(float64(int64(stack[sp-1].Num()) % int64(stack[sp].Num())))

		case vNUMEQ:
			sp--
			stack[sp-1] = boolVal(stack[sp-1].Num() == stack[sp].Num())
		case vNUMNE:
			sp--
			stack[sp-1] = boolVal(stack[sp-1].Num() != stack[sp].Num())
		case vNUMLE:
			sp--
			stack[sp-1] = boolVal(stack[sp-1].Num() <= stack[sp].Num())
		case vNUMGE:
			sp--
			stack[sp-1] = boolVal(stack[sp-1].Num() >= stack[sp].Num())
		case vNUMLT:
			sp--
			stack[sp-1] = boolVal(stack[sp-1].Num() < stack[sp].Num())
		case vNUMGT:
			sp--
			stack[sp-1] = boolVal(stack[sp-1].Num() > stack[sp].Num())
		case vSTREQ:
			sp--
			stack[sp-1] = boolVal(stack[sp-1].s == stack[sp].s)
		case vSTRNE:
			sp--
			stack[sp-1] = boolVal(stack[sp-1].s != stack[sp].s)
		case vSTRLT:
			sp--
			stack[sp-1] = boolVal(stack[sp-1].s < stack[sp].s)
		case vSTRGT:
			sp--
			stack[sp-1] = boolVal(stack[sp-1].s > stack[sp].s)

		case vOR:
			sp--
			if !stack[sp-1].Truthy() {
				stack[sp-1] = stack[sp]
			}
		case vAND:
			sp--
			if stack[sp-1].Truthy() {
				stack[sp-1] = stack[sp]
			}
		case vNOT:
			stack[sp-1] = boolVal(!stack[sp-1].Truthy())
		case vNEG:
			stack[sp-1] = NumValue(-stack[sp-1].Num())

		case vLENGTH:
			base := sp - int(in.b)
			stack[base] = NumValue(float64(len(stack[base].Str())))
			sp = base + 1
		case vUC:
			base := sp - int(in.b)
			stack[base] = StrValue(strings.ToUpper(stack[base].Str()))
			sp = base + 1
		case vLC:
			base := sp - int(in.b)
			stack[base] = StrValue(strings.ToLower(stack[base].Str()))
			sp = base + 1
		case vINTB:
			base := sp - int(in.b)
			stack[base] = NumValue(float64(int64(stack[base].Num())))
			sp = base + 1
		case vINDEXB:
			base := sp - int(in.b)
			stack[base] = NumValue(float64(strings.Index(stack[base].Str(), stack[base+1].Str())))
			sp = base + 1
		case vSUBSTRB:
			base := sp - int(in.b)
			stack[base] = StrValue(substrClamp(stack[base].Str(), int(stack[base+1].Num()), int(stack[base+2].Num())))
			sp = base + 1

		case vSCALARLEN:
			stack[sp] = NumValue(float64(len(sc.arrays[in.a])))
			sp++
		case vKEYSLEN:
			stack[sp] = NumValue(float64(len(sc.hashes[in.a])))
			sp++

		case vERR:
			err = pr.errs[in.a]
			goto fail
		}
	}

fail:
	// Unwind: the tree-walker emits Ops(8)+Leave for every statement frame
	// an error propagates through (exec runs them even on execOne failure),
	// innermost first.
	if p != nil {
		for ; depth > 0; depth-- {
			p.Ops(8)
			p.Leave()
		}
	}
	return steps, err
}

// fnvSeed is the FNV-1a state after folding in name; hashAddrSeeded
// continues with key. hashAddr(name, key) == hashAddrSeeded(fnvSeed(name),
// key) — precomputing the per-hash seed drops the name bytes from every
// probe.
func fnvSeed(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	return h
}

func hashAddrSeeded(seed uint64, key string) uint64 {
	h := seed
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	return h % (1 << 22)
}

// ---------------------------------------------------------------------------
// Precompiled regex

type regexQuant uint8

const (
	qOne regexQuant = iota
	qStar
	qPlus
)

type regexKind uint8

const (
	rLit regexKind = iota
	rAny
	rDigit
	rWord
	rSpace
	rClass
)

type regexAtom struct {
	quant regexQuant
	kind  regexKind
	lit   byte
	class *[256]bool
}

func (a *regexAtom) matches(c byte) bool {
	switch a.kind {
	case rLit:
		return c == a.lit
	case rAny:
		return true
	case rDigit:
		return c >= '0' && c <= '9'
	case rWord:
		return isWord(c)
	case rSpace:
		return c == ' ' || c == '\t' || c == '\n'
	default:
		return a.class[c]
	}
}

// regexProg is a pattern decomposed once: the atom walk mirrors
// matchHere/atomAt exactly, including the "$ is an end-anchor only when it
// is the entire remaining pattern" rule and the quirks of atomAt's class
// scanning.
type regexProg struct {
	atoms     []regexAtom
	anchored  bool
	endAnchor bool
	origLen   int // length of the original pattern incl. "^": Ops cost
}

func compileRegex(pattern string) *regexProg {
	rp := &regexProg{origLen: len(pattern)}
	p := pattern
	if strings.HasPrefix(p, "^") {
		rp.anchored = true
		p = p[1:]
	}
	for len(p) > 0 {
		if p == "$" {
			rp.endAnchor = true
			break
		}
		a, alen := compileAtom(p)
		p = p[alen:]
		if strings.HasPrefix(p, "*") {
			a.quant = qStar
			p = p[1:]
		} else if strings.HasPrefix(p, "+") {
			a.quant = qPlus
			p = p[1:]
		}
		rp.atoms = append(rp.atoms, a)
	}
	return rp
}

// compileAtom is atomAt translated to a table: same dispatch, same class
// expansion (strict k+2 bound, '^' negation, unterminated '[' is a
// literal), with the byte-range loop widened to int so a range ending at
// 0xff cannot wrap.
func compileAtom(p string) (regexAtom, int) {
	switch {
	case p[0] == '[':
		end := strings.IndexByte(p, ']')
		if end < 0 {
			return regexAtom{kind: rLit, lit: p[0]}, 1
		}
		set := p[1:end]
		neg := false
		if strings.HasPrefix(set, "^") {
			neg = true
			set = set[1:]
		}
		allowed := map[byte]bool{}
		for k := 0; k < len(set); k++ {
			if k+2 < len(set) && set[k+1] == '-' {
				for c := int(set[k]); c <= int(set[k+2]); c++ {
					allowed[byte(c)] = true
				}
				k += 2
				continue
			}
			allowed[set[k]] = true
		}
		var tbl [256]bool
		for c := 0; c < 256; c++ {
			tbl[c] = allowed[byte(c)] != neg
		}
		return regexAtom{kind: rClass, class: &tbl}, end + 1
	case p[0] == '.':
		return regexAtom{kind: rAny}, 1
	case p[0] == '\\' && len(p) > 1:
		switch p[1] {
		case 'd':
			return regexAtom{kind: rDigit}, 2
		case 'w':
			return regexAtom{kind: rWord}, 2
		case 's':
			return regexAtom{kind: rSpace}, 2
		default:
			return regexAtom{kind: rLit, lit: p[1]}, 2
		}
	default:
		return regexAtom{kind: rLit, lit: p[0]}, 1
	}
}

// matchProfiled emits regexMatch's event stream: Ops over the original
// pattern length, one Branch(82) per 8 unanchored start offsets, Leave
// after the scan.
func (rp *regexProg) matchProfiled(s string, p *perf.Profiler) bool {
	if p == nil {
		return rp.matchAt(s)
	}
	p.Enter("regex_match")
	p.Ops(uint64(len(s) + rp.origLen))
	ok := false
	if rp.anchored {
		ok = rp.match(s, 0)
	} else {
		for start := 0; start <= len(s); start++ {
			if start%8 == 0 {
				p.Branch(82, true)
			}
			if rp.match(s[start:], 0) {
				ok = true
				break
			}
		}
	}
	p.Leave()
	return ok
}

func (rp *regexProg) matchAt(s string) bool {
	if rp.anchored {
		return rp.match(s, 0)
	}
	for start := 0; start <= len(s); start++ {
		if rp.match(s[start:], 0) {
			return true
		}
	}
	return false
}

// match is matchHere over the precompiled atoms: greedy star/plus with
// backtracking, literal tail check for the end anchor.
func (rp *regexProg) match(s string, k int) bool {
	for {
		if k == len(rp.atoms) {
			if rp.endAnchor {
				return s == ""
			}
			return true
		}
		a := &rp.atoms[k]
		switch a.quant {
		case qStar, qPlus:
			n := 0
			for n < len(s) && a.matches(s[n]) {
				n++
			}
			min := 0
			if a.quant == qPlus {
				min = 1
			}
			for ; n >= min; n-- {
				if rp.match(s[n:], k+1) {
					return true
				}
			}
			return false
		default:
			if len(s) > 0 && a.matches(s[0]) {
				s = s[1:]
				k++
				continue
			}
			return false
		}
	}
}
