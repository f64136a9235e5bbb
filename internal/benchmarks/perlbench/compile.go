package perlbench

import (
	"fmt"
	"strings"
)

// This file is the bytecode compiler: it turns a parsed []stmt into a flat
// program executed by the stack machine in bytecode.go. Each expression
// STRING is parsed exactly once, constant subtrees are folded,
// variable/hash/array names are interned to slot indices, and regex
// literals are precompiled to matcher structs.
//
// The compiler accepts every script Parse accepts. A statement or
// expression that cannot run compiles to code that raises its error when
// it executes, so a malformed expression in a never-taken branch never
// fails the run, and a taken one fails exactly where the language's eager
// left-to-right evaluation reaches the fault (see the expression parser
// below).
//
// The modeled profiler events are keyed to workload semantics (statement
// enters, hash probes, regex scans), not to how the interpreter is
// implemented. The tree-walking interpreter in oracle_test.go is the
// test-only differential oracle; the tests require the compiled program
// to reproduce its output, steps, errors and exact event stream.

// vop is a bytecode opcode.
type vop uint8

const (
	vHALT vop = iota

	// Statement frame ops.
	vSTMT    // steps++, limit check, Enter("pp_eval")
	vEND     // Ops(8), Leave
	vASSIGN  // scalars[a] = pop
	vPRINT   // out += pop.Str()
	vPUSHARR // arrays[a] = append(arrays[a], pop)
	vHASHSET // val=pop, key=pop: hash_ops events, hashes[a][key]=val

	// Control flow.
	vIFBR     // c=pop, Branch(80, c); if !c jump a
	vWHILEBR  // c=pop, Branch(81, c); if !c jump a
	vLOOPPUSH // push a zero iteration counter
	vLOOPPOP  // pop the iteration counter
	vITER     // runaway check, counter++, jump a (loop top)
	vJMP      // jump a
	vFORA     // push iterator over arrays[a]
	vFORK     // push iterator over sorted keys of hashes[a]
	vITERNEXT // next item -> scalars[a], or pop iterator and jump b

	// Expressions (stack ops; branch-free because Perl's && and || are
	// eager in this dialect).
	vCONST    // push consts[a]
	vSCALAR   // push scalars[a]
	vINTERP   // push interpolated string interps[a]
	vHASHGET  // key=pop: hash_ops events, push hashes[a][key]
	vEXISTS   // key=pop: push boolVal(key in hashes[a]); no events
	vMATCH    // s=pop: push boolVal(regexes[a].match(s))
	vNOTMATCH // s=pop: push boolVal(!regexes[a].match(s))
	vADD      // binary numeric/string ops: r=pop, l=pop, push l OP r
	vSUB
	vCONCAT
	vMUL
	vDIV
	vMOD
	vNUMEQ
	vNUMNE
	vNUMLE
	vNUMGE
	vNUMLT
	vNUMGT
	vSTREQ
	vSTRNE
	vSTRLT
	vSTRGT
	vOR  // eager Perl ||: first truthy operand, else the last
	vAND // eager Perl &&: last operand if first truthy, else the first
	vNOT
	vNEG
	vLENGTH // builtins: b = evaluated arg count, extras discarded
	vUC
	vLC
	vINTB
	vINDEXB
	vSUBSTRB
	vSCALARLEN // push len(arrays[a])
	vKEYSLEN   // push len(hashes[a])
	vERR       // raise errs[a]; b = operands evaluated before it (unread)
)

// instr is one bytecode instruction. a is a slot/index/jump target, b an
// argument count or secondary target.
type instr struct {
	op   vop
	a, b int32
}

// interpPart is one piece of an interpolated string: a literal chunk
// (slot < 0) or a scalar slot reference.
type interpPart struct {
	lit  string
	slot int32
}

// program is a compiled script.
type program struct {
	code    []instr
	consts  []Value
	interps [][]interpPart
	regexes []*regexProg
	errs    []error

	scalarNames []string
	arrayNames  []string
	hashNames   []string
	hashSeeds   []uint64 // fnv state after the hash name, see hashAddr

	inputSlot int // arrays slot bound to the workload corpus
	maxStack  int
}

// fragment is the compiled form of one expression string: branch-free
// stack code plus the stack depth it needs above its entry depth.
type fragment struct {
	ins      []instr
	maxDepth int
}

// compiler interns names and constants and assembles the program. All
// interning is first-encounter order over a deterministic source-order
// walk, so slot tables never depend on map iteration order.
type compiler struct {
	scalarSlots map[string]int
	scalarNames []string
	arraySlots  map[string]int
	arrayNames  []string
	hashSlots   map[string]int
	hashNames   []string

	consts   []Value
	constIdx map[string]int
	interps  [][]interpPart
	regexes  []*regexProg
	regexIdx map[string]int
	errs     []error
	errIdx   map[string]int

	// memo caches compiled fragments by expression source, so repeated
	// expression strings ("$i = $i + 1" across loop bodies) are parsed
	// and folded once.
	memo map[string]fragment

	code     []instr
	cur      int // stack depth at the current emission point
	maxStack int
}

// compileProgram compiles a parsed script.
func compileProgram(stmts []stmt) *program {
	c := &compiler{
		scalarSlots: map[string]int{},
		arraySlots:  map[string]int{},
		hashSlots:   map[string]int{},
		constIdx:    map[string]int{},
		regexIdx:    map[string]int{},
		errIdx:      map[string]int{},
		memo:        map[string]fragment{},
	}
	input := c.arraySlot("input") // always bound by Execute
	c.block(stmts)
	c.op(vHALT, 0, 0)
	seeds := make([]uint64, len(c.hashNames))
	for i, n := range c.hashNames {
		seeds[i] = fnvSeed(n)
	}
	return &program{
		code:        c.code,
		consts:      c.consts,
		interps:     c.interps,
		regexes:     c.regexes,
		errs:        c.errs,
		scalarNames: c.scalarNames,
		arrayNames:  c.arrayNames,
		hashNames:   c.hashNames,
		hashSeeds:   seeds,
		inputSlot:   input,
		maxStack:    c.maxStack + 1,
	}
}

func (c *compiler) scalarSlot(name string) int {
	if s, ok := c.scalarSlots[name]; ok {
		return s
	}
	s := len(c.scalarNames)
	c.scalarSlots[name] = s
	c.scalarNames = append(c.scalarNames, name)
	return s
}

func (c *compiler) arraySlot(name string) int {
	if s, ok := c.arraySlots[name]; ok {
		return s
	}
	s := len(c.arrayNames)
	c.arraySlots[name] = s
	c.arrayNames = append(c.arrayNames, name)
	return s
}

func (c *compiler) hashSlot(name string) int {
	if s, ok := c.hashSlots[name]; ok {
		return s
	}
	s := len(c.hashNames)
	c.hashSlots[name] = s
	c.hashNames = append(c.hashNames, name)
	return s
}

// constSlot interns a constant. Constants are deduplicated by string form
// — hasN is an invariant cache of numPrefix(s), so two Values with equal s
// are semantically identical — and stored with the numeric cache filled.
func (c *compiler) constSlot(v Value) int {
	if idx, ok := c.constIdx[v.s]; ok {
		return idx
	}
	idx := len(c.consts)
	c.constIdx[v.s] = idx
	c.consts = append(c.consts, Value{s: v.s, n: numPrefix(v.s), hasN: true})
	return idx
}

func (c *compiler) interpSlot(parts []interpPart) int {
	c.interps = append(c.interps, parts)
	return len(c.interps) - 1
}

func (c *compiler) regexSlot(pattern string) int {
	if idx, ok := c.regexIdx[pattern]; ok {
		return idx
	}
	idx := len(c.regexes)
	c.regexIdx[pattern] = idx
	c.regexes = append(c.regexes, compileRegex(pattern))
	return idx
}

func (c *compiler) errSlot(err error) int {
	if idx, ok := c.errIdx[err.Error()]; ok {
		return idx
	}
	idx := len(c.errs)
	c.errIdx[err.Error()] = idx
	c.errs = append(c.errs, err)
	return idx
}

// op appends one instruction and returns its index (for jump patching).
func (c *compiler) op(op vop, a, b int) int {
	c.code = append(c.code, instr{op: op, a: int32(a), b: int32(b)})
	return len(c.code) - 1
}

// splice appends a compiled expression fragment; every fragment nets
// exactly one pushed value.
func (c *compiler) splice(f fragment) {
	c.code = append(c.code, f.ins...)
	if d := c.cur + f.maxDepth; d > c.maxStack {
		c.maxStack = d
	}
	c.cur++
}

func (c *compiler) block(stmts []stmt) {
	for i := range stmts {
		c.stmtCompile(&stmts[i])
	}
}

// errStmt compiles a statement frame that raises err.
func (c *compiler) errStmt(err error) {
	c.op(vSTMT, 0, 0)
	c.op(vERR, c.errSlot(err), 0)
	c.op(vEND, 0, 0)
}

func (c *compiler) stmtCompile(st *stmt) {
	switch st.kind {
	case "assign":
		f := c.exprFrag(st.expr)
		c.op(vSTMT, 0, 0)
		c.splice(f)
		c.op(vASSIGN, c.scalarSlot(st.lhs), 0)
		c.cur--
		c.op(vEND, 0, 0)

	case "print":
		f := c.exprFrag(st.expr)
		c.op(vSTMT, 0, 0)
		c.splice(f)
		c.op(vPRINT, 0, 0)
		c.cur--
		c.op(vEND, 0, 0)

	case "pushArr":
		f := c.exprFrag(st.expr)
		c.op(vSTMT, 0, 0)
		c.splice(f)
		c.op(vPUSHARR, c.arraySlot(st.lhs), 0)
		c.cur--
		c.op(vEND, 0, 0)

	case "hashSet":
		// The lvalue splits at the first '{' and the last '}'.
		open := strings.IndexByte(st.lhs, '{')
		closeB := strings.LastIndexByte(st.lhs, '}')
		if open < 0 || closeB < open {
			c.errStmt(fmt.Errorf("%w: bad hash lvalue %q", ErrScript, st.lhs))
			return
		}
		name := st.lhs[1:open]
		kf := c.exprFrag(st.lhs[open+1 : closeB])
		vf := c.exprFrag(st.expr)
		c.op(vSTMT, 0, 0)
		c.splice(kf)
		c.splice(vf)
		c.op(vHASHSET, c.hashSlot(name), 0)
		c.cur -= 2
		c.op(vEND, 0, 0)

	case "if":
		f := c.exprFrag(st.cond)
		c.op(vSTMT, 0, 0)
		c.splice(f)
		br := c.op(vIFBR, 0, 0)
		c.cur--
		c.block(st.body)
		jmp := c.op(vJMP, 0, 0)
		c.code[br].a = int32(len(c.code))
		c.block(st.else_)
		c.code[jmp].a = int32(len(c.code))
		c.op(vEND, 0, 0)

	case "while":
		f := c.exprFrag(st.cond)
		c.op(vSTMT, 0, 0)
		c.op(vLOOPPUSH, 0, 0)
		top := len(c.code)
		c.splice(f)
		br := c.op(vWHILEBR, 0, 0)
		c.cur--
		c.block(st.body)
		c.op(vITER, top, 0)
		c.code[br].a = int32(len(c.code))
		c.op(vLOOPPOP, 0, 0)
		c.op(vEND, 0, 0)

	case "foreach":
		varSlot := c.scalarSlot(st.k1)
		c.op(vSTMT, 0, 0)
		if rest, ok := strings.CutPrefix(st.k2, "keys %"); ok {
			c.op(vFORK, c.hashSlot(rest), 0)
		} else if rest, ok := strings.CutPrefix(st.k2, "@"); ok {
			c.op(vFORA, c.arraySlot(rest), 0)
		} else {
			c.op(vERR, c.errSlot(fmt.Errorf("%w: bad foreach source %q", ErrScript, st.k2)), 0)
			c.op(vEND, 0, 0)
			return
		}
		next := c.op(vITERNEXT, varSlot, 0)
		c.block(st.body)
		c.op(vJMP, next, 0)
		c.code[next].b = int32(len(c.code))
		c.op(vEND, 0, 0)

	default:
		c.errStmt(fmt.Errorf("%w: unknown statement %q", ErrScript, st.kind))
	}
}

// exprFrag compiles (and memoizes) one expression string.
func (c *compiler) exprFrag(src string) fragment {
	if f, ok := c.memo[src]; ok {
		return f
	}
	n := foldNode((&exprCompiler{in: src, c: c}).full())
	em := &emitter{}
	c.emitNode(em, n)
	f := fragment{ins: em.ins, maxDepth: em.max}
	c.memo[src] = f
	return f
}

// emitter builds one fragment, tracking the stack depth it needs.
type emitter struct {
	ins      []instr
	cur, max int
}

func (em *emitter) op(op vop, a, b, delta int) {
	em.ins = append(em.ins, instr{op: op, a: int32(a), b: int32(b)})
	em.cur += delta
	if em.cur > em.max {
		em.max = em.cur
	}
}

func (c *compiler) emitNode(em *emitter, n *enode) {
	switch n.kind {
	case econst:
		em.op(vCONST, c.constSlot(n.val), 0, 1)
	case escalar:
		em.op(vSCALAR, n.slot, 0, 1)
	case einterp:
		em.op(vINTERP, c.interpSlot(n.parts), 0, 1)
	case ehashget:
		c.emitNode(em, n.kids[0])
		em.op(vHASHGET, n.slot, 0, 0)
	case eexists:
		c.emitNode(em, n.kids[0])
		em.op(vEXISTS, n.slot, 0, 0)
	case ematch:
		c.emitNode(em, n.kids[0])
		em.op(n.op, n.re, 0, 0)
	case ebin:
		c.emitNode(em, n.kids[0])
		c.emitNode(em, n.kids[1])
		em.op(n.op, 0, 0, -1)
	case eunary:
		c.emitNode(em, n.kids[0])
		em.op(n.op, 0, 0, 0)
	case ebuiltin:
		for _, k := range n.kids {
			c.emitNode(em, k)
		}
		em.op(n.op, 0, len(n.kids), 1-len(n.kids))
	case escalarlen:
		em.op(vSCALARLEN, n.slot, 0, 1)
	case ekeyslen:
		em.op(vKEYSLEN, n.slot, 0, 1)
	case eerr:
		for _, k := range n.kids {
			c.emitNode(em, k)
		}
		em.op(vERR, n.errIdx, len(n.kids), 1-len(n.kids))
	}
}

// ---------------------------------------------------------------------------
// Expression AST

type ekind uint8

const (
	econst ekind = iota
	escalar
	einterp
	ehashget
	eexists
	ematch
	ebin
	eunary // vNOT / vNEG
	ebuiltin
	escalarlen
	ekeyslen
	eerr // raise errIdx after evaluating kids: a parse fault or arity error
)

type enode struct {
	kind   ekind
	val    Value // econst
	slot   int   // escalar/ehashget/eexists/escalarlen/ekeyslen
	op     vop   // ebin/eunary/ebuiltin/ematch opcode
	re     int   // ematch: regex index
	errIdx int   // eerr
	parts  []interpPart
	kids   []*enode
}

func cnode(v Value) *enode { return &enode{kind: econst, val: v} }

// foldNode constant-folds bottom-up, blua-style: a node folds only when
// every operand is constant, never across non-constant subtrees, and never
// when the operation emits profiler events (hash probes, regex scans) or
// can raise a value-dependent runtime error (division/modulo by a zero
// denominator stays a runtime op so the error surfaces exactly as the
// language raises it).
func foldNode(n *enode) *enode {
	for i, k := range n.kids {
		n.kids[i] = foldNode(k)
	}
	switch n.kind {
	case ebin:
		l, r := n.kids[0], n.kids[1]
		if l.kind != econst || r.kind != econst {
			return n
		}
		lv, rv := l.val, r.val
		switch n.op {
		case vADD:
			return cnode(NumValue(lv.Num() + rv.Num()))
		case vSUB:
			return cnode(NumValue(lv.Num() - rv.Num()))
		case vCONCAT:
			return cnode(StrValue(lv.Str() + rv.Str()))
		case vMUL:
			return cnode(NumValue(lv.Num() * rv.Num()))
		case vDIV:
			if rv.Num() == 0 {
				return n
			}
			return cnode(NumValue(lv.Num() / rv.Num()))
		case vMOD:
			if int64(rv.Num()) == 0 {
				return n
			}
			return cnode(NumValue(float64(int64(lv.Num()) % int64(rv.Num()))))
		case vNUMEQ:
			return cnode(boolVal(lv.Num() == rv.Num()))
		case vNUMNE:
			return cnode(boolVal(lv.Num() != rv.Num()))
		case vNUMLE:
			return cnode(boolVal(lv.Num() <= rv.Num()))
		case vNUMGE:
			return cnode(boolVal(lv.Num() >= rv.Num()))
		case vNUMLT:
			return cnode(boolVal(lv.Num() < rv.Num()))
		case vNUMGT:
			return cnode(boolVal(lv.Num() > rv.Num()))
		case vSTREQ:
			return cnode(boolVal(lv.Str() == rv.Str()))
		case vSTRNE:
			return cnode(boolVal(lv.Str() != rv.Str()))
		case vSTRLT:
			return cnode(boolVal(lv.Str() < rv.Str()))
		case vSTRGT:
			return cnode(boolVal(lv.Str() > rv.Str()))
		case vOR:
			if lv.Truthy() {
				return l
			}
			return r
		case vAND:
			if lv.Truthy() {
				return r
			}
			return l
		}
	case eunary:
		k := n.kids[0]
		if k.kind != econst {
			return n
		}
		if n.op == vNOT {
			return cnode(boolVal(!k.val.Truthy()))
		}
		return cnode(NumValue(-k.val.Num()))
	case ebuiltin:
		for _, k := range n.kids {
			if k.kind != econst {
				return n
			}
		}
		args := n.kids
		switch n.op {
		case vLENGTH:
			return cnode(NumValue(float64(len(args[0].val.Str()))))
		case vUC:
			return cnode(StrValue(strings.ToUpper(args[0].val.Str())))
		case vLC:
			return cnode(StrValue(strings.ToLower(args[0].val.Str())))
		case vINTB:
			return cnode(NumValue(float64(int64(args[0].val.Num()))))
		case vINDEXB:
			return cnode(NumValue(float64(strings.Index(args[0].val.Str(), args[1].val.Str()))))
		case vSUBSTRB:
			return cnode(StrValue(substrClamp(args[0].val.Str(), int(args[1].val.Num()), int(args[2].val.Num()))))
		}
	}
	return n
}

// substrClamp is substr's clamping, shared by the folder and the VM;
// an offset clamps into the string and a length into what remains.
func substrClamp(s string, off, n int) string {
	if off < 0 {
		off = 0
	}
	if off > len(s) {
		off = len(s)
	}
	if off+n > len(s) {
		n = len(s) - off
	}
	if n < 0 {
		n = 0
	}
	return s[off : off+n]
}

// ---------------------------------------------------------------------------
// Expression parser: builds an AST in one pass. Token acceptance
// (whitespace, word boundaries, case order) follows the grammar of the
// tree-walking oracle's exprParser exactly; the differential fuzz target
// pins the equivalence.
//
// The parser rejects nothing. The language evaluates eagerly, left to
// right, as it parses, so a malformed expression still evaluates every
// sub-expression completed before the fault, then fails. The parse
// therefore stops at the first fault and returns an eerr node whose kids
// are exactly those completed sub-expressions, in parse order: fault
// builds the node where the error arises, and each enclosing level
// prepends the operands it had already completed (unwind). The same node
// carries builtin arity errors, which fail after their arguments.

type exprCompiler struct {
	in  string
	pos int
	c   *compiler
}

// fault ends the parse with err, raised after evaluating done.
func (e *exprCompiler) fault(err error, done ...*enode) *enode {
	return &enode{kind: eerr, errIdx: e.c.errSlot(err), kids: done}
}

// unwind carries the fault f out of a sub-parse, prefixing the operands
// the enclosing level had already completed.
func unwind(f *enode, done ...*enode) *enode {
	f.kids = append(done, f.kids...)
	return f
}

func (e *exprCompiler) full() *enode {
	n := e.parseOr()
	if n.kind == eerr {
		return n
	}
	e.skipSpace()
	if e.pos != len(e.in) {
		return e.fault(fmt.Errorf("%w: trailing %q in expression %q", ErrScript, e.in[e.pos:], e.in), n)
	}
	return n
}

func (e *exprCompiler) skipSpace() {
	for e.pos < len(e.in) && (e.in[e.pos] == ' ' || e.in[e.pos] == '\t') {
		e.pos++
	}
}

func (e *exprCompiler) peek(s string) bool {
	e.skipSpace()
	return strings.HasPrefix(e.in[e.pos:], s)
}

func (e *exprCompiler) accept(s string) bool {
	if e.peek(s) {
		e.pos += len(s)
		return true
	}
	return false
}

func (e *exprCompiler) acceptWord(s string) bool {
	e.skipSpace()
	if !strings.HasPrefix(e.in[e.pos:], s) {
		return false
	}
	end := e.pos + len(s)
	if end < len(e.in) && isWord(e.in[end]) {
		return false
	}
	e.pos = end
	return true
}

// word consumes a run of name characters.
func (e *exprCompiler) word() string {
	start := e.pos
	for e.pos < len(e.in) && isWord(e.in[e.pos]) {
		e.pos++
	}
	return e.in[start:e.pos]
}

// binary parses the right operand of op and applies op to the completed
// left operand l.
func (e *exprCompiler) binary(l *enode, op vop, operand func() *enode) *enode {
	r := operand()
	if r.kind == eerr {
		return unwind(r, l)
	}
	return &enode{kind: ebin, op: op, kids: []*enode{l, r}}
}

func (e *exprCompiler) parseOr() *enode {
	v := e.parseAnd()
	for v.kind != eerr && e.accept("||") {
		v = e.binary(v, vOR, e.parseAnd)
	}
	return v
}

func (e *exprCompiler) parseAnd() *enode {
	v := e.parseCmp()
	for v.kind != eerr && e.accept("&&") {
		v = e.binary(v, vAND, e.parseCmp)
	}
	return v
}

func (e *exprCompiler) parseCmp() *enode {
	v := e.parseAdd()
	for v.kind != eerr {
		switch {
		case e.accept("=="):
			v = e.binary(v, vNUMEQ, e.parseAdd)
		case e.accept("!="):
			v = e.binary(v, vNUMNE, e.parseAdd)
		case e.accept("<="):
			v = e.binary(v, vNUMLE, e.parseAdd)
		case e.accept(">="):
			v = e.binary(v, vNUMGE, e.parseAdd)
		case e.accept("=~"):
			v = e.match(v, vMATCH)
		case e.accept("!~"):
			v = e.match(v, vNOTMATCH)
		case e.accept("<"):
			v = e.binary(v, vNUMLT, e.parseAdd)
		case e.accept(">"):
			v = e.binary(v, vNUMGT, e.parseAdd)
		case e.acceptWord("eq"):
			v = e.binary(v, vSTREQ, e.parseAdd)
		case e.acceptWord("ne"):
			v = e.binary(v, vSTRNE, e.parseAdd)
		case e.acceptWord("lt"):
			v = e.binary(v, vSTRLT, e.parseAdd)
		case e.acceptWord("gt"):
			v = e.binary(v, vSTRGT, e.parseAdd)
		default:
			return v
		}
	}
	return v
}

// match parses a /regex/ literal and matches the completed subject s
// against it.
func (e *exprCompiler) match(s *enode, op vop) *enode {
	e.skipSpace()
	if e.pos >= len(e.in) || e.in[e.pos] != '/' {
		return e.fault(fmt.Errorf("%w: expected /regex/", ErrScript), s)
	}
	end := strings.IndexByte(e.in[e.pos+1:], '/')
	if end < 0 {
		return e.fault(fmt.Errorf("%w: unterminated regex", ErrScript), s)
	}
	re := e.in[e.pos+1 : e.pos+1+end]
	e.pos += end + 2
	return &enode{kind: ematch, op: op, re: e.c.regexSlot(re), kids: []*enode{s}}
}

func (e *exprCompiler) parseAdd() *enode {
	v := e.parseMul()
	for v.kind != eerr {
		switch {
		case e.accept("+"):
			v = e.binary(v, vADD, e.parseMul)
		case e.peek("-") && !e.peek("->"):
			e.pos++
			v = e.binary(v, vSUB, e.parseMul)
		case e.accept("."):
			v = e.binary(v, vCONCAT, e.parseMul)
		default:
			return v
		}
	}
	return v
}

func (e *exprCompiler) parseMul() *enode {
	v := e.parseUnary()
	for v.kind != eerr {
		switch {
		case e.accept("*"):
			v = e.binary(v, vMUL, e.parseUnary)
		case e.accept("/"):
			v = e.binary(v, vDIV, e.parseUnary)
		case e.accept("%"):
			v = e.binary(v, vMOD, e.parseUnary)
		default:
			return v
		}
	}
	return v
}

func (e *exprCompiler) parseUnary() *enode {
	var op vop
	switch {
	case e.accept("!"):
		op = vNOT
	case e.accept("-"):
		op = vNEG
	default:
		return e.parsePrimary()
	}
	v := e.parseUnary()
	if v.kind == eerr {
		return v
	}
	return &enode{kind: eunary, op: op, kids: []*enode{v}}
}

func (e *exprCompiler) parsePrimary() *enode {
	e.skipSpace()
	if e.pos >= len(e.in) {
		return e.fault(fmt.Errorf("%w: unexpected end of expression %q", ErrScript, e.in))
	}
	c := e.in[e.pos]
	switch {
	case c == '(':
		e.pos++
		v := e.parseOr()
		if v.kind != eerr && !e.accept(")") {
			return e.fault(fmt.Errorf("%w: missing ')' in %q", ErrScript, e.in), v)
		}
		return v
	case c == '"':
		return e.parseString()
	case c >= '0' && c <= '9':
		start := e.pos
		for e.pos < len(e.in) && (e.in[e.pos] >= '0' && e.in[e.pos] <= '9' || e.in[e.pos] == '.') {
			e.pos++
		}
		return cnode(StrValue(e.in[start:e.pos]))
	case c == '$':
		return e.parseDollar()
	default:
		for _, fn := range []string{"length", "substr", "uc", "lc", "index", "scalar", "exists", "keys", "int"} {
			if e.acceptWord(fn) {
				return e.parseBuiltin(fn)
			}
		}
		return e.fault(fmt.Errorf("%w: unexpected %q in expression %q", ErrScript, c, e.in))
	}
}

// parseString reads a double-quoted literal with \n, \t, \\ and \" escapes
// and $name interpolation, splitting it into chunks and scalar-slot
// references resolved at execution time.
func (e *exprCompiler) parseString() *enode {
	e.pos++ // opening quote
	var parts []interpPart
	var sb strings.Builder
	flush := func() {
		if sb.Len() > 0 {
			parts = append(parts, interpPart{lit: sb.String(), slot: -1})
			sb.Reset()
		}
	}
	for e.pos < len(e.in) {
		c := e.in[e.pos]
		switch c {
		case '"':
			e.pos++
			flush()
			for _, p := range parts {
				if p.slot >= 0 {
					return &enode{kind: einterp, parts: parts}
				}
			}
			var all strings.Builder
			for _, p := range parts {
				all.WriteString(p.lit)
			}
			return cnode(StrValue(all.String()))
		case '\\':
			e.pos++
			if e.pos >= len(e.in) {
				return e.fault(fmt.Errorf("%w: dangling escape", ErrScript))
			}
			switch e.in[e.pos] {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			default:
				sb.WriteByte(e.in[e.pos])
			}
			e.pos++
		case '$':
			e.pos++
			name := e.word()
			if name == "" {
				sb.WriteByte('$')
				continue
			}
			flush()
			parts = append(parts, interpPart{slot: int32(e.c.scalarSlot(name))})
		default:
			sb.WriteByte(c)
			e.pos++
		}
	}
	return e.fault(fmt.Errorf("%w: unterminated string", ErrScript))
}

// parseDollar reads $name or $hash{expr}.
func (e *exprCompiler) parseDollar() *enode {
	e.pos++ // '$'
	name := e.word()
	if name == "" {
		return e.fault(fmt.Errorf("%w: bare '$'", ErrScript))
	}
	if e.pos >= len(e.in) || e.in[e.pos] != '{' {
		return &enode{kind: escalar, slot: e.c.scalarSlot(name)}
	}
	keySrc, ok := e.braced()
	if !ok {
		return e.fault(fmt.Errorf("%w: unbalanced hash braces", ErrScript))
	}
	key := (&exprCompiler{in: keySrc, c: e.c}).full()
	if key.kind == eerr {
		return key
	}
	return &enode{kind: ehashget, slot: e.c.hashSlot(name), kids: []*enode{key}}
}

// braced consumes the {...} group opening at e.pos and returns its inner
// text; ok is false (and nothing is consumed) when the braces never
// balance.
func (e *exprCompiler) braced() (inner string, ok bool) {
	depth := 0
	for j := e.pos; j < len(e.in); j++ {
		switch e.in[j] {
		case '{':
			depth++
		case '}':
			depth--
			if depth == 0 {
				inner = e.in[e.pos+1 : j]
				e.pos = j + 1
				return inner, true
			}
		}
	}
	return "", false
}

func (e *exprCompiler) parseBuiltin(fn string) *enode {
	if !e.accept("(") {
		return e.fault(fmt.Errorf("%w: %s requires parentheses", ErrScript, fn))
	}
	// scalar(@a), keys(%h) and exists($h{k}) have special argument forms.
	switch fn {
	case "scalar", "keys":
		e.skipSpace()
		sigil := byte('@')
		if fn == "keys" {
			sigil = '%'
		}
		if e.pos >= len(e.in) || e.in[e.pos] != sigil {
			return e.fault(fmt.Errorf("%w: %s expects %c-name", ErrScript, fn, sigil))
		}
		e.pos++
		name := e.word()
		if !e.accept(")") {
			return e.fault(fmt.Errorf("%w: missing ')'", ErrScript))
		}
		if fn == "scalar" {
			return &enode{kind: escalarlen, slot: e.c.arraySlot(name)}
		}
		return &enode{kind: ekeyslen, slot: e.c.hashSlot(name)}
	case "exists":
		e.skipSpace()
		if e.pos >= len(e.in) || e.in[e.pos] != '$' {
			return e.fault(fmt.Errorf("%w: exists expects $hash{key}", ErrScript))
		}
		e.pos++
		name := e.word()
		if e.pos >= len(e.in) || e.in[e.pos] != '{' {
			return e.fault(fmt.Errorf("%w: exists expects $hash{key}", ErrScript))
		}
		keySrc, ok := e.braced()
		if !ok {
			return e.fault(fmt.Errorf("%w: unbalanced hash braces", ErrScript))
		}
		if !e.accept(")") {
			return e.fault(fmt.Errorf("%w: missing ')'", ErrScript))
		}
		key := (&exprCompiler{in: keySrc, c: e.c}).full()
		if key.kind == eerr {
			return key
		}
		return &enode{kind: eexists, slot: e.c.hashSlot(name), kids: []*enode{key}}
	}
	// Generic comma-separated value arguments.
	var args []*enode
	for {
		v := e.parseOr()
		if v.kind == eerr {
			return unwind(v, args...)
		}
		args = append(args, v)
		if !e.accept(",") {
			break
		}
	}
	if !e.accept(")") {
		return e.fault(fmt.Errorf("%w: missing ')' after %s", ErrScript, fn), args...)
	}
	// Arity failures are raised AFTER the args are evaluated.
	switch fn {
	case "length":
		return &enode{kind: ebuiltin, op: vLENGTH, kids: args}
	case "uc":
		return &enode{kind: ebuiltin, op: vUC, kids: args}
	case "lc":
		return &enode{kind: ebuiltin, op: vLC, kids: args}
	case "int":
		return &enode{kind: ebuiltin, op: vINTB, kids: args}
	case "index":
		if len(args) < 2 {
			return e.fault(fmt.Errorf("%w: index needs 2 args", ErrScript), args...)
		}
		return &enode{kind: ebuiltin, op: vINDEXB, kids: args}
	case "substr":
		if len(args) < 3 {
			return e.fault(fmt.Errorf("%w: substr needs 3 args", ErrScript), args...)
		}
		return &enode{kind: ebuiltin, op: vSUBSTRB, kids: args}
	default:
		return e.fault(fmt.Errorf("%w: unknown builtin %s", ErrScript, fn), args...)
	}
}
