package perlbench

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/perf"
)

// This file is the tree-walking interpreter, kept as the test-only
// differential oracle for the bytecode compiler and VM: it re-parses each
// expression string every time it is evaluated and evaluates eagerly, left
// to right, as it parses. The compiled engine must reproduce its output,
// step count, error text and exact profiler event stream.

// Interp runs one script.
type Interp struct {
	scalars map[string]Value
	arrays  map[string][]Value
	hashes  map[string]map[string]Value
	out     strings.Builder
	p       *perf.Profiler
	steps   uint64
	limit   uint64
}

// NewInterp returns a fresh interpreter under the VM's run contract: the
// same footprints and the same step limit.
func NewInterp(p *perf.Profiler) *Interp {
	declareFootprints(p)
	return &Interp{
		scalars: map[string]Value{},
		arrays:  map[string][]Value{},
		hashes:  map[string]map[string]Value{},
		p:       p,
		limit:   interpStepLimit,
	}
}

// Output returns everything printed by the script.
func (i *Interp) Output() string { return i.out.String() }

// Steps returns the statement count executed.
func (i *Interp) Steps() uint64 { return i.steps }

// Run executes a parsed script.
func (i *Interp) Run(prog []stmt) error {
	return i.exec(prog)
}

func (i *Interp) exec(prog []stmt) error {
	for _, st := range prog {
		i.steps++
		if i.steps > i.limit {
			return fmt.Errorf("%w: step limit exceeded", ErrScript)
		}
		if i.p != nil {
			i.p.Enter("pp_eval")
		}
		err := i.execOne(st)
		if i.p != nil {
			i.p.Ops(8)
			i.p.Leave()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (i *Interp) execOne(st stmt) error {
	switch st.kind {
	case "assign":
		v, err := i.eval(st.expr)
		if err != nil {
			return err
		}
		i.scalars[st.lhs] = v
	case "hashSet":
		// $h{key} = expr
		open := strings.IndexByte(st.lhs, '{')
		closeB := strings.LastIndexByte(st.lhs, '}')
		if open < 0 || closeB < open {
			return fmt.Errorf("%w: bad hash lvalue %q", ErrScript, st.lhs)
		}
		name := st.lhs[1:open]
		key, err := i.eval(st.lhs[open+1 : closeB])
		if err != nil {
			return err
		}
		val, err := i.eval(st.expr)
		if err != nil {
			return err
		}
		if i.hashes[name] == nil {
			i.hashes[name] = map[string]Value{}
		}
		if i.p != nil {
			i.p.Enter("hash_ops")
			i.p.Ops(6)
			i.p.Store(0x90_0000_0000 + hashAddr(name, key.Str()))
			i.p.Leave()
		}
		i.hashes[name][key.Str()] = val
	case "pushArr":
		v, err := i.eval(st.expr)
		if err != nil {
			return err
		}
		i.arrays[st.lhs] = append(i.arrays[st.lhs], v)
	case "print":
		v, err := i.eval(st.expr)
		if err != nil {
			return err
		}
		i.out.WriteString(v.Str())
	case "if":
		c, err := i.eval(st.cond)
		if err != nil {
			return err
		}
		if i.p != nil {
			i.p.Branch(80, c.Truthy())
		}
		if c.Truthy() {
			return i.exec(st.body)
		}
		return i.exec(st.else_)
	case "while":
		for iter := 0; ; iter++ {
			c, err := i.eval(st.cond)
			if err != nil {
				return err
			}
			if i.p != nil {
				i.p.Branch(81, c.Truthy())
			}
			if !c.Truthy() {
				return nil
			}
			if err := i.exec(st.body); err != nil {
				return err
			}
			if uint64(iter) > i.limit {
				return fmt.Errorf("%w: runaway while", ErrScript)
			}
		}
	case "foreach":
		src := st.k2
		var items []Value
		if rest, ok := strings.CutPrefix(src, "keys %"); ok {
			h := i.hashes[rest]
			keys := make([]string, 0, len(h))
			for k := range h {
				keys = append(keys, k)
			}
			sort.Strings(keys) // deterministic iteration
			for _, k := range keys {
				items = append(items, StrValue(k))
			}
		} else if rest, ok := strings.CutPrefix(src, "@"); ok {
			items = i.arrays[rest]
		} else {
			return fmt.Errorf("%w: bad foreach source %q", ErrScript, src)
		}
		for _, it := range items {
			i.scalars[st.k1] = it
			if err := i.exec(st.body); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("%w: unknown statement %q", ErrScript, st.kind)
	}
	return nil
}

func hashAddr(name, key string) uint64 {
	return hashAddrSeeded(fnvSeed(name), key)
}

// eval evaluates an expression string. The grammar (precedence low→high):
//
//	or:      ||
//	and:     &&
//	cmp:     == != < > <= >= eq ne lt gt  and  =~ /re/  !~ /re/
//	add:     + - .
//	mul:     * / %
//	unary:   - !
//	primary: number, "string", $var, $hash{expr}, scalar(@a), builtins, ( )
func (i *Interp) eval(src string) (Value, error) {
	e := &exprParser{in: src, i: i}
	v, err := e.parseOr()
	if err != nil {
		return Value{}, err
	}
	e.skipSpace()
	if e.pos != len(e.in) {
		return Value{}, fmt.Errorf("%w: trailing %q in expression %q", ErrScript, e.in[e.pos:], src)
	}
	return v, nil
}

type exprParser struct {
	in  string
	pos int
	i   *Interp
}

func (e *exprParser) skipSpace() {
	for e.pos < len(e.in) && (e.in[e.pos] == ' ' || e.in[e.pos] == '\t') {
		e.pos++
	}
}

func (e *exprParser) peek(s string) bool {
	e.skipSpace()
	return strings.HasPrefix(e.in[e.pos:], s)
}

func (e *exprParser) accept(s string) bool {
	if e.peek(s) {
		e.pos += len(s)
		return true
	}
	return false
}

// acceptWord matches a keyword operator at a word boundary.
func (e *exprParser) acceptWord(s string) bool {
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

func (e *exprParser) parseOr() (Value, error) {
	v, err := e.parseAnd()
	if err != nil {
		return v, err
	}
	for e.accept("||") {
		r, err := e.parseAnd()
		if err != nil {
			return v, err
		}
		if v.Truthy() {
			// keep v (Perl returns the first truthy operand)
		} else {
			v = r
		}
	}
	return v, nil
}

func (e *exprParser) parseAnd() (Value, error) {
	v, err := e.parseCmp()
	if err != nil {
		return v, err
	}
	for e.accept("&&") {
		r, err := e.parseCmp()
		if err != nil {
			return v, err
		}
		if v.Truthy() {
			v = r
		}
	}
	return v, nil
}

func (e *exprParser) parseCmp() (Value, error) {
	v, err := e.parseAdd()
	if err != nil {
		return v, err
	}
	for {
		switch {
		case e.accept("=="):
			r, err := e.parseAdd()
			if err != nil {
				return v, err
			}
			v = boolVal(v.Num() == r.Num())
		case e.accept("!="):
			r, err := e.parseAdd()
			if err != nil {
				return v, err
			}
			v = boolVal(v.Num() != r.Num())
		case e.accept("<="):
			r, err := e.parseAdd()
			if err != nil {
				return v, err
			}
			v = boolVal(v.Num() <= r.Num())
		case e.accept(">="):
			r, err := e.parseAdd()
			if err != nil {
				return v, err
			}
			v = boolVal(v.Num() >= r.Num())
		case e.accept("=~"):
			re, err := e.parseRegexLiteral()
			if err != nil {
				return v, err
			}
			v = boolVal(e.i.regexMatch(v.Str(), re))
		case e.accept("!~"):
			re, err := e.parseRegexLiteral()
			if err != nil {
				return v, err
			}
			v = boolVal(!e.i.regexMatch(v.Str(), re))
		case e.accept("<"):
			r, err := e.parseAdd()
			if err != nil {
				return v, err
			}
			v = boolVal(v.Num() < r.Num())
		case e.accept(">"):
			r, err := e.parseAdd()
			if err != nil {
				return v, err
			}
			v = boolVal(v.Num() > r.Num())
		case e.acceptWord("eq"):
			r, err := e.parseAdd()
			if err != nil {
				return v, err
			}
			v = boolVal(v.Str() == r.Str())
		case e.acceptWord("ne"):
			r, err := e.parseAdd()
			if err != nil {
				return v, err
			}
			v = boolVal(v.Str() != r.Str())
		case e.acceptWord("lt"):
			r, err := e.parseAdd()
			if err != nil {
				return v, err
			}
			v = boolVal(v.Str() < r.Str())
		case e.acceptWord("gt"):
			r, err := e.parseAdd()
			if err != nil {
				return v, err
			}
			v = boolVal(v.Str() > r.Str())
		default:
			return v, nil
		}
	}
}

func (e *exprParser) parseAdd() (Value, error) {
	v, err := e.parseMul()
	if err != nil {
		return v, err
	}
	for {
		switch {
		case e.accept("+"):
			r, err := e.parseMul()
			if err != nil {
				return v, err
			}
			v = NumValue(v.Num() + r.Num())
		case e.peek("-") && !e.peek("->"):
			e.pos++
			r, err := e.parseMul()
			if err != nil {
				return v, err
			}
			v = NumValue(v.Num() - r.Num())
		case e.accept("."):
			r, err := e.parseMul()
			if err != nil {
				return v, err
			}
			v = StrValue(v.Str() + r.Str())
		default:
			return v, nil
		}
	}
}

func (e *exprParser) parseMul() (Value, error) {
	v, err := e.parseUnary()
	if err != nil {
		return v, err
	}
	for {
		switch {
		case e.accept("*"):
			r, err := e.parseUnary()
			if err != nil {
				return v, err
			}
			v = NumValue(v.Num() * r.Num())
		case e.accept("/"):
			r, err := e.parseUnary()
			if err != nil {
				return v, err
			}
			if r.Num() == 0 {
				return v, fmt.Errorf("%w: division by zero", ErrScript)
			}
			v = NumValue(v.Num() / r.Num())
		case e.accept("%"):
			r, err := e.parseUnary()
			if err != nil {
				return v, err
			}
			if int64(r.Num()) == 0 {
				return v, fmt.Errorf("%w: modulo by zero", ErrScript)
			}
			v = NumValue(float64(int64(v.Num()) % int64(r.Num())))
		default:
			return v, nil
		}
	}
}

func (e *exprParser) parseUnary() (Value, error) {
	switch {
	case e.accept("!"):
		v, err := e.parseUnary()
		if err != nil {
			return v, err
		}
		return boolVal(!v.Truthy()), nil
	case e.accept("-"):
		v, err := e.parseUnary()
		if err != nil {
			return v, err
		}
		return NumValue(-v.Num()), nil
	default:
		return e.parsePrimary()
	}
}

func (e *exprParser) parsePrimary() (Value, error) {
	e.skipSpace()
	if e.pos >= len(e.in) {
		return Value{}, fmt.Errorf("%w: unexpected end of expression %q", ErrScript, e.in)
	}
	c := e.in[e.pos]
	switch {
	case c == '(':
		e.pos++
		v, err := e.parseOr()
		if err != nil {
			return v, err
		}
		if !e.accept(")") {
			return v, fmt.Errorf("%w: missing ')' in %q", ErrScript, e.in)
		}
		return v, nil
	case c == '"':
		return e.parseString()
	case c >= '0' && c <= '9':
		start := e.pos
		for e.pos < len(e.in) && (e.in[e.pos] >= '0' && e.in[e.pos] <= '9' || e.in[e.pos] == '.') {
			e.pos++
		}
		return StrValue(e.in[start:e.pos]), nil
	case c == '$':
		return e.parseDollar()
	default:
		// Builtin function call?
		for _, fn := range []string{"length", "substr", "uc", "lc", "index", "scalar", "exists", "keys", "int"} {
			if e.acceptWord(fn) {
				return e.parseBuiltin(fn)
			}
		}
		return Value{}, fmt.Errorf("%w: unexpected %q in expression %q", ErrScript, c, e.in)
	}
}

// parseString reads a double-quoted literal with \n, \t, \\ and \" escapes
// and $name interpolation.
func (e *exprParser) parseString() (Value, error) {
	e.pos++ // opening quote
	var sb strings.Builder
	for e.pos < len(e.in) {
		c := e.in[e.pos]
		switch c {
		case '"':
			e.pos++
			return StrValue(sb.String()), nil
		case '\\':
			e.pos++
			if e.pos >= len(e.in) {
				return Value{}, fmt.Errorf("%w: dangling escape", ErrScript)
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
			// Interpolate $name.
			j := e.pos + 1
			for j < len(e.in) && isWord(e.in[j]) {
				j++
			}
			name := e.in[e.pos+1 : j]
			if name == "" {
				sb.WriteByte('$')
				e.pos++
				continue
			}
			sb.WriteString(e.i.scalars[name].Str())
			e.pos = j
		default:
			sb.WriteByte(c)
			e.pos++
		}
	}
	return Value{}, fmt.Errorf("%w: unterminated string", ErrScript)
}

// parseDollar reads $name or $hash{expr}.
func (e *exprParser) parseDollar() (Value, error) {
	e.pos++ // '$'
	start := e.pos
	for e.pos < len(e.in) && isWord(e.in[e.pos]) {
		e.pos++
	}
	name := e.in[start:e.pos]
	if name == "" {
		return Value{}, fmt.Errorf("%w: bare '$'", ErrScript)
	}
	if e.pos < len(e.in) && e.in[e.pos] == '{' {
		// Hash element: find the matching brace.
		depth := 0
		j := e.pos
		for ; j < len(e.in); j++ {
			if e.in[j] == '{' {
				depth++
			} else if e.in[j] == '}' {
				depth--
				if depth == 0 {
					break
				}
			}
		}
		if depth != 0 {
			return Value{}, fmt.Errorf("%w: unbalanced hash braces", ErrScript)
		}
		keySrc := e.in[e.pos+1 : j]
		e.pos = j + 1
		key, err := e.i.eval(keySrc)
		if err != nil {
			return Value{}, err
		}
		if e.i.p != nil {
			e.i.p.Enter("hash_ops")
			e.i.p.Ops(4)
			e.i.p.Load(0x90_0000_0000 + hashAddr(name, key.Str()))
			e.i.p.Leave()
		}
		return e.i.hashes[name][key.Str()], nil
	}
	return e.i.scalars[name], nil
}

// parseRegexLiteral reads /pattern/.
func (e *exprParser) parseRegexLiteral() (string, error) {
	e.skipSpace()
	if e.pos >= len(e.in) || e.in[e.pos] != '/' {
		return "", fmt.Errorf("%w: expected /regex/", ErrScript)
	}
	end := strings.IndexByte(e.in[e.pos+1:], '/')
	if end < 0 {
		return "", fmt.Errorf("%w: unterminated regex", ErrScript)
	}
	re := e.in[e.pos+1 : e.pos+1+end]
	e.pos += end + 2
	return re, nil
}

// parseBuiltin evaluates a builtin call; fn's name was already consumed.
func (e *exprParser) parseBuiltin(fn string) (Value, error) {
	if !e.accept("(") {
		return Value{}, fmt.Errorf("%w: %s requires parentheses", ErrScript, fn)
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
			return Value{}, fmt.Errorf("%w: %s expects %c-name", ErrScript, fn, sigil)
		}
		e.pos++
		start := e.pos
		for e.pos < len(e.in) && isWord(e.in[e.pos]) {
			e.pos++
		}
		name := e.in[start:e.pos]
		if !e.accept(")") {
			return Value{}, fmt.Errorf("%w: missing ')'", ErrScript)
		}
		if fn == "scalar" {
			return NumValue(float64(len(e.i.arrays[name]))), nil
		}
		return NumValue(float64(len(e.i.hashes[name]))), nil
	case "exists":
		e.skipSpace()
		if e.pos >= len(e.in) || e.in[e.pos] != '$' {
			return Value{}, fmt.Errorf("%w: exists expects $hash{key}", ErrScript)
		}
		e.pos++
		start := e.pos
		for e.pos < len(e.in) && isWord(e.in[e.pos]) {
			e.pos++
		}
		name := e.in[start:e.pos]
		if e.pos >= len(e.in) || e.in[e.pos] != '{' {
			return Value{}, fmt.Errorf("%w: exists expects $hash{key}", ErrScript)
		}
		depth := 0
		j := e.pos
		for ; j < len(e.in); j++ {
			if e.in[j] == '{' {
				depth++
			} else if e.in[j] == '}' {
				depth--
				if depth == 0 {
					break
				}
			}
		}
		if depth != 0 {
			return Value{}, fmt.Errorf("%w: unbalanced hash braces", ErrScript)
		}
		keySrc := e.in[e.pos+1 : j]
		e.pos = j + 1
		if !e.accept(")") {
			return Value{}, fmt.Errorf("%w: missing ')'", ErrScript)
		}
		key, err := e.i.eval(keySrc)
		if err != nil {
			return Value{}, err
		}
		_, ok := e.i.hashes[name][key.Str()]
		return boolVal(ok), nil
	}
	// Generic comma-separated value arguments.
	var args []Value
	for {
		v, err := e.parseOr()
		if err != nil {
			return Value{}, err
		}
		args = append(args, v)
		if e.accept(",") {
			continue
		}
		break
	}
	if !e.accept(")") {
		return Value{}, fmt.Errorf("%w: missing ')' after %s", ErrScript, fn)
	}
	switch fn {
	case "length":
		return NumValue(float64(len(args[0].Str()))), nil
	case "uc":
		return StrValue(strings.ToUpper(args[0].Str())), nil
	case "lc":
		return StrValue(strings.ToLower(args[0].Str())), nil
	case "int":
		return NumValue(float64(int64(args[0].Num()))), nil
	case "index":
		if len(args) < 2 {
			return Value{}, fmt.Errorf("%w: index needs 2 args", ErrScript)
		}
		return NumValue(float64(strings.Index(args[0].Str(), args[1].Str()))), nil
	case "substr":
		if len(args) < 3 {
			return Value{}, fmt.Errorf("%w: substr needs 3 args", ErrScript)
		}
		s := args[0].Str()
		off, n := int(args[1].Num()), int(args[2].Num())
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
		return StrValue(s[off : off+n]), nil
	default:
		return Value{}, fmt.Errorf("%w: unknown builtin %s", ErrScript, fn)
	}
}

// regexMatch implements the literal/dot/star/class/anchor subset with
// backtracking.
func (i *Interp) regexMatch(s, pattern string) bool {
	if i.p != nil {
		i.p.Enter("regex_match")
		defer i.p.Leave()
		i.p.Ops(uint64(len(s) + len(pattern)))
	}
	anchored := strings.HasPrefix(pattern, "^")
	if anchored {
		pattern = pattern[1:]
	}
	if anchored {
		return matchHere(s, pattern, i)
	}
	for start := 0; start <= len(s); start++ {
		if i.p != nil && start%8 == 0 {
			i.p.Branch(82, true)
		}
		if matchHere(s[start:], pattern, i) {
			return true
		}
	}
	return false
}

// atom reads one pattern atom at p[0...]; returns the matcher and its
// length in the pattern.
func atomAt(p string) (func(byte) bool, int) {
	switch {
	case p[0] == '[':
		end := strings.IndexByte(p, ']')
		if end < 0 {
			lit := p[0]
			return func(c byte) bool { return c == lit }, 1
		}
		set := p[1:end]
		neg := false
		if strings.HasPrefix(set, "^") {
			neg = true
			set = set[1:]
		}
		// Expand a-z ranges.
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
		return func(c byte) bool { return allowed[c] != neg }, end + 1
	case p[0] == '.':
		return func(byte) bool { return true }, 1
	case p[0] == '\\' && len(p) > 1:
		switch p[1] {
		case 'd':
			return func(c byte) bool { return c >= '0' && c <= '9' }, 2
		case 'w':
			return func(c byte) bool { return isWord(c) }, 2
		case 's':
			return func(c byte) bool { return c == ' ' || c == '\t' || c == '\n' }, 2
		default:
			lit := p[1]
			return func(c byte) bool { return c == lit }, 2
		}
	default:
		lit := p[0]
		return func(c byte) bool { return c == lit }, 1
	}
}

func matchHere(s, p string, i *Interp) bool {
	if p == "" {
		return true
	}
	if p == "$" {
		return s == ""
	}
	m, alen := atomAt(p)
	rest := p[alen:]
	if strings.HasPrefix(rest, "*") {
		rest = rest[1:]
		// Greedy with backtracking.
		n := 0
		for n < len(s) && m(s[n]) {
			n++
		}
		for ; n >= 0; n-- {
			if matchHere(s[n:], rest, i) {
				return true
			}
		}
		return false
	}
	if strings.HasPrefix(rest, "+") {
		rest = rest[1:]
		n := 0
		for n < len(s) && m(s[n]) {
			n++
		}
		for ; n >= 1; n-- {
			if matchHere(s[n:], rest, i) {
				return true
			}
		}
		return false
	}
	if len(s) > 0 && m(s[0]) {
		return matchHere(s[1:], rest, i)
	}
	return false
}
