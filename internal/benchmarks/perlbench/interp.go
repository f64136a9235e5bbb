// Package perlbench reproduces 500.perlbench_r: a stripped-down script
// interpreter. Faithful to the paper, this is the one benchmark with NO
// Alberta workloads: real Perl applications all depend on C-extension
// modules that the stripped-down interpreter cannot load, so only the
// SPEC-style test/train/refrate scripts ship. The interpreter implements a
// Perl-flavored dynamic language: dual string/number scalars, arrays,
// hashes, string operators, control flow, and a literal/star regex matcher.
package perlbench

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Value is a Perl-style scalar: it carries a string and converts to a
// number on demand. Values built numerically cache the conversion (hasN),
// so arithmetic chains stop round-tripping strconv; the invariant is that
// n always equals numPrefix(s), making cached and uncached Values
// semantically indistinguishable.
type Value struct {
	s    string
	n    float64
	hasN bool
}

// NumValue builds a numeric scalar.
func NumValue(f float64) Value {
	if f == float64(int64(f)) {
		// The decimal form of int64(f) parses back to exactly f.
		return Value{s: strconv.FormatInt(int64(f), 10), n: f, hasN: true}
	}
	// 'g' may format with an exponent ("1.0000005e+06"), whose numeric
	// prefix ends at 'e' — cache what Num would parse, not f itself.
	s := strconv.FormatFloat(f, 'g', -1, 64)
	return Value{s: s, n: numPrefix(s), hasN: true}
}

// StrValue builds a string scalar.
func StrValue(s string) Value { return Value{s: s} }

// Str returns the string form.
func (v Value) Str() string { return v.s }

// Num converts like Perl: the longest numeric prefix, else 0.
func (v Value) Num() float64 {
	if v.hasN {
		return v.n
	}
	return numPrefix(v.s)
}

// numPrefix parses the longest numeric prefix, else 0.
func numPrefix(raw string) float64 {
	s := strings.TrimSpace(raw)
	end := 0
	seenDigit := false
	for end < len(s) {
		c := s[end]
		if c == '-' || c == '+' {
			if end != 0 {
				break
			}
		} else if c == '.' {
			// allowed once; a second dot ends the number
			if strings.IndexByte(s[:end], '.') >= 0 {
				break
			}
		} else if c < '0' || c > '9' {
			break
		} else {
			seenDigit = true
		}
		end++
	}
	if !seenDigit {
		return 0
	}
	f, err := strconv.ParseFloat(s[:end], 64)
	if err != nil {
		return 0
	}
	return f
}

// Truthy follows Perl: "" and "0" are false.
func (v Value) Truthy() bool { return v.s != "" && v.s != "0" }

// ErrScript reports a parse or runtime failure.
var ErrScript = errors.New("perlbench: script error")

// line-based parser: the language is statement-per-line with explicit
// block markers, which keeps the interpreter honest without a full yacc
// grammar. Syntax:
//
//	$x = <expr>;
//	push @a, <expr>;
//	$h{<expr>} = <expr>;
//	print <expr>;
//	if (<expr>) { ... } else { ... }
//	while (<expr>) { ... }
//	foreach $v (@a) { ... }
//	foreach $k (keys %h) { ... }
type stmt struct {
	kind   string // assign, pushArr, hashSet, print, if, while, foreach
	text   string // raw content
	lhs    string
	expr   string
	cond   string
	body   []stmt
	else_  []stmt
	k1, k2 string
}

// Parse compiles a script to a statement tree.
func Parse(src string) ([]stmt, error) {
	lines := strings.Split(src, "\n")
	pos := 0
	return parseBlock(lines, &pos, false)
}

func parseBlock(lines []string, pos *int, inBlock bool) ([]stmt, error) {
	var out []stmt
	for *pos < len(lines) {
		raw := strings.TrimSpace(lines[*pos])
		*pos++
		if raw == "" || strings.HasPrefix(raw, "#") {
			continue
		}
		if raw == "}" {
			if !inBlock {
				return nil, fmt.Errorf("%w: unexpected '}' at line %d", ErrScript, *pos)
			}
			return out, nil
		}
		if raw == "} else {" {
			if !inBlock {
				return nil, fmt.Errorf("%w: unexpected else at line %d", ErrScript, *pos)
			}
			*pos-- // let the caller see it
			return out, nil
		}
		switch {
		case strings.HasPrefix(raw, "if (") && strings.HasSuffix(raw, ") {"):
			cond := raw[4 : len(raw)-3]
			body, err := parseBlock(lines, pos, true)
			if err != nil {
				return nil, err
			}
			st := stmt{kind: "if", cond: cond, body: body}
			if *pos < len(lines) && strings.TrimSpace(lines[*pos]) == "} else {" {
				*pos++
				els, err := parseBlock(lines, pos, true)
				if err != nil {
					return nil, err
				}
				st.else_ = els
			}
			out = append(out, st)
		case strings.HasPrefix(raw, "while (") && strings.HasSuffix(raw, ") {"):
			cond := raw[7 : len(raw)-3]
			body, err := parseBlock(lines, pos, true)
			if err != nil {
				return nil, err
			}
			out = append(out, stmt{kind: "while", cond: cond, body: body})
		case strings.HasPrefix(raw, "foreach ") && strings.HasSuffix(raw, ") {"):
			// foreach $v (@a) {   |   foreach $k (keys %h) {
			inner := raw[len("foreach ") : len(raw)-3]
			parts := strings.SplitN(inner, " (", 2)
			if len(parts) != 2 || !strings.HasPrefix(parts[0], "$") {
				return nil, fmt.Errorf("%w: bad foreach %q", ErrScript, raw)
			}
			body, err := parseBlock(lines, pos, true)
			if err != nil {
				return nil, err
			}
			out = append(out, stmt{kind: "foreach", k1: parts[0][1:], k2: parts[1], body: body})
		case strings.HasSuffix(raw, ";"):
			body := raw[:len(raw)-1]
			switch {
			case strings.HasPrefix(body, "print "):
				out = append(out, stmt{kind: "print", expr: body[6:]})
			case strings.HasPrefix(body, "push @"):
				rest := body[6:]
				comma := strings.Index(rest, ",")
				if comma < 0 {
					return nil, fmt.Errorf("%w: bad push %q", ErrScript, raw)
				}
				out = append(out, stmt{kind: "pushArr", lhs: strings.TrimSpace(rest[:comma]), expr: strings.TrimSpace(rest[comma+1:])})
			case strings.HasPrefix(body, "$"):
				eq := findAssign(body)
				if eq < 0 {
					return nil, fmt.Errorf("%w: expected assignment in %q", ErrScript, raw)
				}
				lhs := strings.TrimSpace(body[:eq])
				rhs := strings.TrimSpace(body[eq+1:])
				if strings.Contains(lhs, "{") {
					out = append(out, stmt{kind: "hashSet", lhs: lhs, expr: rhs})
				} else {
					out = append(out, stmt{kind: "assign", lhs: lhs[1:], expr: rhs})
				}
			default:
				return nil, fmt.Errorf("%w: cannot parse %q", ErrScript, raw)
			}
		default:
			return nil, fmt.Errorf("%w: cannot parse %q", ErrScript, raw)
		}
	}
	if inBlock {
		return nil, fmt.Errorf("%w: unterminated block", ErrScript)
	}
	return out, nil
}

// findAssign locates the top-level '=' (not ==, !=, <=, >=, =~).
func findAssign(s string) int {
	depth := 0
	inStr := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if inStr {
			if c == '"' {
				inStr = false
			}
			continue
		}
		switch c {
		case '"':
			inStr = true
		case '(', '{':
			depth++
		case ')', '}':
			depth--
		case '=':
			if depth == 0 {
				prev := byte(0)
				if i > 0 {
					prev = s[i-1]
				}
				next := byte(0)
				if i+1 < len(s) {
					next = s[i+1]
				}
				if prev != '=' && prev != '!' && prev != '<' && prev != '>' &&
					next != '=' && next != '~' {
					return i
				}
			}
		}
	}
	return -1
}

func isWord(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

// trueValue/falseValue carry the numeric cache; numPrefix("1") is 1 and
// numPrefix("") is 0, so they are indistinguishable from the uncached
// StrValue forms.
var (
	trueValue  = Value{s: "1", n: 1, hasN: true}
	falseValue = Value{s: "", n: 0, hasN: true}
)

func boolVal(b bool) Value {
	if b {
		return trueValue
	}
	return falseValue
}
