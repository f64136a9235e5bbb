package xalan

import (
	"strconv"
	"strings"

	"repro/internal/perf"
)

// This file is the tree-walking stylesheet engine, kept as the test-only
// differential oracle for the compiled engine in compiled.go: it
// re-inspects instruction names, attributes and select strings on every
// visit. Both engines must produce the same output tree and the same
// modeled event stream.

// Transformer applies a stylesheet to a document.
type Transformer struct {
	ss *Stylesheet
	p  *perf.Profiler
}

// NewTransformer pairs a stylesheet with a profiler.
func NewTransformer(ss *Stylesheet, p *perf.Profiler) *Transformer {
	if p != nil {
		p.SetFootprint("match_template", 5<<10)
		p.SetFootprint("exec_template", 6<<10)
		p.SetFootprint("select_nodes", 4<<10)
		p.SetFootprint("exec_valueof", 2<<10)
		p.SetFootprint("exec_foreach", 2<<10)
		p.SetFootprint("exec_if", 2<<10)
	}
	return &Transformer{ss: ss, p: p}
}

// Transform applies the stylesheet to root and returns the output tree
// (wrapped in a synthetic "out" element).
func (t *Transformer) Transform(root *Node) *Node {
	out := &Node{Kind: ElementNode, Name: "out"}
	t.applyTo(root, out, true)
	return out
}

// findTemplate locates the best template for node n.
func (t *Transformer) findTemplate(n *Node, isRoot bool) *template {
	if t.p != nil {
		t.p.Enter("match_template")
		defer t.p.Leave()
	}
	var wildcard *template
	for i, tpl := range t.ss.templates {
		var hit bool
		switch {
		case n.Kind == TextNode:
			hit = tpl.match == "text()"
		case isRoot && tpl.match == "/":
			hit = true
		case tpl.match == n.Name:
			hit = true
		case tpl.match == "*":
			if wildcard == nil {
				wildcard = tpl
			}
		}
		if t.p != nil {
			t.p.Ops(3)
			t.p.Load(parseAddr + uint64(i)*64)
			t.p.Branch(41, hit)
		}
		if hit {
			return tpl
		}
	}
	return wildcard
}

// applyTo processes node n, appending output to parent.
func (t *Transformer) applyTo(n *Node, parent *Node, isRoot bool) {
	tpl := t.findTemplate(n, isRoot)
	if tpl == nil {
		// Built-in rules: text copies through; elements recurse.
		if n.Kind == TextNode {
			parent.Children = append(parent.Children, &Node{Kind: TextNode, Text: n.Text, Parent: parent})
			return
		}
		for _, c := range n.Children {
			t.applyTo(c, parent, false)
		}
		return
	}
	if t.p != nil {
		t.p.Enter("exec_template")
		defer t.p.Leave()
	}
	t.execBody(tpl.body, n, parent)
}

// execBody runs a template body with context node ctx.
func (t *Transformer) execBody(body []*Node, ctx *Node, parent *Node) {
	for _, instr := range body {
		if instr.Kind == TextNode {
			parent.Children = append(parent.Children, &Node{Kind: TextNode, Text: instr.Text, Parent: parent})
			if t.p != nil {
				t.p.Ops(uint64(len(instr.Text)))
			}
			continue
		}
		switch instr.Name {
		case "element":
			name, _ := instr.Attr("name")
			el := &Node{Kind: ElementNode, Name: name, Parent: parent}
			parent.Children = append(parent.Children, el)
			t.execBody(instr.Children, ctx, el)
		case "attribute":
			name, _ := instr.Attr("name")
			sel, _ := instr.Attr("select")
			parent.Attrs = append(parent.Attrs, Attr{Name: name, Value: t.valueOf(sel, ctx)})
		case "value-of":
			if t.p != nil {
				t.p.Enter("exec_valueof")
			}
			sel, _ := instr.Attr("select")
			v := t.valueOf(sel, ctx)
			parent.Children = append(parent.Children, &Node{Kind: TextNode, Text: v, Parent: parent})
			if t.p != nil {
				t.p.Ops(uint64(4 + len(v)))
				t.p.Leave()
			}
		case "count":
			sel, _ := instr.Attr("select")
			nodes := t.selectNodes(sel, ctx)
			parent.Children = append(parent.Children, &Node{
				Kind: TextNode, Text: strconv.Itoa(len(nodes)), Parent: parent,
			})
		case "apply-templates":
			sel, hasSel := instr.Attr("select")
			var targets []*Node
			if hasSel {
				targets = t.selectNodes(sel, ctx)
			} else {
				targets = ctx.Children
			}
			for _, target := range targets {
				t.applyTo(target, parent, false)
			}
		case "for-each":
			if t.p != nil {
				t.p.Enter("exec_foreach")
			}
			sel, _ := instr.Attr("select")
			for _, target := range t.selectNodes(sel, ctx) {
				t.execBody(instr.Children, target, parent)
				if t.p != nil {
					t.p.Ops(4)
					t.p.Branch(42, true)
				}
			}
			if t.p != nil {
				t.p.Leave()
			}
		case "if":
			if t.p != nil {
				t.p.Enter("exec_if")
			}
			test, _ := instr.Attr("test")
			pass := t.evalTest(test, ctx)
			if t.p != nil {
				t.p.Ops(6)
				t.p.Branch(43, pass)
				t.p.Leave()
			}
			if pass {
				t.execBody(instr.Children, ctx, parent)
			}
		case "text":
			v, _ := instr.Attr("value")
			parent.Children = append(parent.Children, &Node{Kind: TextNode, Text: v, Parent: parent})
		default:
			// Unknown instructions are copied as literal result elements.
			el := &Node{Kind: ElementNode, Name: instr.Name, Attrs: instr.Attrs, Parent: parent}
			parent.Children = append(parent.Children, el)
			t.execBody(instr.Children, ctx, el)
		}
	}
}

// selectNodes resolves a path expression against ctx. Supported forms:
// ".", "name", "a/b/c", "//name", "*".
func (t *Transformer) selectNodes(sel string, ctx *Node) []*Node {
	if t.p != nil {
		t.p.Enter("select_nodes")
		defer t.p.Leave()
	}
	if sel == "" || sel == "." {
		return []*Node{ctx}
	}
	if rest, ok := strings.CutPrefix(sel, "//"); ok {
		var out []*Node
		var walk func(*Node)
		walk = func(n *Node) {
			if t.p != nil {
				t.p.Ops(2)
			}
			for _, c := range n.Children {
				if c.Kind == ElementNode {
					if c.Name == rest || rest == "*" {
						out = append(out, c)
					}
					walk(c)
				}
			}
		}
		walk(ctx)
		return out
	}
	current := []*Node{ctx}
	for _, step := range strings.Split(sel, "/") {
		var next []*Node
		for _, n := range current {
			for _, c := range n.Children {
				match := c.Kind == ElementNode && (c.Name == step || step == "*")
				if t.p != nil {
					t.p.Ops(2)
					t.p.Branch(44, match)
				}
				if match {
					next = append(next, c)
				}
			}
		}
		current = next
	}
	return current
}

// valueOf resolves a value expression: "@attr", a node path (first match's
// text), "name()" or ".".
func (t *Transformer) valueOf(sel string, ctx *Node) string {
	switch {
	case sel == "" || sel == ".":
		return ctx.TextContent()
	case sel == "name()":
		return ctx.Name
	case strings.HasPrefix(sel, "@"):
		v, _ := ctx.Attr(sel[1:])
		return v
	default:
		nodes := t.selectNodes(sel, ctx)
		if len(nodes) == 0 {
			return ""
		}
		return nodes[0].TextContent()
	}
}

// evalTest evaluates a predicate: "@attr='v'", "path='v'", or a bare
// path/attribute existence test.
func (t *Transformer) evalTest(test string, ctx *Node) bool {
	if eq := strings.Index(test, "="); eq >= 0 {
		lhs := strings.TrimSpace(test[:eq])
		rhs := strings.Trim(strings.TrimSpace(test[eq+1:]), "'\"")
		return t.valueOf(lhs, ctx) == rhs
	}
	if strings.HasPrefix(test, "@") {
		_, ok := ctx.Attr(test[1:])
		return ok
	}
	return len(t.selectNodes(test, ctx)) > 0
}
