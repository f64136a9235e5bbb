package xalan

import (
	"errors"
	"fmt"
)

// Stylesheet is a compiled transformation: an ordered list of templates.
type Stylesheet struct {
	templates []*template
}

// template is one match rule.
type template struct {
	match string // element name, "*", "/", or "text()"
	body  []*Node
}

// ErrBadStylesheet reports an invalid stylesheet document.
var ErrBadStylesheet = errors.New("xalan: bad stylesheet")

// CompileStylesheet parses a stylesheet document: a <stylesheet> root whose
// <template match="..."> children hold instruction bodies.
func CompileStylesheet(src string) (*Stylesheet, error) {
	root, err := ParseXML(src, nil)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadStylesheet, err)
	}
	if root.Name != "stylesheet" {
		return nil, fmt.Errorf("%w: root is %q", ErrBadStylesheet, root.Name)
	}
	ss := &Stylesheet{}
	for _, c := range root.Children {
		if c.Kind != ElementNode {
			continue
		}
		if c.Name != "template" {
			return nil, fmt.Errorf("%w: unexpected %q", ErrBadStylesheet, c.Name)
		}
		m, ok := c.Attr("match")
		if !ok || m == "" {
			return nil, fmt.Errorf("%w: template without match", ErrBadStylesheet)
		}
		ss.templates = append(ss.templates, &template{match: m, body: c.Children})
	}
	if len(ss.templates) == 0 {
		return nil, fmt.Errorf("%w: no templates", ErrBadStylesheet)
	}
	return ss, nil
}
