// Package monetxml implements the paper's physical level: the Monet
// transform, a DTD-less, document-dependent mapping of XML documents
// onto binary association tables named by root-to-node paths.
//
// The mapping follows Definition 1 of the paper: a document
// d = (V, E, r, labelE, labelA, rank) becomes Mt(d) = (r, E, A, T)
// where
//
//   - E stores parent-child edges in relations R(path(parent)/tag),
//   - A stores attribute values in relations R(path(node)[attr]),
//   - T stores sibling order in relations R(path(node)[rank]).
//
// Character data is modelled as a special attribute of pcdata nodes,
// exactly as in the paper. Encoding the full path into the relation
// name yields the semantic clustering that distinguishes this mapping
// from generic edge tables (see the EdgeStore baseline in
// edge_test.go) and makes the ubiquitous XML path expressions single-scan
// operations.
package monetxml

import (
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Attr is an ordered XML attribute.
type Attr struct {
	Name  string
	Value string
}

// Node is an in-memory XML syntax-tree node, used by tests, by the
// authoring path of the conceptual level and by document
// reconstruction. An element node has a non-empty Tag; a text node has
// an empty Tag and its character data in Text.
type Node struct {
	Tag      string
	Attrs    []Attr
	Children []*Node
	Text     string
}

// IsText reports whether n is a character-data node.
func (n *Node) IsText() bool { return n.Tag == "" }

// Elem constructs an element node with the given children.
func Elem(tag string, children ...*Node) *Node {
	return &Node{Tag: tag, Children: children}
}

// TextNode constructs a character-data node.
func TextNode(s string) *Node { return &Node{Text: s} }

// WithAttr returns n after appending an attribute; it enables fluent
// construction in tests and generators.
func (n *Node) WithAttr(name, value string) *Node {
	n.Attrs = append(n.Attrs, Attr{Name: name, Value: value})
	return n
}

// Attr returns the value of the named attribute and whether it exists.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// Child returns the first element child with the given tag, or nil.
func (n *Node) Child(tag string) *Node {
	for _, c := range n.Children {
		if c.Tag == tag {
			return c
		}
	}
	return nil
}

// ChildrenByTag returns all element children with the given tag.
func (n *Node) ChildrenByTag(tag string) []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Tag == tag {
			out = append(out, c)
		}
	}
	return out
}

// InnerText returns the concatenated character data directly below n.
func (n *Node) InnerText() string {
	var sb strings.Builder
	for _, c := range n.Children {
		if c.IsText() {
			sb.WriteString(c.Text)
		}
	}
	return sb.String()
}

// DeepText returns all character data in the subtree, concatenated in
// document order. Used by the IR indexer to flatten Hypertext values.
func (n *Node) DeepText() string {
	var sb strings.Builder
	var walk func(*Node)
	walk = func(m *Node) {
		if m.IsText() {
			sb.WriteString(m.Text)
			return
		}
		for _, c := range m.Children {
			walk(c)
		}
	}
	walk(n)
	return sb.String()
}

// CountNodes returns the number of nodes (elements and text nodes) in
// the subtree rooted at n, including n.
func (n *Node) CountNodes() int {
	c := 1
	for _, ch := range n.Children {
		c += ch.CountNodes()
	}
	return c
}

// Height returns the height of the subtree (a single node has height 1).
func (n *Node) Height() int {
	h := 0
	for _, ch := range n.Children {
		if ch.IsText() {
			continue
		}
		if hh := ch.Height(); hh > h {
			h = hh
		}
	}
	return h + 1
}

// Equal reports whether two trees are isomorphic: same tags, same
// attributes in order, same children in order, same (whitespace
// trimmed) character data. This is the isomorphism of Definition 1's
// inverse-mapping guarantee.
func (n *Node) Equal(m *Node) bool {
	if n.IsText() != m.IsText() {
		return false
	}
	if n.IsText() {
		return strings.TrimSpace(n.Text) == strings.TrimSpace(m.Text)
	}
	if n.Tag != m.Tag || len(n.Attrs) != len(m.Attrs) {
		return false
	}
	// XML attribute order is insignificant; compare as sorted sets.
	na := append([]Attr(nil), n.Attrs...)
	ma := append([]Attr(nil), m.Attrs...)
	sort.Slice(na, func(i, j int) bool { return na[i].Name < na[j].Name })
	sort.Slice(ma, func(i, j int) bool { return ma[i].Name < ma[j].Name })
	for i := range na {
		if na[i] != ma[i] {
			return false
		}
	}
	nc := n.meaningfulChildren()
	mc := m.meaningfulChildren()
	if len(nc) != len(mc) {
		return false
	}
	for i := range nc {
		if !nc[i].Equal(mc[i]) {
			return false
		}
	}
	return true
}

// meaningfulChildren drops whitespace-only text nodes, which the
// bulkloader also ignores.
func (n *Node) meaningfulChildren() []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.IsText() && strings.TrimSpace(c.Text) == "" {
			continue
		}
		out = append(out, c)
	}
	return out
}

// String renders the subtree as XML without a declaration header.
func (n *Node) String() string {
	var sb strings.Builder
	n.write(&sb)
	return sb.String()
}

func (n *Node) write(sb *strings.Builder) {
	if n.IsText() {
		xml.EscapeText(sb, []byte(n.Text)) //nolint:errcheck // strings.Builder never fails
		return
	}
	sb.WriteByte('<')
	sb.WriteString(n.Tag)
	for _, a := range n.Attrs {
		sb.WriteByte(' ')
		sb.WriteString(a.Name)
		sb.WriteString(`="`)
		xml.EscapeText(sb, []byte(a.Value)) //nolint:errcheck
		sb.WriteString(`"`)
	}
	if len(n.Children) == 0 {
		sb.WriteString("/>")
		return
	}
	sb.WriteByte('>')
	for _, c := range n.Children {
		c.write(sb)
	}
	sb.WriteString("</")
	sb.WriteString(n.Tag)
	sb.WriteByte('>')
}

// ParseNode parses an XML document into a Node tree (DOM-style; the
// full tree is materialised). The streaming bulkloader does not use
// this; it exists for tests, authoring and the DOM baseline of
// experiment E08.
func ParseNode(r io.Reader) (*Node, error) {
	dec := xml.NewDecoder(r)
	var stack []*Node
	var root *Node
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("monetxml: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := &Node{Tag: t.Name.Local}
			for _, a := range t.Attr {
				n.Attrs = append(n.Attrs, Attr{Name: a.Name.Local, Value: a.Value})
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, fmt.Errorf("monetxml: multiple roots")
				}
				root = n
			} else {
				p := stack[len(stack)-1]
				p.Children = append(p.Children, n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("monetxml: unbalanced end tag %s", t.Name.Local)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) == 0 {
				continue
			}
			s := string(t)
			if strings.TrimSpace(s) == "" {
				continue
			}
			p := stack[len(stack)-1]
			p.Children = append(p.Children, TextNode(strings.TrimSpace(s)))
		}
	}
	if root == nil {
		return nil, fmt.Errorf("monetxml: empty document")
	}
	return root, nil
}

// MustParseNode is ParseNode for tests and constants; it panics on error.
func MustParseNode(s string) *Node {
	n, err := ParseNode(strings.NewReader(s))
	if err != nil {
		panic(err)
	}
	return n
}

// SortedAttrNames returns the attribute names of n in sorted order;
// used for deterministic schema-tree reporting.
func (n *Node) SortedAttrNames() []string {
	names := make([]string, len(n.Attrs))
	for i, a := range n.Attrs {
		names[i] = a.Name
	}
	sort.Strings(names)
	return names
}
