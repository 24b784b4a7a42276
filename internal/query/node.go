// Package query provides querying over raw PADS data (section 5.4 of the
// paper): a tree-shaped data API over parsed values — the role the Galax
// data API plays in the original system (node_new / node_kthChild in
// Figure 6) — plus an XPath-subset query engine sufficient for the paper's
// Sirius queries, standing in for XQuery.
package query

import (
	"fmt"

	"pads/internal/padsrt"
	"pads/internal/value"
)

// Node is one node of the tree view of a parsed value. Children follow the
// canonical XML embedding: struct fields by name, the taken union branch by
// its tag, array elements as "elt", and a "pd" child on values with errors.
type Node struct {
	Name   string
	Val    value.Value
	Parent *Node

	children []*Node
	built    bool
	// pd nodes carry text instead of a value.
	text   string
	isText bool
}

// NewNode roots a tree at a parsed value — the node_new entry point.
func NewNode(name string, v value.Value) *Node {
	return &Node{Name: name, Val: v}
}

func textNode(name, text string, parent *Node) *Node {
	return &Node{Name: name, text: text, isText: true, Parent: parent}
}

func (n *Node) build() {
	if n.built {
		return
	}
	n.built = true
	if n.isText || n.Val == nil {
		return
	}
	add := func(name string, v value.Value) {
		// Optionals collapse: a present Popt contributes its inner value
		// under the field name, an absent one contributes no node (the
		// schema's minOccurs="0"), so [field] works as an existence test.
		if o, ok := v.(*value.Opt); ok {
			if !o.Present {
				return
			}
			v = o.Val
		}
		n.children = append(n.children, &Node{Name: name, Val: v, Parent: n})
	}
	switch v := n.Val.(type) {
	case *value.Struct:
		for i, name := range v.Names {
			add(name, v.Fields[i])
		}
	case *value.Union:
		if v.Val != nil {
			add(v.Tag, v.Val)
		}
	case *value.Array:
		for _, e := range v.Elems {
			add("elt", e)
		}
		n.children = append(n.children, textNode("length", fmt.Sprintf("%d", len(v.Elems)), n))
	case *value.Opt:
		// Reached only when an Opt is itself the root.
		if v.Present {
			add("val", v.Val)
		}
	}
	if pd := n.pd(); pd != nil && pd.Nerr > 0 {
		pdNode := &Node{Name: "pd", Parent: n, built: true}
		pdNode.children = []*Node{
			textNode("pstate", pd.State.String(), pdNode),
			textNode("nerr", fmt.Sprintf("%d", pd.Nerr), pdNode),
			textNode("errCode", pd.ErrCode.String(), pdNode),
			textNode("loc", pd.Loc.String(), pdNode),
		}
		n.children = append(n.children, pdNode)
	}
}

func (n *Node) pd() *padsrt.PD {
	if n.Val == nil {
		return nil
	}
	return n.Val.PD()
}

// NumChildren reports the number of children.
func (n *Node) NumChildren() int {
	n.build()
	return len(n.children)
}

// KthChild returns the k'th child (0-based) — the node_kthChild entry
// point; nil when out of range.
func (n *Node) KthChild(k int) *Node {
	n.build()
	if k < 0 || k >= len(n.children) {
		return nil
	}
	return n.children[k]
}

// Children returns all children.
func (n *Node) Children() []*Node {
	n.build()
	return n.children
}

// ChildrenNamed returns the children with the given element name.
func (n *Node) ChildrenNamed(name string) []*Node {
	n.build()
	var out []*Node
	for _, c := range n.children {
		if c.Name == name {
			out = append(out, c)
		}
	}
	return out
}

// Text returns the node's text content: the leaf value's canonical text, or
// the stored text for synthesized nodes.
func (n *Node) Text() string {
	if n.isText {
		return n.text
	}
	return value.Text(n.Val)
}

// Num returns the node's numeric interpretation, ok=false when it has none.
// Dates are epoch seconds so they compare against xs:date literals.
func (n *Node) Num() (float64, bool) {
	if n.isText {
		var f float64
		if _, err := fmt.Sscanf(n.text, "%g", &f); err == nil {
			return f, true
		}
		return 0, false
	}
	switch v := n.Val.(type) {
	case *value.Uint:
		return float64(v.Val), true
	case *value.Int:
		return float64(v.Val), true
	case *value.Float:
		return v.Val, true
	case *value.Char:
		return float64(v.Val), true
	case *value.Date:
		return float64(v.Sec), true
	case *value.IP:
		return float64(v.Val), true
	case *value.Enum:
		return float64(v.Index), true
	case *value.Opt:
		if v.Present {
			return (&Node{Val: v.Val}).Num()
		}
	}
	return 0, false
}

// Path renders the node's location for diagnostics.
func (n *Node) Path() string {
	if n.Parent == nil {
		return "/" + n.Name
	}
	return n.Parent.Path() + "/" + n.Name
}
