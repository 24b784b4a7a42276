package padsrt

// Mask controls, per component, how much work a parsing function performs:
// whether it fills in the in-memory representation and whether it checks
// syntactic and semantic constraints. Masks let a description record every
// known property of a source while letting each application pay only for the
// checks it needs (section 3 of the paper; the feature was motivated by the
// Hancock call-detail streams of section 5.1.2).
type Mask uint8

// Mask bits.
const (
	// Ignore: skip the data syntactically but neither store nor check it.
	Ignore Mask = 0
	// Set: fill in the in-memory representation.
	Set Mask = 1 << 0
	// Check: verify syntactic validity and semantic constraints.
	Check Mask = 1 << 1
	// CheckAndSet does both; it is the default everywhere.
	CheckAndSet Mask = Set | Check
)

// DoSet reports whether the representation should be filled in.
func (m Mask) DoSet() bool { return m&Set != 0 }

// DoCheck reports whether constraints should be verified.
func (m Mask) DoCheck() bool { return m&Check != 0 }

// String names the mask value.
func (m Mask) String() string {
	switch m {
	case Ignore:
		return "Ignore"
	case Set:
		return "Set"
	case Check:
		return "Check"
	case CheckAndSet:
		return "CheckAndSet"
	default:
		return "Mask(?)"
	}
}

// MaskNode is the generic mask tree used by the description interpreter and
// the driver tools. Generated parsers use concrete per-type mask structs
// instead (mirroring Figure 6), but both honor the same semantics.
//
// Base applies to the value itself when it is a base type; Compound applies
// to structured-type-level obligations such as Pwhere clauses and trailing
// constraints. A nil MaskNode anywhere in the tree means CheckAndSet for the
// whole subtree, so callers that want full checking can simply pass nil.
type MaskNode struct {
	Base     Mask
	Compound Mask
	Fields   map[string]*MaskNode // per-field masks for Pstruct/Punion branches
	Elem     *MaskNode            // element mask for Parray; nil = CheckAndSet
}

// NewMaskNode returns a mask tree node with every control set to the given
// mask, mirroring the generated <type>_m_init(…, baseMask) initializers.
func NewMaskNode(m Mask) *MaskNode {
	return &MaskNode{Base: m, Compound: m}
}

// BaseMask resolves the base-level mask, treating a nil node as CheckAndSet.
func (n *MaskNode) BaseMask() Mask {
	if n == nil {
		return CheckAndSet
	}
	return n.Base
}

// CompoundMask resolves the compound-level mask, treating nil as CheckAndSet.
func (n *MaskNode) CompoundMask() Mask {
	if n == nil {
		return CheckAndSet
	}
	return n.Compound
}

// Field returns the mask subtree for the named field. A missing entry in a
// non-nil node inherits the node's base mask for the whole subtree. The
// returned node may be shared (with the receiver or other lookups) and
// must not be modified.
func (n *MaskNode) Field(name string) *MaskNode {
	if n == nil {
		return nil
	}
	if sub, ok := n.Fields[name]; ok {
		return sub
	}
	return n.inherited()
}

// ElemMask returns the mask subtree for array elements. Like Field, the
// returned node may be shared and must not be modified.
func (n *MaskNode) ElemMask() *MaskNode {
	if n == nil {
		return nil
	}
	if n.Elem != nil {
		return n.Elem
	}
	return n.inherited()
}

// inherited is the subtree a missing field or element entry inherits: the
// node's masks with no per-field or element entries. nil means full
// checking; a node with no entries already is that subtree, so parsing
// under a uniform mask allocates nothing per field.
func (n *MaskNode) inherited() *MaskNode {
	switch {
	case n.Base == CheckAndSet:
		return nil
	case n.Fields == nil && n.Elem == nil:
		return n
	}
	return &MaskNode{Base: n.Base, Compound: n.Compound}
}

// SetField attaches a mask subtree for a named field, creating the map on
// first use, and returns the receiver for chaining.
func (n *MaskNode) SetField(name string, sub *MaskNode) *MaskNode {
	if n.Fields == nil {
		n.Fields = make(map[string]*MaskNode)
	}
	n.Fields[name] = sub
	return n
}
