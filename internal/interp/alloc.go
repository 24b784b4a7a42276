package interp

import "pads/internal/value"

// Value allocation for the VM (docs/IR.md, "Value allocation"). A record's
// value tree is mostly leaves, and a leaf holds no pointer to another value
// node, so leaves are carved from small per-Interp chunks: one allocation
// per leafChunk leaves of a kind instead of one per leaf. Nodes that point
// to other nodes (Struct, Union, Array, Opt) are never pooled: a chunk of
// them keeps alive every chunk its members point into, which ties records
// together, so one retained value could keep thousands of records alive.
// A retained leaf keeps at most its own chunk alive. Every node is handed
// out once and never reused, so consumers may keep any value.

// leafChunk is the number of leaves of one kind in each chunk.
const leafChunk = 32

// chunk hands out zeroed Ts from a slice allocated leafChunk at a time.
type chunk[T any] []T

func (c *chunk[T]) next() *T {
	if len(*c) == 0 {
		*c = make([]T, leafChunk)
	}
	v := &(*c)[0]
	*c = (*c)[1:]
	return v
}

// leaves holds the current chunk of each pointer-free value kind.
type leaves struct {
	uints  chunk[value.Uint]
	ints   chunk[value.Int]
	floats chunk[value.Float]
	chars  chunk[value.Char]
	strs   chunk[value.Str]
	dates  chunk[value.Date]
	ips    chunk[value.IP]
	enums  chunk[value.Enum]
	voids  chunk[value.Void]
}

// void returns a pooled Void of the given type name.
func (l *leaves) void(typ string) *value.Void {
	v := l.voids.next()
	v.Type = typ
	return v
}

// newStruct allocates a struct value of n fields in one object with the
// backing array of its Fields, instead of three (the value, Names, and
// Fields). Fields has cap n, so a consumer's append copies.
func newStruct(typ string, n int) *value.Struct {
	var st *value.Struct
	switch {
	case n == 0:
		st = new(value.Struct)
	case n <= 2:
		b := new(struct {
			value.Struct
			f [2]value.Value
		})
		b.Fields = b.f[:0:n]
		st = &b.Struct
	case n <= 4:
		b := new(struct {
			value.Struct
			f [4]value.Value
		})
		b.Fields = b.f[:0:n]
		st = &b.Struct
	case n <= 8:
		b := new(struct {
			value.Struct
			f [8]value.Value
		})
		b.Fields = b.f[:0:n]
		st = &b.Struct
	case n <= 16:
		b := new(struct {
			value.Struct
			f [16]value.Value
		})
		b.Fields = b.f[:0:n]
		st = &b.Struct
	default:
		st = &value.Struct{Fields: make([]value.Value, 0, n)}
	}
	st.Type = typ
	return st
}
