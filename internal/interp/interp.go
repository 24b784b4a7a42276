// Package interp is the description interpreter: it parses data directly
// from a checked PADS description, producing generic values with nested
// parse descriptors. The description is lowered once to the flat IR and run
// by the bytecode VM (vm.go); the generated parsers are differentially
// tested against it, and it powers the command-line tools (padsacc, padsfmt,
// padsxml, padsquery) that work on any description without a compile step.
package interp

import (
	"fmt"
	"strings"

	"pads/internal/expr"
	"pads/internal/ir"
	"pads/internal/padsrt"
	"pads/internal/sema"
	"pads/internal/telemetry"
	"pads/internal/telemetry/prof"
	"pads/internal/value"
)

// Interp interprets one checked description.
//
// Stats and Tracer, when non-nil, observe the parse: Stats tallies errors by
// dotted field path and histograms union branch selection; Tracer emits one
// structured event per parsing decision (docs/OBSERVABILITY.md). Both default
// to nil, which costs one branch per decision and nothing else. An Interp is
// single-goroutine: it owns the VM's expression frame stack and its chunks
// of leaf value nodes, which are per-Interp and unsynchronized.
// That is why sharded parses, segment workers, and padsd requests each parse
// on their own Clone (see RecordReader.Shard, which also routes the shard's
// counters to its chunk source's Stats).
type Interp struct {
	Desc *sema.Desc
	// Ev is the reference expression evaluator over the checked AST, for
	// the writer and the data generator; parsing runs compiled code.
	Ev     *expr.Evaluator
	Stats  *telemetry.Stats
	Tracer *telemetry.Tracer

	// Prof, when non-nil, attributes wall time, bytes, and errors to
	// description node paths (telemetry/prof; the -profile flag). Its span
	// hooks are kept separate from the Stats/Tracer blocks because they
	// must not build path strings: the profiler interns nodes itself. Hook
	// discipline: each call site checks Prof.Sampling() once, remembers the
	// answer in a local, and only calls Exit if its own Enter ran — so
	// spans stay balanced even when the sampling state flips at a record
	// boundary between the two.
	Prof *prof.Profiler

	// prog is the lowered IR program (internal/ir) the VM executes. New
	// lowers it once; an Interp never has a nil prog.
	prog *ir.Program
	// code is prog's compiled expressions, shared with clones; fr is this
	// Interp's frame stack they run over (compile.go).
	code *code
	fr   frames

	path []string // dotted field path stack, maintained only while observing

	leaves leaves // the VM's chunks of pointer-free value nodes (alloc.go)
}

// observing reports whether any telemetry consumer is attached.
func (in *Interp) observing() bool { return in.Stats != nil || in.Tracer != nil }

func (in *Interp) pathString() string { return strings.Join(in.path, ".") }

// trace builds and emits an event only when a tracer is attached, so the
// disabled path never constructs an Event.
func (in *Interp) trace(ev, name string, s *padsrt.Source) {
	if in.Tracer == nil {
		return
	}
	p := s.Pos()
	in.Tracer.Emit(telemetry.Event{Ev: ev, Name: name, Off: p.Byte, Rec: p.Record})
}

// traceSpan emits an event covering [begin, here), with an optional error.
func (in *Interp) traceSpan(ev, name, branch string, begin padsrt.Pos, s *padsrt.Source, code padsrt.ErrCode) {
	if in.Tracer == nil {
		return
	}
	p := s.Pos()
	e := telemetry.Event{Ev: ev, Name: name, Branch: branch, Off: begin.Byte, End: p.Byte, Rec: p.Record}
	if code != padsrt.ErrNone {
		e.Err = code.String()
	}
	in.Tracer.Emit(e)
}

// New builds an interpreter for the description. The description is lowered
// to the flat IR and its expressions compiled once, here, and parsed by the
// bytecode VM; a description that cannot be lowered is an error.
func New(desc *sema.Desc) (*Interp, error) {
	p, err := ir.Lower(desc)
	if err != nil {
		return nil, err
	}
	return newInterp(desc, p, compileProgram(p)), nil
}

func newInterp(desc *sema.Desc, p *ir.Program, c *code) *Interp {
	return &Interp{Desc: desc, Ev: expr.New(desc), prog: p, code: c, fr: frames{slots: make([]dyn, c.slots)}}
}

// Clone returns an interpreter over the same checked description, lowered
// program and compiled expressions but with private mutable state: a fresh
// expression evaluator (evaluation carries call-depth state), its own frame
// stack and leaf chunks, and detached observers. It is the compile-once,
// parse-many primitive — segment shards and the padsd registry both clone
// one compiled description per concurrent parse instead of re-lowering it.
func (in *Interp) Clone() *Interp { return newInterp(in.Desc, in.prog, in.code) }

// ParseSource parses the entire data source according to the description's
// Psource declaration, with full checking. For large inputs prefer the
// record-at-a-time entry points (NewRecordReader).
func (in *Interp) ParseSource(s *padsrt.Source) (value.Value, error) {
	return in.ParseType(in.Desc.Source.DeclName(), s, nil, nil)
}

// ParseType parses a single value of the named type: the "multiple entry
// points" of section 4 that let applications read manageable portions of
// very large sources. args supplies values for the type's parameters; mask
// selects what to check and set (nil = check and set everything).
func (in *Interp) ParseType(name string, s *padsrt.Source, mask *padsrt.MaskNode, args []expr.V) (value.Value, error) {
	id, ok := in.prog.DeclByName(name)
	if !ok {
		return nil, fmt.Errorf("interp: unknown type %s", name)
	}
	v := in.parseTop(id, s, mask, args)
	return v, s.Err()
}

// parseTop parses one value of a declaration from outside any other: the
// frame stack starts empty, and the declaration's parameters are bound to
// args, those without an argument left unbound.
func (in *Interp) parseTop(id ir.DeclID, s *padsrt.Source, mask *padsrt.MaskNode, args []expr.V) value.Value {
	f := &in.fr
	f.base, f.top, f.depth = 0, 0, 0
	params := len(in.prog.Decls[id].Params)
	f.reserve(params)
	for i := 0; i < params; i++ {
		f.slots[i] = dyn{k: kUnset}
		if i < len(args) {
			f.slots[i] = fromV(args[i])
		}
	}
	return in.execDecl(id, s, mask, 0)
}
