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

	"pads/internal/dsl"
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
// single-goroutine: besides the evaluator's call-depth state it owns the
// VM's chunks of leaf value nodes, which are per-Interp and unsynchronized.
// That is why sharded parses, segment workers, and padsd requests each parse
// on their own Clone (see RecordReader.Shard, which also routes the shard's
// counters to its chunk source's Stats).
type Interp struct {
	Desc   *sema.Desc
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
// to the flat IR once, here, and parsed by the bytecode VM; a description
// that cannot be lowered is an error.
func New(desc *sema.Desc) (*Interp, error) {
	p, err := ir.Lower(desc)
	if err != nil {
		return nil, err
	}
	return &Interp{Desc: desc, Ev: expr.New(desc), prog: p}, nil
}

// Clone returns an interpreter over the same checked description and lowered
// program but with private mutable state: a fresh expression evaluator
// (evaluation carries call-depth state), its own leaf chunks, and detached
// observers. It is the compile-once, parse-many primitive — segment shards
// and the padsd registry both clone one compiled description per concurrent
// parse instead of re-lowering it.
func (in *Interp) Clone() *Interp {
	return &Interp{Desc: in.Desc, Ev: expr.New(in.Desc), prog: in.prog}
}

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
	v := in.execDecl(id, s, mask, args)
	return v, s.Err()
}

// bindParams binds a declaration's parameters to its arguments in a fresh
// scope.
func bindParams(params []dsl.Param, args []expr.V) *expr.Env {
	e := expr.NewEnv(nil)
	for i, p := range params {
		if i < len(args) {
			e.Bind(p.Name, args[i])
		}
	}
	return e
}
