// Package core orchestrates the PADS pipeline — the paper's primary
// contribution assembled end to end: parse a description (internal/dsl),
// check it (internal/sema), and expose every artifact the system derives
// from it: the interpreter (internal/interp), the Go compiler backend
// (internal/codegen), XML Schema generation (internal/xmlgen), accumulators
// (internal/accum), formatting (internal/fmtconv), the query tree
// (internal/query), and random data generation (internal/datagen).
//
// The public package pads wraps this into the user-facing API; the cmd/
// tools call it directly.
package core

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"pads/internal/accum"
	"pads/internal/codegen"
	"pads/internal/datagen"
	"pads/internal/dsl"
	"pads/internal/fmtconv"
	"pads/internal/interp"
	"pads/internal/padsrt"
	"pads/internal/query"
	"pads/internal/segment"
	"pads/internal/sema"
	"pads/internal/telemetry"
	"pads/internal/telemetry/prof"
	"pads/internal/value"
	"pads/internal/xmlgen"
)

// Description is a compiled PADS description plus the machinery derived
// from it.
type Description struct {
	Source  string // description source text
	Name    string // file name or label, used in diagnostics
	Program *dsl.Program
	Desc    *sema.Desc
	Interp  *interp.Interp

	// Policy, when non-nil, applies an error budget and dead-letter sink to
	// every record scan the description runs (AccumulateReader and the
	// parallel entry points); see docs/ROBUSTNESS.md. Parallel scans give
	// each segment a private interp.Batch and flush into Policy.Sink in
	// segment order, so the quarantine file is deterministic at any worker
	// count; budget thresholds are then enforced on the merged counts at
	// segment boundaries (a sequential scan checks per record). Not safe to
	// change while a parse is running.
	Policy *interp.Policy
}

// CompileError aggregates front-end diagnostics.
type CompileError struct {
	Name string
	Errs []*dsl.Error
}

// Error renders every diagnostic, one per line.
func (e *CompileError) Error() string {
	var b strings.Builder
	for i, d := range e.Errs {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%s:%v", e.Name, d)
	}
	return b.String()
}

// Compile parses and checks a description.
func Compile(src, name string) (*Description, error) {
	prog, perrs := dsl.Parse(src)
	if len(perrs) > 0 {
		return nil, &CompileError{Name: name, Errs: perrs}
	}
	desc, serrs := sema.Check(prog)
	if len(serrs) > 0 {
		return nil, &CompileError{Name: name, Errs: serrs}
	}
	return &Description{
		Source:  src,
		Name:    name,
		Program: prog,
		Desc:    desc,
		Interp:  interp.New(desc),
	}, nil
}

// CompileFile reads and compiles a description file.
func CompileFile(path string) (*Description, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Compile(string(src), path)
}

// Observe attaches telemetry to every parse the description runs: st (when
// non-nil) tallies interpreter counters — per-field-path errors and union
// branch histograms — and tr (when non-nil) receives structured trace
// events. Attach the same st to the input Source (padsrt.WithStats) to also
// collect its buffer/record/speculation counters; parallel entry points
// fold each segment's counters into st, with per-worker rows in st.Workers.
// Pass nils to detach. Not safe to call concurrently with a running parse.
func (d *Description) Observe(st *telemetry.Stats, tr *telemetry.Tracer) {
	d.Interp.Stats = st
	d.Interp.Tracer = tr
}

// ObserveProf attaches a parse-path profiler (telemetry/prof) to every parse
// the description runs: per-node time/byte/error attribution plus latency
// and record-size histograms. Sequential scans write to p directly; parallel
// entry points give each segment a private worker profiler and fold it into
// p in segment order. Pass nil to detach. Not safe to call concurrently with a
// running parse.
func (d *Description) ObserveProf(p *prof.Profiler) {
	d.Interp.Prof = p
}

// SourceType names the Psource type describing the whole data source.
func (d *Description) SourceType() string { return d.Desc.Source.DeclName() }

// Print pretty-prints the checked description (living documentation).
func (d *Description) Print() string { return dsl.Print(d.Program) }

// GenerateGo emits the compiled Go library for the description.
func (d *Description) GenerateGo(pkg string) (string, error) {
	return codegen.Generate(d.Desc, codegen.Options{Package: pkg, Source: d.Name})
}

// Schema emits the XML Schema of the canonical XML embedding.
func (d *Description) Schema() string { return xmlgen.Schema(d.Desc) }

// NewAccum builds an accumulator with the given tracking limits
// (zero values select the paper's defaults: 1000 tracked, top 10 printed).
func (d *Description) NewAccum(maxTracked, topN int) *accum.Accum {
	return accum.New(accum.Config{MaxTracked: maxTracked, TopN: topN})
}

// NewFormatter builds a delimiter formatter (section 5.3.1).
func (d *Description) NewFormatter(delims ...string) *fmtconv.Formatter {
	return fmtconv.New(delims...)
}

// NewGenerator builds a random-data generator for the description.
func (d *Description) NewGenerator(seed uint64) *datagen.Generator {
	return datagen.NewGenerator(d.Desc, seed)
}

// ParseAll parses the entire source with full checking.
func (d *Description) ParseAll(s *padsrt.Source) (value.Value, error) {
	return d.Interp.ParseSource(s)
}

// Records opens record-at-a-time reading over the source.
func (d *Description) Records(s *padsrt.Source, mask *padsrt.MaskNode) (*interp.RecordReader, error) {
	return d.Interp.NewRecordReader(s, mask)
}

// WriteValue appends the original wire form of a parsed value.
func (d *Description) WriteValue(dst []byte, typeName string, v value.Value) ([]byte, error) {
	return d.Interp.NewWriter().Append(dst, typeName, v)
}

// QueryRoot wraps a parsed value as a query tree rooted at the source type.
func (d *Description) QueryRoot(v value.Value) *query.Node {
	return query.NewNode(d.SourceType(), v)
}

// RunQuery compiles and evaluates an XPath-subset query over a parsed value.
// For aggregate queries (count/sum/avg/min/max) nodes is nil and agg holds
// the result.
func (d *Description) RunQuery(q string, v value.Value) (nodes []*query.Node, agg float64, isAgg bool, err error) {
	cq, err := query.Compile(q)
	if err != nil {
		return nil, 0, false, err
	}
	nodes, agg, isAgg = cq.Eval(d.QueryRoot(v))
	return nodes, agg, isAgg, nil
}

// StreamQuery evaluates a record-relative query against each record as it
// is parsed — the lazily-reading query mode section 5.4 reports as "well
// underway" in the original system. The query is relative to one record
// (e.g. `events/elt[state = "LOC_6"]` against a Sirius entry); matching
// nodes are passed to visit together with the record they came from. visit
// returning false stops the scan early. Aggregate queries are rejected:
// aggregate over the visited nodes instead.
func (d *Description) StreamQuery(s *padsrt.Source, mask *padsrt.MaskNode, q string, visit func(rec value.Value, nodes []*query.Node) bool) (records int, err error) {
	cq, err := query.Compile(q)
	if err != nil {
		return 0, err
	}
	if _, _, isAgg := cq.Eval(query.NewNode("probe", nil)); isAgg {
		return 0, fmt.Errorf("core: StreamQuery takes a node query; aggregate over the visited nodes instead")
	}
	rr, err := d.Records(s, mask)
	if err != nil {
		return 0, err
	}
	rr.SetPolicy(d.Policy)
	shape, _ := d.Shape()
	errStop := errors.New("stop")
	records, err = Scan(rr, func(rec value.Value) error {
		if nodes := cq.Run(query.NewNode(shape.RecordType, rec)); len(nodes) > 0 && !visit(rec, nodes) {
			return errStop
		}
		return nil
	})
	if err == errStop {
		err = nil
	}
	return records, err
}

// Shape reports how the source decomposes for record-at-a-time reading.
func (d *Description) Shape() (interp.SourceShape, error) { return d.Interp.Shape() }

// AccumulateReader folds every record of r into a fresh accumulator and
// returns it with the record count — the generated accumulator program of
// section 5.2 for header+records sources.
func (d *Description) AccumulateReader(r io.Reader, opts []padsrt.SourceOption, cfg accum.Config) (*accum.Accum, int, error) {
	rr, err := d.Records(padsrt.NewSource(r, opts...), nil)
	if err != nil {
		return nil, 0, err
	}
	rr.SetPolicy(d.Policy)
	return (&Profile{Config: cfg}).Fold(rr)
}

// scanParallel runs an in-memory record scan on the segment executor: the
// source header parses sequentially over a borrowed source, the region
// after it is planned for workers (<= 0 means GOMAXPROCS), and each
// segment's records go through segment.ScanRecords into a consumer that
// open builds per segment. fold takes the consumers in segment order on the
// calling goroutine; then the segment's dead letters flush into the
// policy's sink and its budgets are checked against the merged totals.
func scanParallel[P any](d *Description, data []byte, opts []padsrt.SourceOption, workers int,
	open func() (P, func(value.Value)), fold func(P)) (rr *interp.RecordReader, records int, err error) {
	s := padsrt.NewBorrowedSource(data, opts...)
	// The header parses before any worker starts, so its counters and spans
	// go straight to the observed Stats and profiler. A borrowed source
	// never fills: the header's bytes count as read here, the segments'
	// in Task.Source.
	st := d.Interp.Stats
	s.SetStats(st)
	s.SetProf(d.Interp.Prof)
	if rr, err = d.Records(s, nil); err != nil {
		return nil, 0, err
	}
	base := s.Pos().Byte
	if st != nil {
		st.Source.BytesRead += uint64(base)
	}
	type part struct {
		p P
		segment.Part
	}
	pol := d.Policy
	errored := 0
	err = segment.Exec(segment.PlanBytes(data, base, s.Discipline(), workers), workers, st, d.Interp.Prof,
		func(t *segment.Task) (part, error) {
			p, each := open()
			sc := segment.ScanRecords(rr, t.Source(data[t.Seg.Off:t.Seg.End()], s.RecordNum(), opts), pol, false, each)
			return part{p, sc}, sc.Err
		}, nil,
		func(parts []part) error {
			for _, pt := range parts {
				fold(pt.p)
				records += pt.Records
				errored += pt.Errored
				if pt.Batch != nil {
					pt.Batch.FlushTo(pol.Sink)
				}
				if err := pol.Check(records, errored); err != nil {
					return err
				}
			}
			return nil
		})
	return rr, records, err
}

// AccumulateParallel is AccumulateReader over an in-memory input,
// record-sharded across workers (<= 0 means GOMAXPROCS): each worker folds
// its segments into private accumulators, and they merge in segment order
// (accum.Merge). With workers=1 the report is byte-identical to
// AccumulateReader's; with more workers counts and numeric statistics are
// still exact, and the approximate sketches stay within their documented
// bounds (docs/PARALLEL.md).
func (d *Description) AccumulateParallel(data []byte, opts []padsrt.SourceOption, cfg accum.Config, workers int) (*accum.Accum, int, error) {
	acc := accum.New(cfg)
	_, n, err := scanParallel(d, data, opts, workers,
		func() (*accum.Accum, func(value.Value)) {
			a := accum.New(cfg)
			return a, a.Add
		}, acc.Merge)
	if err != nil {
		return nil, n, err
	}
	return acc, n, nil
}

// ParseAllParallel is ParseAll over an in-memory input, record-sharded
// across workers: the header parses sequentially, the record sequence
// parses in parallel, and the records reassemble (in order) into the same
// Psource value a sequential ParseAll builds. It requires a header+records
// shaped source; callers should fall back to ParseAll when it errors.
func (d *Description) ParseAllParallel(data []byte, opts []padsrt.SourceOption, workers int) (value.Value, error) {
	var recs []value.Value
	rr, _, err := scanParallel(d, data, opts, workers,
		func() (*[]value.Value, func(value.Value)) {
			out := new([]value.Value)
			return out, func(v value.Value) { *out = append(*out, v) }
		},
		func(out *[]value.Value) { recs = append(recs, *out...) })
	if err != nil {
		return nil, err
	}
	return d.Interp.AssembleSource(rr.Header(), recs)
}

// ParseAllPolicy is ParseAll with the description's Policy applied. Budgets
// and quarantine need record framing, so a header+records shaped source
// parses record-at-a-time (yielding the same Psource value); sources with
// other shapes — or no active policy — fall through to ParseAll.
func (d *Description) ParseAllPolicy(s *padsrt.Source) (value.Value, error) {
	if !d.Policy.Active() {
		return d.ParseAll(s)
	}
	rr, err := d.Records(s, nil)
	if err != nil {
		return d.ParseAll(s)
	}
	rr.SetPolicy(d.Policy)
	var recs []value.Value
	if _, err := Scan(rr, func(v value.Value) error {
		recs = append(recs, v)
		return nil
	}); err != nil {
		return nil, err
	}
	return d.Interp.AssembleSource(rr.Header(), recs)
}
