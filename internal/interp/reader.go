package interp

import (
	"fmt"

	"pads/internal/dsl"
	"pads/internal/ir"
	"pads/internal/padsrt"
	"pads/internal/sema"
	"pads/internal/value"
)

// RecordReader iterates a data source one record at a time: the streaming
// entry point for sources shaped as "an optional header followed by a
// sequence of records", the pattern section 5.2 of the paper observes covers
// most ad hoc sources (both CLF and Sirius fit it). The whole file is never
// resident.
type RecordReader struct {
	in     *Interp
	s      *padsrt.Source
	mask   *padsrt.MaskNode
	rec    ir.DeclID   // the record type, resolved once
	header value.Value // parsed header, if the source has one

	// Error-budget state (docs/ROBUSTNESS.md). policy is read-only;
	// records/errored are this reader's cumulative counts; budgetErr,
	// once set, ends the scan (More reports false, Err reports it).
	policy    *Policy
	records   int
	errored   int
	budgetErr error
}

// SourceShape describes how a description's Psource decomposes for
// record-at-a-time reading.
type SourceShape struct {
	HeaderType string // "" when the source has no header record
	RecordType string
}

// Shape inspects the Psource declaration: either an array of records, or a
// struct of a header record followed by an array of records.
func (in *Interp) Shape() (SourceShape, error) {
	src := in.Desc.Source
	switch d := src.(type) {
	case *dsl.ArrayDecl:
		return SourceShape{RecordType: d.Elem.Name}, nil
	case *dsl.StructDecl:
		var shape SourceShape
		fields := 0
		for _, it := range d.Items {
			if it.Field == nil {
				continue
			}
			fields++
			ft := it.Field.Type.Name
			if fields == 1 {
				if fd, ok := in.Desc.Types[ft]; ok && sema.Annot(fd).IsRecord {
					shape.HeaderType = ft
					continue
				}
			}
			if ad, ok := in.Desc.Types[ft].(*dsl.ArrayDecl); ok && shape.RecordType == "" {
				shape.RecordType = ad.Elem.Name
				continue
			}
			return shape, fmt.Errorf("interp: source %s is not header+records shaped", d.Name)
		}
		if shape.RecordType == "" {
			return shape, fmt.Errorf("interp: source %s has no record sequence", d.Name)
		}
		return shape, nil
	default:
		return SourceShape{}, fmt.Errorf("interp: source %s is not record shaped", src.DeclName())
	}
}

// NewRecordReader prepares record-at-a-time reading, parsing the header (if
// the description has one) immediately. mask applies to each record.
func (in *Interp) NewRecordReader(s *padsrt.Source, mask *padsrt.MaskNode) (*RecordReader, error) {
	shape, err := in.Shape()
	if err != nil {
		return nil, err
	}
	rec, ok := in.prog.DeclByName(shape.RecordType)
	if !ok {
		return nil, fmt.Errorf("interp: unknown record type %s", shape.RecordType)
	}
	rr := &RecordReader{in: in, s: s, mask: mask, rec: rec}
	if shape.HeaderType != "" {
		hdr, ok := in.prog.DeclByName(shape.HeaderType)
		if !ok {
			return nil, fmt.Errorf("interp: unknown header type %s", shape.HeaderType)
		}
		rr.header = in.parseTop(hdr, s, nil, nil)
	}
	return rr, nil
}

// Header returns the parsed header record, or nil.
func (rr *RecordReader) Header() value.Value { return rr.header }

// SetPolicy installs an error budget and dead-letter sink for this scan.
// With a sink attached, the source snapshots erroneous record bodies so
// quarantine entries carry the raw bytes.
func (rr *RecordReader) SetPolicy(p *Policy) {
	rr.policy = p
	if p != nil && p.Sink != nil {
		rr.s.SetKeepErrRecords(true)
	}
}

// Counts reports how many records this reader has parsed and how many of
// those carried parse errors.
func (rr *RecordReader) Counts() (records, errored int) { return rr.records, rr.errored }

// More reports whether another record remains (and the budget allows it).
func (rr *RecordReader) More() bool {
	return rr.budgetErr == nil && rr.s.More() && rr.s.Err() == nil
}

// Read parses the next record.
func (rr *RecordReader) Read() value.Value {
	return rr.note(rr.in.parseTop(rr.rec, rr.s, rr.mask, nil))
}

// ReadWith parses the next record under a specific mask (overriding the
// reader's default), the per-application knob of section 5.1.2.
func (rr *RecordReader) ReadWith(mask *padsrt.MaskNode) value.Value {
	return rr.note(rr.in.parseTop(rr.rec, rr.s, mask, nil))
}

// note applies the error budget and dead-letter policy to a just-parsed
// record.
func (rr *RecordReader) note(v value.Value) value.Value {
	rr.records++
	if pd := v.PD(); pd.Nerr > 0 {
		rr.errored++
		if p := rr.policy; p != nil {
			if p.Sink != nil {
				e := entryFor(v, rr.s.LastErrRecord())
				if e.Record == 0 {
					e.Record = rr.s.RecordNum()
				}
				p.Sink.Quarantine(e)
			}
			rr.budgetErr = p.Check(rr.records, rr.errored)
		}
	}
	return v
}

// Shard returns a reader that parses records of the same type, under the
// same mask, from s — without re-parsing the source header. It is the
// per-segment reader of the segment executor: the caller parses the header
// once sequentially, then gives each segment a Shard over its source.
// The shard gets its own evaluator (expression evaluation carries call-depth
// state), so shards of one reader may run concurrently.
//
// Telemetry: the shard's interpreter counters route to the chunk source's
// private Stats (so concurrent shards never share a counter), and its
// profiler hooks to the chunk source's private Profiler, while the parent's
// Tracer — which is concurrency-safe — is shared, so a traced parallel
// parse emits every worker's events into one stream.
func (rr *RecordReader) Shard(s *padsrt.Source) *RecordReader {
	// The lowered program is immutable at parse time, so shards share the
	// parent's instead of re-lowering per chunk (Clone).
	in := rr.in.Clone()
	in.Stats = s.Stats()
	in.Prof = s.Prof()
	in.Tracer = rr.in.Tracer
	return &RecordReader{
		in:   in,
		s:    s,
		mask: rr.mask,
		rec:  rr.rec,
	}
}

// Err surfaces an exhausted error budget or any I/O error from the
// underlying source.
func (rr *RecordReader) Err() error {
	if rr.budgetErr != nil {
		return rr.budgetErr
	}
	return rr.s.Err()
}

// RecordTypeName names the per-record type.
func (rr *RecordReader) RecordTypeName() string { return rr.in.prog.Decls[rr.rec].Name }

// AssembleSource rebuilds the Psource value from a sequentially-parsed
// header (nil when the source has no header) and the record values, in
// order — the merge step of a record-sharded parallel parse. The parse
// descriptors aggregate child errors exactly as a sequential ParseSource
// over the same records would (each erroneous record propagates into the
// array descriptor, and each field into the source struct's). Source-level
// Pwhere clauses and literal items are not re-evaluated; sources with them
// should parse sequentially.
func (in *Interp) AssembleSource(header value.Value, recs []value.Value) (value.Value, error) {
	src := in.Desc.Source
	switch d := src.(type) {
	case *dsl.ArrayDecl:
		return in.assembleRecords(d, recs), nil
	case *dsl.StructDecl:
		st := &value.Struct{Common: value.NewCommon(d.Name)}
		pd := st.PD()
		usedHeader := false
		for _, it := range d.Items {
			if it.Field == nil {
				continue
			}
			f := it.Field
			ft := f.Type.Name
			fd, ok := in.Desc.Types[ft]
			if !ok {
				return nil, fmt.Errorf("interp: unknown source field type %s", ft)
			}
			if !usedHeader && len(st.Names) == 0 && sema.Annot(fd).IsRecord {
				if header == nil {
					return nil, fmt.Errorf("interp: source %s has a header but none was parsed", d.Name)
				}
				usedHeader = true
				st.Names = append(st.Names, f.Name)
				st.Fields = append(st.Fields, header)
				pd.AddChildErrors(header.PD(), padsrt.ErrStructField)
				continue
			}
			if ad, ok := fd.(*dsl.ArrayDecl); ok {
				av := in.assembleRecords(ad, recs)
				st.Names = append(st.Names, f.Name)
				st.Fields = append(st.Fields, av)
				pd.AddChildErrors(av.PD(), padsrt.ErrStructField)
				continue
			}
			return nil, fmt.Errorf("interp: source %s is not header+records shaped", d.Name)
		}
		return st, nil
	default:
		return nil, fmt.Errorf("interp: source %s is not record shaped", src.DeclName())
	}
}

func (in *Interp) assembleRecords(d *dsl.ArrayDecl, recs []value.Value) value.Value {
	arr := &value.Array{Common: value.NewCommon(d.Name)}
	pd := arr.PD()
	for _, ev := range recs {
		if ev.PD().Nerr > 0 {
			pd.AddChildErrors(ev.PD(), padsrt.ErrArrayElem)
		}
		arr.Elems = append(arr.Elems, ev)
	}
	return arr
}
