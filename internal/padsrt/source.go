package padsrt

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"pads/internal/telemetry"
	"pads/internal/telemetry/prof"
)

// Source is a streaming parse cursor over an io.Reader. It maintains a
// sliding window of the input, divides it into records under a Discipline,
// and supports speculation checkpoints so Punion branches can backtrack.
// Consumed data is discarded at record boundaries (unless pinned by a
// checkpoint), so arbitrarily large inputs parse in O(record) memory — the
// paper's gigabytes-per-day sources must never be loaded whole (section 1).
//
// A Source also carries the ambient configuration: the character coding and
// the byte order used by binary base types.
type Source struct {
	r        io.Reader
	buf      []byte
	off      int64 // absolute offset of buf[0]
	pos      int   // cursor, as an index into buf
	eof      bool
	err      error // sticky read error
	borrowed bool  // buf belongs to the caller: never compact (shift) it

	disc   Discipline
	coding Coding
	order  ByteOrder

	recDepth int // nesting depth of BeginRecord (inner calls are no-ops)
	recBody  int // index of the current record body start
	recEnd   int // index one past the record body; -1 when unbounded
	recTrail int // delimiter bytes that follow the body
	recNum   int // 1-based record count

	cps     []checkpoint
	nback   int  // rollbacks charged against Limits.MaxBacktracks
	stopped bool // cancelled or budget-exhausted: all reads fail

	// Cancellation (docs/ROBUSTNESS.md). cancel, when non-nil, is polled at
	// fills, record starts, and checkpoints; a non-nil return (typically
	// context.Context.Err) cancels the parse. deadline, when non-zero, is a
	// wall-clock cutoff checked at the same points. Both convert into a
	// sticky *LimitError carrying the cause, so engines (VM, generated
	// parsers, parallel workers) abort mid-record through their ordinary
	// error paths without per-loop deadline plumbing.
	cancel   func() error
	deadline time.Time

	// Fault tolerance and resource guards (docs/ROBUSTNESS.md).
	retries  int           // max consecutive retries of a transient read error
	backoff  time.Duration // initial retry backoff, doubling per attempt
	limits   Limits        // resource caps; zero fields are unlimited
	ov       overflow      // pending oversized-record discard
	recTrunc bool          // current record was clamped to MaxRecordLen
	keepErr  bool          // snapshot erroneous record bodies for quarantine
	lastErr  []byte        // most recent erroneous record body (keepErr)
	keepRec  bool          // snapshot every record body (LastRecord)
	lastRec  []byte        // most recent record body (keepRec)

	// tele, when non-nil, receives runtime counters (fills, compactions,
	// intern hits, speculation churn, records). stats caches &tele.Source so
	// the hot paths pay one nil check and a direct field increment.
	tele  *telemetry.Stats
	stats *telemetry.SourceStats

	// prof, when non-nil, is the parse-path profiler riding this source.
	// The Source only carries it (like tele): the segment executor installs
	// a per-segment profiler here and shard readers (internal/interp) pick it
	// up, the same private-observer handoff as Stats.
	prof *prof.Profiler

	// intern is a direct-mapped cache of short strings produced by the
	// string base types: ad hoc fields draw from small vocabularies (the
	// Sirius feed has ~420 distinct states across millions of records),
	// so reusing cached copies removes most per-record allocations. A
	// fixed-size table with a trivial hash keeps the lookup far cheaper
	// than a map and bounds memory on adversarial inputs.
	intern [internSlots]string
}

const (
	maxInternLen = 40
	internSlots  = 1024
)

// internString returns a string for w, reusing a cached copy when possible.
func (s *Source) internString(w []byte) string {
	n := len(w)
	if n == 0 {
		return ""
	}
	if n > maxInternLen || (w[0] >= '0' && w[0] <= '9') {
		// Digit-led strings are identifiers (zips, phones, order numbers),
		// not vocabulary: they nearly always miss, and caching them evicts
		// the low-cardinality entries the table exists for.
		return string(w)
	}
	// FNV-1a folded eight bytes at a time: the hash must cover the whole
	// string — vocabularies that differ only in one digit (states, zips,
	// hostnames) must not collide into the same slot, or the cache thrashes
	// and every record allocates.
	h := uint64(14695981039346656037)
	p := w
	for len(p) >= 8 {
		h = (h ^ binary.LittleEndian.Uint64(p)) * 1099511628211
		p = p[8:]
	}
	for _, b := range p {
		h = (h ^ uint64(b)) * 1099511628211
	}
	// Multiplication only carries differences toward the high bits, so a
	// murmur-style finalizer must fold them back down before the modulo —
	// strings differing only in their final bytes would otherwise share a
	// slot (the exact thrash the full-coverage hash exists to prevent).
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	idx := uint32(h) % internSlots
	if v := s.intern[idx]; v == string(w) { // comparison does not allocate
		if s.stats != nil {
			s.stats.InternHits++
		}
		return v
	}
	if s.stats != nil {
		s.stats.InternMisses++
	}
	v := string(w)
	s.intern[idx] = v
	return v
}

type checkpoint struct {
	pos      int
	recDepth int
	recBody  int
	recEnd   int
	recTrail int
	recNum   int
	ov       overflow
	recTrunc bool
}

// overflow records how to dispose of the tail of a record that was clamped
// to Limits.MaxRecordLen: either discard through a terminator byte
// (newline-style records, whose true length is unknown) or discard a known
// byte count (length-prefixed and fixed-width records).
type overflow struct {
	active bool
	term   int   // >= 0: discard through this terminator byte
	remain int64 // term < 0: bytes beyond the clamped body to discard
}

// Limits bounds the resources a Source may consume on adversarial or
// corrupted input, converting would-be OOM kills into structured errors.
// Zero fields are unlimited (the seed behavior). See docs/ROBUSTNESS.md.
type Limits struct {
	// MaxRecordLen caps one record's body length. A record that exceeds
	// it is clamped: the first MaxRecordLen bytes parse normally, the
	// parse is flagged with ErrRecordTooLong, and the remainder is
	// discarded in O(64 KiB) memory at EndRecord.
	MaxRecordLen int
	// MaxSpecBytes caps the window pinned by speculation checkpoints.
	// Exceeding it sets a sticky *LimitError: the parse winds down
	// deterministically instead of buffering without bound.
	MaxSpecBytes int
	// MaxSpecDepth caps checkpoint nesting the same way.
	MaxSpecDepth int
	// MaxBacktracks caps total speculation rollbacks (Restore plus
	// Rewind) over the life of the Source. Nested trials can backtrack
	// exponentially over already-buffered input, which no byte-oriented
	// cap observes; exceeding this one sets the sticky *LimitError and
	// hard-stops reads, so every retried trial fails at its first read
	// and the parse winds down in time linear in the description.
	MaxBacktracks int
}

// LimitError is the sticky error produced when a Limits cap is exceeded or
// the parse is cancelled (SetDeadline / SetCancel). For cancellations Cause
// carries the underlying reason — typically context.DeadlineExceeded or
// context.Canceled — and errors.Is sees through it, so callers distinguish
// "deadline expired" from "client went away" without string matching.
type LimitError struct {
	What  string // which guard tripped
	Limit int
	Cause error // underlying cancellation cause; nil for resource caps
}

// Error implements error.
func (e *LimitError) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("padsrt: parse %s: %v", e.What, e.Cause)
	}
	return fmt.Sprintf("padsrt: %s limit exceeded (cap %d)", e.What, e.Limit)
}

// Unwrap exposes the cancellation cause to errors.Is / errors.As.
func (e *LimitError) Unwrap() error { return e.Cause }

// IsTransient reports whether err is a retryable read failure: any error
// in the chain advertising Temporary() bool, the convention shared by
// net.Error and the fault-injection harness (internal/fault).
func IsTransient(err error) bool {
	var t interface{ Temporary() bool }
	return errors.As(err, &t) && t.Temporary()
}

// SourceOption configures a Source.
type SourceOption func(*Source)

// WithDiscipline sets the record discipline (default: newline-terminated).
func WithDiscipline(d Discipline) SourceOption { return func(s *Source) { s.disc = d } }

// WithCoding sets the ambient character coding (default: ASCII).
func WithCoding(c Coding) SourceOption { return func(s *Source) { s.coding = c } }

// WithByteOrder sets the byte order for Pb_* types (default: big-endian,
// i.e. network order).
func WithByteOrder(o ByteOrder) SourceOption { return func(s *Source) { s.order = o } }

// WithStats attaches a telemetry sink: the Source records buffer, record,
// intern-cache, and speculation counters into st.Source as it runs. The
// default (nil) records nothing and costs nothing beyond a predictable
// branch per event (docs/OBSERVABILITY.md).
func WithStats(st *telemetry.Stats) SourceOption { return func(s *Source) { s.SetStats(st) } }

// WithProf attaches a parse-path profiler for shard readers to pick up
// (telemetry/prof; the -profile flag).
func WithProf(p *prof.Profiler) SourceOption { return func(s *Source) { s.SetProf(p) } }

// WithRetry makes transient read errors (IsTransient) retry up to n times
// with an exponentially doubling backoff before sticking. The default is
// no retries: the first error of any kind is sticky.
func WithRetry(n int, backoff time.Duration) SourceOption {
	return func(s *Source) {
		s.retries = n
		s.backoff = backoff
	}
}

// WithLimits installs resource guards (docs/ROBUSTNESS.md).
func WithLimits(l Limits) SourceOption { return func(s *Source) { s.limits = l } }

// WithCancel installs a cancellation hook; see SetCancel.
func WithCancel(check func() error) SourceOption { return func(s *Source) { s.cancel = check } }

// WithDeadline installs a wall-clock parse deadline; see SetDeadline.
func WithDeadline(t time.Time) SourceOption { return func(s *Source) { s.deadline = t } }

// NewSource wraps r in a parse cursor. By default records are
// newline-terminated, the ambient coding is ASCII, and binary integers are
// big-endian; use the options to override, mirroring the paper's "the user
// can direct PADS to use a different record definition".
func NewSource(r io.Reader, opts ...SourceOption) *Source {
	s := &Source{
		r:      r,
		disc:   Newline(),
		coding: ASCII,
		order:  BigEndian,
		recEnd: -1,
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// NewSectionSource parses the n-byte window of r starting at byte off — the
// ReaderAt-backed constructor internal/segment uses for out-of-core parsing
// (an *os.File serves reads via pread, so many sources can share one
// descriptor without seeking). The source streams through its sliding
// window exactly like NewSource, so memory stays O(record); positions
// report file-absolute offsets (the base is pre-set to off). Use SetBase to
// also seed the record number when the section starts mid-sequence.
func NewSectionSource(r io.ReaderAt, off, n int64, opts ...SourceOption) *Source {
	s := NewSource(io.NewSectionReader(r, off, n), opts...)
	s.off = off
	return s
}

// NewBytesSource is a convenience for parsing in-memory data. The data is
// copied: the window compacts in place as records are consumed, and the
// caller's slice must not be disturbed.
func NewBytesSource(data []byte, opts ...SourceOption) *Source {
	s := NewSource(nil, opts...)
	s.buf = append([]byte(nil), data...)
	s.eof = true
	return s
}

// NewBorrowedSource parses in-memory data in place, without copying it. The
// caller must not modify data while the Source is in use; in exchange the
// window never compacts, so many cursors (one per shard in
// segment.Exec) can read disjoint slices of one buffer with no
// duplication.
func NewBorrowedSource(data []byte, opts ...SourceOption) *Source {
	s := NewSource(nil, opts...)
	s.buf = data
	s.eof = true
	s.borrowed = true
	return s
}

// SetBase declares that the buffer begins partway into a larger input:
// subsequent Pos calls report byteOff plus the local offset, and record
// numbering starts after records prior records. It must be called before
// any parsing; segment.Exec uses it so a sharded parse reports the
// same error locations and record numbers as a sequential run.
func (s *Source) SetBase(byteOff int64, records int) {
	s.off = byteOff
	s.recNum = records
}

// SetStats attaches (or, with nil, detaches) a telemetry sink mid-stream.
// segment.Exec uses it to give every segment source a private Stats, so
// per-worker counters never race.
func (s *Source) SetStats(st *telemetry.Stats) {
	s.tele = st
	if st != nil {
		s.stats = &st.Source
	} else {
		s.stats = nil
	}
}

// Stats returns the attached telemetry sink, or nil. Shard readers
// (internal/interp) use it to route interpreter-level counters to the same
// per-worker Stats as the source counters.
func (s *Source) Stats() *telemetry.Stats { return s.tele }

// SetProf attaches (or, with nil, detaches) a parse-path profiler. Like
// SetStats it exists so segment.Exec can give every segment source a
// private profiler; the Source itself never calls profiler hooks.
func (s *Source) SetProf(p *prof.Profiler) { s.prof = p }

// Prof returns the attached profiler, or nil. Shard readers pick it up the
// same way they pick up Stats.
func (s *Source) Prof() *prof.Profiler { return s.prof }

// SetCancel installs (or, with nil, removes) a cancellation hook: check is
// polled from the parsing goroutine at fills, record starts, and
// checkpoints, and its first non-nil return cancels the parse with a sticky
// *LimitError{What: "cancelled", Cause: check()}. Pass a request context's
// Err method to propagate HTTP deadlines and client disconnects into the
// runtime: the cancelled source hard-stops exactly like an exhausted
// backtrack budget (even buffered bytes are withheld and the current record
// is clamped at the cursor), so a parse aborts mid-record in time linear in
// the description, not in the remaining input. check must be safe to call
// from the parsing goroutine (context.Context.Err is); SetCancel itself
// must not be called while a parse is running.
func (s *Source) SetCancel(check func() error) { s.cancel = check }

// SetDeadline installs a wall-clock cutoff for the parse, polled at the
// same points as SetCancel; a zero time clears it. Past the deadline the
// source sticks a *LimitError whose Cause is context.DeadlineExceeded.
func (s *Source) SetDeadline(t time.Time) { s.deadline = t }

// pollCancel evaluates the cancel hook and deadline, if armed. On expiry it
// pins the sticky *LimitError and hard-stops reads, reporting whether the
// source is (now or already) cancelled. Poll sites are chosen so every
// parse shape notices promptly without taxing the per-byte hot path: fill
// (streaming input, mid-record), BeginRecord (buffered input, between
// records), and Checkpoint (speculation loops over buffered input).
func (s *Source) pollCancel() bool {
	if s.cancel == nil && s.deadline.IsZero() {
		return false
	}
	if s.err != nil || s.stopped {
		return s.stopped
	}
	var cause error
	if s.cancel != nil {
		cause = s.cancel()
	}
	if cause == nil && !s.deadline.IsZero() && time.Now().After(s.deadline) {
		cause = context.DeadlineExceeded
	}
	if cause == nil {
		return false
	}
	s.err = &LimitError{What: "cancelled", Cause: cause}
	s.eof = true
	s.stopped = true
	if s.recDepth > 0 {
		s.recEnd = s.pos
	}
	return true
}

// SpecLimited reports whether speculation resource guards (MaxSpecBytes or
// MaxSpecDepth) are armed. Engines that would elide provably-failing
// checkpointed trials consult it: with guards armed, even a doomed trial's
// checkpoint is observable (it can trip a limit), so the elision is off.
func (s *Source) SpecLimited() bool {
	return s.limits.MaxSpecBytes > 0 || s.limits.MaxSpecDepth > 0
}

// Coding returns the ambient character coding.
func (s *Source) Coding() Coding { return s.coding }

// SetCoding changes the ambient character coding mid-parse (mixed-coding
// sources appear in the Cobol feeds of Figure 1).
func (s *Source) SetCoding(c Coding) { s.coding = c }

// ByteOrder returns the byte order used by binary integer types.
func (s *Source) ByteOrder() ByteOrder { return s.order }

// SetByteOrder changes the binary byte order.
func (s *Source) SetByteOrder(o ByteOrder) { s.order = o }

// Discipline returns the active record discipline.
func (s *Source) Discipline() Discipline { return s.disc }

// SetDiscipline changes the record discipline. It must not be called while
// inside a record.
func (s *Source) SetDiscipline(d Discipline) { s.disc = d }

// Err returns the sticky I/O error, if any (io.EOF is not an error).
func (s *Source) Err() error { return s.err }

// ensure makes at least n bytes available at the cursor if the input has
// them, returning the window from the cursor onward and whether the input
// is exhausted. It never blocks for more than the input provides.
func (s *Source) ensure(n int) ([]byte, bool, error) {
	if s.stopped {
		// Backtrack budget exhausted: withhold even buffered bytes so the
		// parse cannot keep re-scanning them (see Limits.MaxBacktracks).
		return nil, true, s.err
	}
	for len(s.buf)-s.pos < n && !s.eof && s.err == nil {
		s.fill()
	}
	return s.buf[s.pos:], s.eof, s.err
}

func (s *Source) fill() {
	if s.pollCancel() {
		return
	}
	if s.r == nil {
		s.eof = true
		return
	}
	// Speculation-buffer guard: once checkpoints pin more window than the
	// cap allows, stop reading and stick a structured error — the parse
	// winds down deterministically instead of buffering without bound.
	if s.limits.MaxSpecBytes > 0 && len(s.cps) > 0 && len(s.buf)-s.cps[0].pos > s.limits.MaxSpecBytes {
		s.err = &LimitError{What: "speculation buffer", Limit: s.limits.MaxSpecBytes}
		s.eof = true
		return
	}
	// Read directly into the buffer's spare capacity: staging through a
	// scratch buffer would copy every input byte twice (Read + append).
	const fillChunk = 64 * 1024
	if cap(s.buf)-len(s.buf) < fillChunk {
		newCap := 2 * cap(s.buf)
		if newCap < len(s.buf)+fillChunk {
			newCap = len(s.buf) + fillChunk
		}
		grown := make([]byte, len(s.buf), newCap)
		copy(grown, s.buf)
		s.buf = grown
	}
	delay := s.backoff
	for attempt := 0; ; attempt++ {
		m, err := s.r.Read(s.buf[len(s.buf):cap(s.buf)])
		if m > 0 {
			s.buf = s.buf[:len(s.buf)+m]
		}
		if s.stats != nil {
			s.stats.Fills++
			s.stats.BytesRead += uint64(m)
		}
		switch {
		case err == nil:
			return
		case err == io.EOF:
			s.eof = true
			return
		case m > 0:
			// Data arrived alongside the error: deliver it. A transient
			// error retries on the next fill; a permanent one re-fires.
			if !IsTransient(err) {
				s.err = err
				s.eof = true
			}
			return
		case IsTransient(err) && attempt < s.retries:
			if s.stats != nil {
				s.stats.ReadRetries++
			}
			if delay > 0 {
				time.Sleep(delay)
				if delay < time.Second {
					delay *= 2
				}
			}
			// A deadline that expired during the backoff must win over the
			// retry loop: an input that alternates transient errors with
			// slow progress could otherwise outlive its budget.
			if s.pollCancel() {
				return
			}
		default:
			s.err = err
			s.eof = true
			return
		}
	}
}

// compact discards consumed data when nothing pins it. Called between
// records so memory use stays proportional to one record. The copy is
// amortized O(total input): it runs only once the consumed prefix is at
// least 64 KiB and at least as large as the unconsumed tail, so neither
// in-memory sources (huge tail) nor streaming sources (tiny tail) pay a
// per-record copy.
func (s *Source) compact() {
	if s.borrowed || len(s.cps) > 0 || s.recDepth > 0 {
		return
	}
	tail := len(s.buf) - s.pos
	if s.pos < 64*1024 || s.pos < tail {
		return
	}
	n := copy(s.buf, s.buf[s.pos:])
	if s.stats != nil {
		s.stats.Compacts++
		s.stats.CompactBytes += uint64(n)
	}
	s.buf = s.buf[:n]
	s.off += int64(s.pos)
	s.pos = 0
	s.recBody = 0
	s.recEnd = -1
}

// Pos reports the cursor position.
func (s *Source) Pos() Pos {
	col := s.pos - s.recBody + 1
	if s.recDepth == 0 {
		col = 0
	}
	return Pos{Byte: s.off + int64(s.pos), Record: s.recNum, Col: col}
}

// LocFrom builds a Loc spanning from begin to the current position.
func (s *Source) LocFrom(begin Pos) Loc { return Loc{Begin: begin, End: s.Pos()} }

// LocHere builds a zero-width Loc at the current position: the error
// location used on paths that consume nothing on failure, so the success
// path pays no position bookkeeping.
func (s *Source) LocHere() Loc {
	p := s.Pos()
	return Loc{Begin: p, End: p}
}

// BeginRecord opens the next record. It returns ok=false at a clean end of
// input and a non-nil error on I/O failure. Nested calls (a Precord type
// inside another Precord type) are no-ops that stay inside the same record,
// so descriptions compose.
func (s *Source) BeginRecord() (ok bool, err error) {
	if s.recDepth > 0 {
		s.recDepth++
		return true, nil
	}
	if s.pollCancel() {
		return false, s.err
	}
	s.compact()
	skip, body, trailer, ok, err := s.disc.locate(s)
	if err != nil || !ok {
		return false, err
	}
	s.pos += skip
	s.recBody = s.pos
	if body < 0 {
		s.recEnd = -1
	} else {
		// Buffer the whole record body (locate may have examined only a
		// header); clamp to a truncated final record.
		s.ensure(body + trailer)
		s.recEnd = s.pos + body
		if s.recEnd > len(s.buf) {
			s.recEnd = len(s.buf)
			trailer = 0
		}
	}
	s.recTrail = trailer
	s.recNum++
	s.recDepth = 1
	if s.stats != nil {
		s.stats.RecordsBegun++
		if s.recTrunc {
			s.stats.TruncatedRecs++
		}
	}
	return true, nil
}

// noteOverflowTerm arms an oversized-record discard through term: the
// record disciplines call it (from locate) when clamping a record whose
// true length is unknown (newline-style framing).
func (s *Source) noteOverflowTerm(term byte) {
	s.ov = overflow{active: true, term: int(term)}
	s.recTrunc = true
}

// noteOverflowCount arms an oversized-record discard of n known bytes
// (length-prefixed and fixed-width framing).
func (s *Source) noteOverflowCount(n int64) {
	s.ov = overflow{active: true, term: -1, remain: n}
	s.recTrunc = true
}

// RecordTruncated reports whether the current record's body was clamped to
// Limits.MaxRecordLen. Parsers surface it as ErrRecordTooLong in the
// record's parse descriptor; the flag clears at EndRecord.
func (s *Source) RecordTruncated() bool { return s.recTrunc }

// SetKeepErrRecords makes EndRecord snapshot the body of each record whose
// parse descriptor carries errors, for quarantine (dead-letter) capture.
// Off by default: clean runs never pay the copy.
func (s *Source) SetKeepErrRecords(keep bool) { s.keepErr = keep }

// LastErrRecord returns the body snapshot of the most recent erroneous
// record (valid until the next erroneous EndRecord). Nil when
// SetKeepErrRecords is off or no erroneous record has ended.
func (s *Source) LastErrRecord() []byte { return s.lastErr }

// SetKeepRecords makes EndRecord snapshot every record body, so a caller
// can echo the raw bytes of a record it just parsed — the vetting task
// (Figure 10) copies clean records through unchanged instead of
// re-serializing field by field. Borrowed (in-memory) sources alias the
// input instead of copying.
func (s *Source) SetKeepRecords(keep bool) { s.keepRec = keep }

// LastRecord returns the body of the most recently ended record (without
// its trailer), valid until the next EndRecord. Nil when SetKeepRecords is
// off or no record has ended.
func (s *Source) LastRecord() []byte { return s.lastRec }

// discardOverflow disposes of the unbuffered tail of a clamped record in
// O(64 KiB) memory: the window is force-compacted as the tail streams
// through, so a corrupted gigabyte-long record costs no more memory than a
// normal one.
func (s *Source) discardOverflow() {
	ov := s.ov
	s.ov = overflow{}
	s.recTrunc = false
	if ov.term >= 0 {
		for {
			if i := bytes.IndexByte(s.buf[s.pos:], byte(ov.term)); i >= 0 {
				s.pos += i + 1
				break
			}
			s.pos = len(s.buf)
			s.dropConsumed()
			if !s.moreInput() {
				break
			}
		}
	} else {
		remain := ov.remain
		for remain > 0 {
			if avail := len(s.buf) - s.pos; avail > 0 {
				take := int64(avail)
				if take > remain {
					take = remain
				}
				s.pos += int(take)
				remain -= take
				s.dropConsumed()
				continue
			}
			if !s.moreInput() {
				break
			}
		}
	}
	s.dropConsumed()
}

// moreInput pulls more data if none is buffered at the cursor, reporting
// whether any is now available.
func (s *Source) moreInput() bool {
	if s.pos < len(s.buf) {
		return true
	}
	s.ensure(1)
	return s.pos < len(s.buf)
}

// dropConsumed discards the consumed prefix immediately, without compact's
// 64 KiB hysteresis: used on the overflow-discard path, where the whole
// point is keeping memory flat while an oversized record streams past.
func (s *Source) dropConsumed() {
	if s.borrowed || len(s.cps) > 0 || s.recDepth > 0 || s.pos == 0 {
		return
	}
	n := copy(s.buf, s.buf[s.pos:])
	if s.stats != nil {
		s.stats.Compacts++
		s.stats.CompactBytes += uint64(n)
	}
	s.buf = s.buf[:n]
	s.off += int64(s.pos)
	s.pos = 0
	s.recBody = 0
	s.recEnd = -1
}

// EndRecord closes the current record, skipping its trailer. If data remains
// before the record end it records ErrExtraBeforeEOR in pd (when pd is
// non-nil) and discards the extra bytes. Inner (nested) EndRecord calls just
// unwind the nesting.
func (s *Source) EndRecord(pd *PD) {
	if s.recDepth == 0 {
		return
	}
	if s.recDepth > 1 {
		s.recDepth--
		return
	}
	if s.keepRec || (s.keepErr && pd != nil && pd.Nerr > 0) {
		end := s.recEnd
		if end < 0 || end > len(s.buf) {
			end = s.pos
		}
		if end > len(s.buf) {
			end = len(s.buf)
		}
		if s.recBody >= 0 && s.recBody <= end {
			body := s.buf[s.recBody:end]
			if s.keepRec {
				if s.borrowed {
					// A borrowed buffer never compacts, so the body slice
					// stays valid: no copy.
					s.lastRec = body
				} else {
					s.lastRec = append(s.lastRec[:0], body...)
				}
			}
			if s.keepErr && pd != nil && pd.Nerr > 0 {
				s.lastErr = append(s.lastErr[:0], body...)
			}
		}
	}
	if s.recEnd >= 0 {
		if s.pos < s.recEnd && pd != nil {
			begin := s.Pos()
			s.pos = s.recEnd
			pd.SetError(ErrExtraBeforeEOR, s.LocFrom(begin))
		}
		if s.pos < s.recEnd {
			s.pos = s.recEnd
		}
		s.pos = s.recEnd + s.recTrail
		if s.pos > len(s.buf) {
			s.pos = len(s.buf)
		}
	}
	s.recDepth = 0
	if s.stats != nil {
		s.stats.RecordsEnded++
	}
	if s.ov.active {
		s.discardOverflow()
	}
	s.compact()
}

// InRecord reports whether a record is open.
func (s *Source) InRecord() bool { return s.recDepth > 0 }

// RecordNum returns the 1-based number of the current (or last) record.
func (s *Source) RecordNum() int { return s.recNum }

// limit returns the exclusive upper bound of readable bytes, growing the
// window as needed to honor a request for n bytes.
func (s *Source) limit(n int) int {
	if s.recDepth > 0 && s.recEnd >= 0 {
		return s.recEnd
	}
	s.ensure(n)
	return len(s.buf)
}

// Avail reports how many bytes remain in the current record (or input when
// unbounded), making at least n available if possible.
//
// Avail, PeekByte, Peek, Skip, and Window keep their bounded-record case —
// the state every per-field read runs in — small enough to inline at call
// sites, deferring the unbounded case to a *Slow helper.
func (s *Source) Avail(n int) int {
	if s.recDepth > 0 && s.recEnd >= 0 {
		return s.recEnd - s.pos
	}
	return s.availSlow(n)
}

//go:noinline
func (s *Source) availSlow(n int) int {
	s.ensure(n)
	return len(s.buf) - s.pos
}

// PeekByte returns the byte at the cursor without consuming it. ok is false
// at end of record or end of input.
func (s *Source) PeekByte() (byte, bool) {
	if s.recDepth > 0 && s.pos < s.recEnd {
		return s.buf[s.pos], true
	}
	return s.peekByteSlow()
}

//go:noinline
func (s *Source) peekByteSlow() (byte, bool) {
	if s.limit(1) <= s.pos {
		return 0, false
	}
	return s.buf[s.pos], true
}

// Peek returns up to n bytes at the cursor without consuming them; fewer are
// returned at a record/input boundary.
func (s *Source) Peek(n int) []byte {
	lim := s.limit(n)
	end := s.pos + n
	if end > lim {
		end = lim
	}
	return s.buf[s.pos:end]
}

// Skip advances the cursor by n bytes (clamped to the record/input end).
func (s *Source) Skip(n int) {
	// The unsigned compare rejects a negative s.pos+n (overflow) along with
	// the unbounded recEnd == -1, so the fast path never moves the cursor
	// outside the record.
	if s.recDepth > 0 && s.recEnd >= 0 && uint(s.pos+n) <= uint(s.recEnd) {
		s.pos += n
		return
	}
	s.skipSlow(n)
}

//go:noinline
func (s *Source) skipSlow(n int) {
	lim := s.limit(n)
	s.pos += n
	if s.pos > lim {
		s.pos = lim
	}
}

// AtEOR reports whether the cursor is at the end of the current record. In
// an unbounded record it is true only at end of input.
func (s *Source) AtEOR() bool {
	if s.recDepth == 0 {
		return false
	}
	if s.recEnd >= 0 {
		return s.pos >= s.recEnd
	}
	return s.AtEOF()
}

// AtEOF reports whether the input is exhausted at the cursor (only
// meaningful outside a bounded record, or inside an unbounded one).
func (s *Source) AtEOF() bool {
	if s.pos < len(s.buf) {
		return false
	}
	s.ensure(1)
	return s.pos >= len(s.buf) && s.eof
}

// More reports whether another record (or more bytes) can follow; it is the
// termination test for Psource-level arrays of records.
func (s *Source) More() bool { return !s.AtEOF() }

// SkipToEOR advances to the end of the current record (panic-mode
// resynchronization). It reports how many bytes were skipped.
func (s *Source) SkipToEOR() int {
	if s.recDepth == 0 {
		return 0
	}
	if s.recEnd >= 0 {
		n := s.recEnd - s.pos
		if n < 0 {
			n = 0
		}
		s.pos = s.recEnd
		s.countResync(n)
		return n
	}
	// Unbounded record: consume everything.
	n := 0
	for {
		w, eofHit, _ := s.ensure(1)
		if len(w) == 0 {
			if eofHit {
				s.countResync(n)
				return n
			}
			continue
		}
		n += len(w)
		s.pos += len(w)
	}
}

// countResync tallies a panic-mode skip of n bytes (only skips that actually
// discarded data count).
func (s *Source) countResync(n int) {
	if s.stats != nil && n > 0 {
		s.stats.EORResyncs++
		s.stats.EORResyncBytes += uint64(n)
	}
}

// Window returns the unconsumed remainder of the current record (fully
// buffered), for regexp matching and diagnostics. In an unbounded record it
// buffers up to max bytes (max<=0 means 64 KiB).
func (s *Source) Window(max int) []byte {
	if s.recDepth > 0 && s.recEnd >= 0 {
		return s.buf[s.pos:s.recEnd]
	}
	return s.windowSlow(max)
}

func (s *Source) windowSlow(max int) []byte {
	if max <= 0 {
		max = 64 * 1024
	}
	w, _, _ := s.ensure(max)
	if len(w) > max {
		w = w[:max]
	}
	return w
}

// Checkpoint pushes a speculation point; the window is pinned until the
// matching Commit or Restore. Checkpoints nest, supporting unions inside
// unions.
func (s *Source) Checkpoint() {
	s.pollCancel()
	if s.limits.MaxSpecDepth > 0 && len(s.cps) >= s.limits.MaxSpecDepth && s.err == nil {
		// The checkpoint still pushes (Commit/Restore pairing must hold),
		// but the parse now winds down under a sticky structured error.
		s.err = &LimitError{What: "speculation depth", Limit: s.limits.MaxSpecDepth}
		s.eof = true
	}
	s.cps = append(s.cps, checkpoint{
		pos: s.pos, recDepth: s.recDepth, recBody: s.recBody,
		recEnd: s.recEnd, recTrail: s.recTrail, recNum: s.recNum,
		ov: s.ov, recTrunc: s.recTrunc,
	})
	if s.stats != nil {
		s.stats.Checkpoints++
		if d := uint64(len(s.cps)); d > s.stats.MaxSpecDepth {
			s.stats.MaxSpecDepth = d
		}
	}
}

// Commit pops the most recent checkpoint, keeping all input consumed since.
func (s *Source) Commit() {
	if len(s.cps) == 0 {
		panic("padsrt: Commit without Checkpoint")
	}
	s.cps = s.cps[:len(s.cps)-1]
	if s.stats != nil {
		s.stats.Commits++
	}
}

// Restore pops the most recent checkpoint and rewinds to it.
func (s *Source) Restore() {
	if len(s.cps) == 0 {
		panic("padsrt: Restore without Checkpoint")
	}
	if s.stats != nil {
		s.stats.Restores++
	}
	cp := s.cps[len(s.cps)-1]
	s.cps = s.cps[:len(s.cps)-1]
	s.pos = cp.pos
	s.recDepth = cp.recDepth
	s.recBody = cp.recBody
	s.recEnd = cp.recEnd
	s.recTrail = cp.recTrail
	s.recNum = cp.recNum
	s.ov = cp.ov
	s.recTrunc = cp.recTrunc
	if s.limits.MaxBacktracks > 0 {
		s.backtracked()
	}
	s.clampStopped()
}

// clampStopped re-empties the readable window of a hard-stopped source after
// a rollback restored record state: a Restore (or Rewind) would otherwise
// reinstate a wider recEnd and let in-record fast-path reads re-scan
// buffered bytes the stop is supposed to withhold. backtracked applies the
// same clamp when the stop originates from the backtrack budget; this one
// covers cancellation, whose poll sites do not include rollbacks.
func (s *Source) clampStopped() {
	if s.stopped && s.recDepth > 0 {
		s.recEnd = s.pos
	}
}

// backtracked charges one rollback against Limits.MaxBacktracks. Once over
// the cap it pins the sticky LimitError and empties the readable window —
// ensure withholds buffered bytes and the in-record read fast paths see a
// zero-length record body — so every retried trial fails at its first read
// instead of re-scanning buffered input. It runs after the rollback has
// restored cursor and record state, so the clamp holds at each rollback no
// matter what window an outer checkpoint reinstates.
func (s *Source) backtracked() {
	s.nback++
	if s.nback <= s.limits.MaxBacktracks {
		return
	}
	if s.err == nil {
		s.err = &LimitError{What: "backtrack budget", Limit: s.limits.MaxBacktracks}
	}
	s.eof = true
	s.stopped = true
	if s.recDepth > 0 {
		s.recEnd = s.pos
	}
}

// Speculating reports whether any checkpoint is active.
func (s *Source) Speculating() bool { return len(s.cps) > 0 }

// Mark returns the cursor index for a later Rewind: the lightweight
// speculation pair engines use around trials of rewindable parses
// (ir.FRewind) — ones that consume input only by advancing the cursor
// inside the current record. Unlike Checkpoint it pins nothing and copies
// no record state, so the pair is sound only when no record is begun or
// ended (and hence no consumed data is discarded) between Mark and Rewind.
// Every base-type read satisfies this: compaction runs only at record
// boundaries, and fills append without shifting the buffer.
func (s *Source) Mark() int { return s.pos }

// Rewind moves the cursor back to a position returned by Mark. See Mark
// for the soundness contract.
func (s *Source) Rewind(mark int) {
	s.pos = mark
	if s.limits.MaxBacktracks > 0 {
		s.backtracked()
	}
	s.clampStopped()
}

// RecordBytes returns the bytes of the current record consumed so far plus
// the unconsumed remainder — i.e. the whole record body when called right
// after BeginRecord, useful to echo erroneous records to an error log as
// the Figure 7 program does.
func (s *Source) RecordBytes() []byte {
	if s.recDepth == 0 {
		return nil
	}
	if s.recEnd >= 0 {
		return s.buf[s.recBody:s.recEnd]
	}
	return s.buf[s.recBody:]
}

// String summarizes the cursor state for debugging.
func (s *Source) String() string {
	return fmt.Sprintf("Source{pos=%d rec=%d depth=%d disc=%s}", s.off+int64(s.pos), s.recNum, s.recDepth, s.disc.Name())
}
