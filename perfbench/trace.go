package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into the program's
// packages. Every span is tallied (count, duration, and the time its child
// spans cover, so self time is exact); the spans themselves are kept in
// memory for the first sampleFirst of each name and one in sampleEvery
// after that, and written out as JSON lines when the run ends.
//
// start/stop nest spans on one goroutine's stack and charge each span to
// its parent's child time; record adds a finished span from any goroutine.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	nextID int
	stack  []openSpan
	kept   []span
	seen   map[string]int // spans of each name so far, for sampling
	tally  map[string]*tally
}

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type openSpan struct {
	id     int
	name   string
	start  time.Time
	parent int
}

type tally struct {
	n     int
	total time.Duration
	child time.Duration
}

const (
	sampleFirst = 2000
	sampleEvery = 64
)

func newTracer() *tracer {
	return &tracer{t0: time.Now(), seen: make(map[string]int), tally: make(map[string]*tally)}
}

// start opens a span nested in the innermost open span of the stack. On a
// nil tracer start and stop do nothing.
func (t *tracer) start(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.nextID++
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].id
	}
	t.stack = append(t.stack, openSpan{id: t.nextID, name: name, parent: parent})
	t.mu.Unlock()
	// Read the clock last, so the bookkeeping above is not charged to it.
	t.stack[len(t.stack)-1].start = time.Now()
}

// stop closes the innermost open span.
func (t *tracer) stop() {
	if t == nil {
		return
	}
	end := time.Now()
	t.mu.Lock()
	o := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.addLocked(o.id, o.parent, o.name, o.start, end)
	if n := len(t.stack); n > 0 {
		t.tallyOf(t.stack[n-1].name).child += end.Sub(o.start)
	}
	t.mu.Unlock()
}

// record adds a finished span from any goroutine. id 0 takes the next id
// the tracer hands out.
func (t *tracer) record(name string, id, parent int, start, end time.Time) {
	t.mu.Lock()
	if id == 0 {
		t.nextID++
		id = t.nextID
	}
	t.addLocked(id, parent, name, start, end)
	t.mu.Unlock()
}

func (t *tracer) tallyOf(name string) *tally {
	tl := t.tally[name]
	if tl == nil {
		tl = &tally{}
		t.tally[name] = tl
	}
	return tl
}

func (t *tracer) addLocked(id, parent int, name string, start, end time.Time) {
	tl := t.tallyOf(name)
	tl.n++
	tl.total += end.Sub(start)
	t.seen[name]++
	if n := t.seen[name]; n <= sampleFirst || n%sampleEvery == 0 {
		t.kept = append(t.kept, span{ID: id, Parent: parent, Name: name,
			Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	}
}

// total and self are the summed duration of all spans of a name, and that
// minus the time their child spans cover.
func (t *tracer) total(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	if tl := t.tally[name]; tl != nil {
		return tl.total
	}
	return 0
}

func (t *tracer) self(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	if tl := t.tally[name]; tl != nil {
		return tl.total - tl.child
	}
	return 0
}

func (t *tracer) count(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if tl := t.tally[name]; tl != nil {
		return tl.n
	}
	return 0
}

// reset forgets the tallies, so a tally can cover one pass; the kept spans
// and the sampling stay.
func (t *tracer) reset() {
	t.mu.Lock()
	t.tally = make(map[string]*tally)
	t.mu.Unlock()
}

// write stores the kept spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.kept {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedReader is the io.Reader a traced padsrt.Source reads through: each
// Read is a padsrt.read span, a child of whatever span is open around the
// call that needed input.
type tracedReader struct {
	r    io.Reader
	t    *tracer
	name string
}

func (tr *tracedReader) Read(p []byte) (int, error) {
	tr.t.start(tr.name)
	n, err := tr.r.Read(p)
	tr.t.stop()
	return n, err
}
