package segment

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"pads/internal/atomicio"
)

// The job manifest is a JSONL journal beside the output files: one "job"
// header line, one "seg" line per committed segment (appended in segment
// order and fsync'd per commit batch), and one "done" line when the job
// completes — at which point the whole manifest is rewritten through an
// atomic rename so a finished manifest is always a complete, clean file.
//
// Append-crash tolerance: a torn final line (a crash mid-append, a torn
// page flush) is detected on load — every intact line ends with the only
// newline it contains, so no proper prefix of a line parses — and dropped,
// which simply un-commits the last batch; the segments re-parse on resume.
// A damaged interior line means the file (not the tail) was corrupted, and
// loading fails rather than guessing.

const manifestVersion = 1

// jobLine identifies the job: the input (by size and head/tail content
// hash), the description (by source hash), the framing, the segmentation
// parameters, and the output files. Resume re-verifies every field — a
// manifest never silently applies to different data.
type jobLine struct {
	Kind       string `json:"kind"` // "job"
	V          int    `json:"v"`
	File       string `json:"file"`
	Size       int64  `json:"size"`
	Head       string `json:"head"` // sha256 of the first identityBytes
	Tail       string `json:"tail"` // sha256 of the last identityBytes
	Desc       string `json:"desc,omitempty"`
	Disc       string `json:"disc"`
	Mode       string `json:"mode"`
	SegSize    int64  `json:"seg_size"`
	HeaderEnd  int64  `json:"header_end"`
	HeaderRecs int    `json:"header_recs"`
	Segments   int    `json:"segments"`
	Quar       string `json:"quar,omitempty"`
	Out        string `json:"out,omitempty"`
	OutBase    int64  `json:"out_base,omitempty"` // prologue bytes before segment output
	Created    string `json:"created,omitempty"`
}

// segLine commits one segment: its identity (cross-checked against the
// re-planned segmentation on resume), its outcome, and the durable output
// offsets as of this commit — the truncation points resume restores before
// re-parsing anything.
type segLine struct {
	Kind      string `json:"kind"` // "seg"
	Index     int    `json:"i"`
	Off       int64  `json:"off"`
	Len       int64  `json:"len"`
	RecBase   int    `json:"rec_base"`
	Status    string `json:"status"` // "done" | "poisoned"
	Reason    string `json:"reason,omitempty"`
	Records   int    `json:"records"`
	Errs      int    `json:"errs"`
	QuarOff   int64  `json:"quar_off"`          // quarantine file length after this commit
	QuarCount int64  `json:"quar_count"`        // cumulative quarantined entries
	OutOff    int64  `json:"out_off,omitempty"` // output file length after this commit
	AccHash   string `json:"acc,omitempty"`     // sha256 of the accum sidecar written with this batch
}

const (
	segDone     = "done"
	segPoisoned = "poisoned"
)

// doneLine marks completion.
type doneLine struct {
	Kind     string `json:"kind"` // "done"
	Records  int    `json:"records"`
	Errored  int    `json:"errored"`
	Poisoned []int  `json:"poisoned,omitempty"`
}

// manifest is the open journal.
type manifest struct {
	path string
	f    *os.File // append handle; nil after finalize/close
	job  jobLine
	segs []segLine
	done *doneLine
}

func marshalLine(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// All line types marshal from plain structs; failure is a bug.
		panic(fmt.Sprintf("segment: marshal manifest line: %v", err))
	}
	return append(b, '\n')
}

// createManifest starts a fresh journal. It refuses to overwrite an
// existing manifest: that is either a job to resume or output to preserve.
func createManifest(path string, job jobLine) (*manifest, error) {
	job.Kind = "job"
	job.V = manifestVersion
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		if os.IsExist(err) {
			return nil, fmt.Errorf("segment: manifest %s already exists (resume it, or remove it to start over)", path)
		}
		return nil, err
	}
	m := &manifest{path: path, f: f, job: job}
	if _, err := f.Write(marshalLine(&job)); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if err := atomicio.SyncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, err
	}
	return m, nil
}

// loadManifest reads a journal back for resuming: it truncates a torn final
// line, makes that repair durable, and leaves the file open for appending at
// the end of the last intact line.
func loadManifest(path string) (*manifest, error) {
	m, good, err := readManifest(path)
	if err != nil {
		return nil, err
	}
	if m.done != nil {
		return m, nil // complete: no append handle needed
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(int64(good)); err != nil {
		f.Close()
		return nil, err
	}
	// Make the tail repair durable before anything appends past it: without
	// this fsync a crash before the first new commit could resurface the
	// torn line on some filesystems, under whatever bytes land after it.
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(int64(good), io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	m.f = f
	return m, nil
}

// readManifest parses a journal without touching the file: it returns the
// journal up to its last intact line and that line's end offset. A torn
// final line is left in place for the caller to repair or ignore.
func readManifest(path string) (*manifest, int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	m := &manifest{path: path}
	good := 0 // bytes of intact lines
	sawJob := false
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // torn tail: no terminator
		}
		line := data[off : off+nl]
		var probe struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			if off+nl+1 >= len(data) {
				break // torn tail: unparseable final line
			}
			return nil, 0, fmt.Errorf("segment: manifest %s corrupt at byte %d: %v", path, off, err)
		}
		switch probe.Kind {
		case "job":
			if sawJob {
				return nil, 0, fmt.Errorf("segment: manifest %s has two job lines", path)
			}
			if err := json.Unmarshal(line, &m.job); err != nil {
				return nil, 0, err
			}
			sawJob = true
		case "seg":
			var sl segLine
			if err := json.Unmarshal(line, &sl); err != nil {
				return nil, 0, err
			}
			if sl.Index != len(m.segs) {
				return nil, 0, fmt.Errorf("segment: manifest %s commits segment %d out of order (want %d)", path, sl.Index, len(m.segs))
			}
			m.segs = append(m.segs, sl)
		case "done":
			var dl doneLine
			if err := json.Unmarshal(line, &dl); err != nil {
				return nil, 0, err
			}
			m.done = &dl
		default:
			if off+nl+1 >= len(data) {
				break // torn tail that happened to parse as JSON of no known kind
			}
			return nil, 0, fmt.Errorf("segment: manifest %s has unknown line kind %q", path, probe.Kind)
		}
		off += nl + 1
		good = off
	}
	if !sawJob {
		return nil, 0, fmt.Errorf("segment: manifest %s has no job line (torn before the first commit); remove it and start over", path)
	}
	if m.job.V != manifestVersion {
		return nil, 0, fmt.Errorf("segment: manifest %s is version %d, this build reads %d", path, m.job.V, manifestVersion)
	}
	return m, good, nil
}

// appendSegs journals a commit batch: all lines in one write, one fsync.
func (m *manifest) appendSegs(lines []segLine) error {
	var buf bytes.Buffer
	for i := range lines {
		lines[i].Kind = "seg"
		buf.Write(marshalLine(&lines[i]))
	}
	if _, err := m.f.Write(buf.Bytes()); err != nil {
		return err
	}
	if err := m.f.Sync(); err != nil {
		return err
	}
	m.segs = append(m.segs, lines...)
	return nil
}

// finalize completes the journal: the whole manifest (job line, every seg
// line, done line) is rewritten through a temp file and atomically renamed
// over the journal, so a finished manifest is a single clean file with no
// append seams.
func (m *manifest) finalize(done doneLine) error {
	done.Kind = "done"
	var buf bytes.Buffer
	buf.Write(marshalLine(&m.job))
	for i := range m.segs {
		buf.Write(marshalLine(&m.segs[i]))
	}
	buf.Write(marshalLine(&done))
	if err := atomicio.WriteFile(m.path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	m.done = &done
	if m.f != nil {
		m.f.Close() // the append handle now points at an unlinked inode
		m.f = nil
	}
	return nil
}

func (m *manifest) close() {
	if m.f != nil {
		m.f.Close()
		m.f = nil
	}
}

// identityBytes is how much of each end of the input participates in the
// content hash. Hashing the whole input would re-read gigabytes on every
// resume; size plus both ends catches truncation, append, and in-place
// header/trailer rewrites — the realistic mutations of a log file.
const identityBytes = 64 * 1024

// fileIdentity hashes the first and last identityBytes of the input.
func fileIdentity(r io.ReaderAt, size int64) (head, tail string, err error) {
	n := size
	if n > identityBytes {
		n = identityBytes
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(io.NewSectionReader(r, 0, n), buf); err != nil {
		return "", "", fmt.Errorf("segment: hash input head: %w", err)
	}
	h := sha256.Sum256(buf)
	head = hex.EncodeToString(h[:])
	if _, err := io.ReadFull(io.NewSectionReader(r, size-n, n), buf); err != nil {
		return "", "", fmt.Errorf("segment: hash input tail: %w", err)
	}
	t := sha256.Sum256(buf)
	tail = hex.EncodeToString(t[:])
	return head, tail, nil
}

// HashBytes is the content hash used for job identity (description sources,
// accumulator sidecars): sha256, hex-encoded.
func HashBytes(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// sidecarFile is the accumulator snapshot written beside the manifest
// (<manifest>.accum) on every commit batch, via temp-file + fsync + atomic
// rename. Through records how far the snapshot folds; because the sidecar
// is written after its manifest lines, a crash between the two leaves the
// sidecar one batch behind, and resume re-parses the gap accumulator-only.
type sidecarFile struct {
	Through int             `json:"through"` // last segment index folded into Acc
	Records int             `json:"records"`
	Errored int             `json:"errored"`
	Acc     json.RawMessage `json:"acc"`
}

func sidecarPath(manifestPath string) string { return manifestPath + ".accum" }

// Info is the public summary of a manifest, for tools that need to inspect
// a job before (or without) running it: the resume paths of the CLIs and
// the padsd job API.
type Info struct {
	File       string `json:"file"`
	Size       int64  `json:"size"`
	Mode       string `json:"mode"`
	Disc       string `json:"disc"`
	SegSize    int64  `json:"seg_size"`
	Segments   int    `json:"segments"`
	Committed  int    `json:"committed"`
	Poisoned   int    `json:"poisoned"`
	Records    int    `json:"records"`
	Errored    int    `json:"errored"`
	Quarantine string `json:"quarantine,omitempty"`
	Out        string `json:"out,omitempty"`
	Complete   bool   `json:"complete"`
}

// Peek reads a manifest and summarizes it. It never writes to the file: a
// torn final line is ignored here and repaired only by a resume, so peeking
// a journal another process is still appending to cannot cut its commits.
func Peek(path string) (Info, error) {
	m, _, err := readManifest(path)
	if err != nil {
		return Info{}, err
	}
	in := Info{
		File: m.job.File, Size: m.job.Size, Mode: m.job.Mode, Disc: m.job.Disc,
		SegSize: m.job.SegSize, Segments: m.job.Segments,
		Committed: len(m.segs), Quarantine: m.job.Quar, Out: m.job.Out,
		Complete: m.done != nil,
	}
	for _, sl := range m.segs {
		in.Records += sl.Records
		in.Errored += sl.Errs
		if sl.Status == segPoisoned {
			in.Poisoned++
		}
	}
	return in, nil
}
