// Package cliutil holds the small amount of plumbing the cmd/ tools share:
// compiling the description named on the command line and configuring the
// input source from flags.
package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"pads/internal/core"
	"pads/internal/interp"
	"pads/internal/padsrt"
)

// ParseDisc interprets the -disc flag: newline, none, fixed:N, or
// lenprefix[:headerBytes].
func ParseDisc(spec string) (padsrt.Discipline, error) {
	switch {
	case spec == "" || spec == "newline":
		return padsrt.Newline(), nil
	case spec == "none":
		return padsrt.NoRecords(), nil
	case strings.HasPrefix(spec, "fixed:"):
		n, err := strconv.Atoi(spec[len("fixed:"):])
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad fixed-width discipline %q", spec)
		}
		return padsrt.FixedWidth(n), nil
	case spec == "lenprefix":
		return padsrt.LenPrefix(), nil
	case strings.HasPrefix(spec, "lenprefix:"):
		n, err := strconv.Atoi(spec[len("lenprefix:"):])
		if err != nil || n <= 0 || n > 8 {
			return nil, fmt.Errorf("bad length-prefix discipline %q", spec)
		}
		return &padsrt.LenPrefixDisc{HeaderBytes: n, Order: padsrt.BigEndian}, nil
	default:
		return nil, fmt.Errorf("unknown record discipline %q (newline, none, fixed:N, lenprefix[:N])", spec)
	}
}

// SourceOptions assembles source options from the shared flags.
func SourceOptions(disc string, ebcdic bool, littleEndian bool) ([]padsrt.SourceOption, error) {
	d, err := ParseDisc(disc)
	if err != nil {
		return nil, err
	}
	opts := []padsrt.SourceOption{padsrt.WithDiscipline(d)}
	if ebcdic {
		opts = append(opts, padsrt.WithCoding(padsrt.EBCDIC))
	}
	if littleEndian {
		opts = append(opts, padsrt.WithByteOrder(padsrt.LittleEndian))
	}
	return opts, nil
}

// InputFlags holds the flags every data-reading tool shares: the
// description, and how its data is framed and coded.
type InputFlags struct {
	Desc, Disc string
	EBCDIC, LE bool
}

// NewInputFlags registers the shared input flags.
func NewInputFlags() *InputFlags {
	f := &InputFlags{}
	flag.StringVar(&f.Desc, "desc", "", "PADS description file (required)")
	flag.StringVar(&f.Disc, "disc", "newline", "record discipline: newline, none, fixed:N, lenprefix[:N]")
	flag.BoolVar(&f.EBCDIC, "ebcdic", false, "treat the ambient coding as EBCDIC")
	flag.BoolVar(&f.LE, "le", false, "little-endian binary integers")
	return f
}

// Open compiles the description and builds the source options, extended
// by rf's resource guards. It exits with usage and status 2 when -desc is
// missing, and through Fatal on a bad description or discipline.
func (f *InputFlags) Open(usage string, rf *RobustFlags) (*core.Description, []padsrt.SourceOption) {
	if f.Desc == "" {
		Usage(usage)
	}
	d := MustCompile(f.Desc)
	opts, err := SourceOptions(f.Disc, f.EBCDIC, f.LE)
	if err != nil {
		Fatal(err)
	}
	return d, rf.SourceOptions(opts)
}

// Usage prints the usage line and exits with status 2.
func Usage(usage string) {
	fmt.Fprintln(os.Stderr, "usage: "+usage)
	os.Exit(2)
}

// Observe opens the observability flag blocks and attaches them to d,
// exiting on a bad flag value; tf is nil for a tool without trace flags.
// dataArg sizes the progress ETA.
func Observe(d *core.Description, stats bool, tf *TraceFlags, pf *ProfFlags, dataArg string) (*Telemetry, *Profiling) {
	if tf == nil {
		tf = &TraceFlags{}
	}
	tel, err := OpenTelemetry(stats, tf.Path, tf.Last)
	if err != nil {
		Fatal(err)
	}
	prf, err := OpenProfiling(pf, DataSize(dataArg))
	if err != nil {
		Fatal(err)
	}
	d.Observe(tel.Stats, tel.Tracer)
	d.ObserveProf(prf.Prof)
	return tel, prf
}

// MustCompile compiles the description or exits with its diagnostics.
func MustCompile(path string) *core.Description {
	d, err := core.CompileFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return d
}

// OpenData opens the data argument, "-" or empty meaning stdin.
func OpenData(path string) (io.ReadCloser, error) {
	if path == "" || path == "-" {
		return io.NopCloser(os.Stdin), nil
	}
	return os.Open(path)
}

// Fatal prints an error and exits. An exhausted error budget exits with
// status 3 so pipelines can tell "data over budget" from hard failures
// (status 1).
func Fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	var be *interp.BudgetError
	if errors.As(err, &be) {
		os.Exit(3)
	}
	os.Exit(1)
}
