package cliutil

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
)

// The out-of-core flags are shared plumbing like the robustness ones: every
// tool that offers -out-of-core / -segment-size / -resume / -manifest
// registers them here (docs/ROBUSTNESS.md, "Out-of-core jobs").

// SegmentFlags holds the shared out-of-core flag values.
type SegmentFlags struct {
	OutOfCore bool
	SegSize   string
	Resume    string
	Manifest  string
}

// NewSegmentFlags registers the shared out-of-core flags.
func NewSegmentFlags() *SegmentFlags {
	sf := &SegmentFlags{}
	flag.BoolVar(&sf.OutOfCore, "out-of-core", false, "parse segment-at-a-time with a crash-safe job manifest (O(workers × segment) memory)")
	flag.StringVar(&sf.SegSize, "segment-size", "", "out-of-core segment buffer `SIZE` (suffixes k/m/g; default 8m, floor 64k)")
	flag.StringVar(&sf.Resume, "resume", "", "resume the out-of-core job journaled in `MANIFEST`, skipping committed segments")
	flag.StringVar(&sf.Manifest, "manifest", "", "out-of-core job manifest `PATH` (default: DATA.manifest)")
	return sf
}

// Active reports whether the run should take the out-of-core path.
func (sf *SegmentFlags) Active() bool { return sf.OutOfCore || sf.Resume != "" }

// ParseSize interprets a byte-size flag value with optional k/m/g suffixes
// (binary multiples). Empty means 0 (let the consumer pick its default).
func ParseSize(s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "k"), strings.HasSuffix(s, "K"):
		mult, s = 1<<10, s[:len(s)-1]
	case strings.HasSuffix(s, "m"), strings.HasSuffix(s, "M"):
		mult, s = 1<<20, s[:len(s)-1]
	case strings.HasSuffix(s, "g"), strings.HasSuffix(s, "G"):
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("bad size %q (want a positive integer with optional k/m/g suffix)", s)
	}
	return n * mult, nil
}
