package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"pads/internal/core"
	"pads/internal/datagen"
)

// The descriptions the workloads compile: the repository's own Sirius
// (Figure 5) and CLF (Figure 4) descriptions, the sources the generated
// parsers under internal/gen were made from.
const (
	siriusDescPath = "testdata/sirius.pads"
	clfDescPath    = "testdata/clf.pads"
)

// selectState is the state the Figure 10 selection looks for.
var selectState = datagen.StateName(0)

// mix derives a generator seed from the run's seed and a per-use salt
// (splitmix64), so no two corpora of one run share a random stream and
// seeds that differ only in bit 0 stay distinct (datagen ORs in 1).
func mix(seed, salt uint64) uint64 {
	z := seed*0x9E3779B97F4A7C15 + salt
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// genSirius makes an in-memory Sirius corpus with the paper's error
// population (datagen.DefaultSirius).
func genSirius(seed uint64, records int) ([]byte, datagen.SiriusStats, error) {
	cfg := datagen.DefaultSirius(records)
	cfg.Seed = mix(seed, 1)
	var buf bytes.Buffer
	st, err := datagen.Sirius(&buf, cfg)
	if err != nil {
		return nil, st, fmt.Errorf("generating sirius corpus: %w", err)
	}
	return buf.Bytes(), st, nil
}

// compile compiles a description file and times core.Compile alone.
func compile(path string) (*core.Description, time.Duration, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	d, err := core.Compile(string(src), path)
	return d, time.Since(t0), err
}
