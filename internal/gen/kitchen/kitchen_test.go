package kitchen

import (
	"os"
	"path/filepath"
	"testing"

	"pads/internal/datagen"
	"pads/internal/dsl"
	"pads/internal/interp"
	"pads/internal/padsrt"
	"pads/internal/sema"
	"pads/internal/value"
)

func load(t *testing.T) (*sema.Desc, *interp.Interp) {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "..", "testdata", "kitchen.pads"))
	if err != nil {
		t.Fatal(err)
	}
	prog, errs := dsl.Parse(string(src))
	if len(errs) > 0 {
		t.Fatalf("parse: %v", errs[0])
	}
	desc, serrs := sema.Check(prog)
	if len(serrs) > 0 {
		t.Fatalf("check: %v", serrs[0])
	}
	in, err := interp.New(desc)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return desc, in
}

// TestThreeWayDifferential closes the loop over every language construct:
// the generic generator produces random conforming instances, which must
// parse cleanly and identically through BOTH the interpreter and the
// generated parser, and the generated writer must reproduce the bytes.
func TestThreeWayDifferential(t *testing.T) {
	desc, in := load(t)
	for seed := uint64(1); seed <= 40; seed++ {
		g, err := datagen.NewGenerator(desc, seed)
		if err != nil {
			t.Fatal(err)
		}
		data, err := g.GenerateSource()
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}

		// Interpreter (the bytecode VM). interp's TestVMConformGenCorpora
		// checks it against the reference AST walk on these instances.
		iv, err := in.ParseSource(padsrt.NewBytesSource(data))
		if err != nil {
			t.Fatalf("seed %d: interp: %v", seed, err)
		}
		if iv.PD().Nerr != 0 {
			t.Fatalf("seed %d: interp flagged generated data: %v\n%s", seed, iv.PD(), data)
		}

		// Generated parser.
		s := padsrt.NewBytesSource(data)
		garr := &value.Array{Common: value.NewCommon("blobs_t")}
		var out []byte
		for s.More() {
			var b Blob_t
			var pd Blob_tPD
			ReadBlob_t(s, nil, &pd, &b)
			if pd.PD.Nerr != 0 {
				t.Fatalf("seed %d: generated parser flagged: %v\n%s", seed, pd.PD, data)
			}
			garr.Elems = append(garr.Elems, Blob_tToValue(&b, &pd))
			out = WriteBlob_t(out, &b)
		}

		if !value.Equal(iv, garr) {
			t.Fatalf("seed %d: interp and generated parser disagree:\ninterp:    %s\ngenerated: %s",
				seed, value.String(iv), value.String(garr))
		}
		if string(out) != string(data) {
			t.Fatalf("seed %d: write-back differs:\n in: %q\nout: %q", seed, data, out)
		}
	}
}

func TestKitchenHandWritten(t *testing.T) {
	// A hand-written instance covering specific branch/opt combinations.
	line := "7||RED|1|513|1,2;3,4!/!|abc|2.5|1005022800|tail text\n"
	s := padsrt.NewBytesSource([]byte(line))
	var b Blob_t
	var pd Blob_tPD
	ReadBlob_t(s, nil, &pd, &b)
	if pd.PD.Nerr != 0 {
		t.Fatalf("pd = %v", pd.PD)
	}
	if b.Id != 7 {
		t.Errorf("id = %d", b.Id)
	}
	if b.Origin.Present {
		t.Error("origin should be absent")
	}
	if b.Shade.Tag != Shade_tTagNamed || b.Shade.Named != Color_t_RED {
		t.Errorf("shade = %+v", b.Shade)
	}
	if b.Tag.Tag != Tagged_tTagSmall || b.Tag.Small != 513 {
		t.Errorf("tag = %+v", b.Tag)
	}
	if len(b.Grid.Elems) != 2 {
		t.Fatalf("grid = %+v", b.Grid)
	}
	if len(b.Grid.Elems[0].Elems) != 2 || b.Grid.Elems[0].Elems[1].Y != 4 {
		t.Errorf("grid[0] = %+v", b.Grid.Elems[0])
	}
	if len(b.Grid.Elems[1].Elems) != 0 {
		t.Errorf("grid[1] should be empty: %+v", b.Grid.Elems[1])
	}
	if b.Word != "abc" || b.Ratio != 2.5 || b.Stamp.Sec != 1005022800 {
		t.Errorf("tail fields: %+v", b)
	}
	if b.Trailer != "tail text" {
		t.Errorf("trailer = %q", b.Trailer)
	}
	// Round trip.
	out := WriteBlob_t(nil, &b)
	if string(out) != line {
		t.Errorf("write-back:\n in: %q\nout: %q", line, out)
	}
	// Switched-union default branch.
	line2 := "9|5,6|200|9|x|!/!|zz|0.5|1005022800|t\n"
	s2 := padsrt.NewBytesSource([]byte(line2))
	ReadBlob_t(s2, nil, &pd, &b)
	if pd.PD.Nerr != 0 {
		t.Fatalf("pd2 = %v", pd.PD)
	}
	if b.Tag.Tag != Tagged_tTagOther || b.Tag.Other != 'x' {
		t.Errorf("default branch = %+v", b.Tag)
	}
	if !b.Origin.Present || b.Origin.Val.X != 5 || b.Origin.Val.Y != 6 {
		t.Errorf("origin = %+v", b.Origin)
	}
	if b.Shade.Tag != Shade_tTagGray || b.Shade.Gray != 200 {
		t.Errorf("shade = %+v", b.Shade)
	}
}
