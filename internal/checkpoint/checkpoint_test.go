package checkpoint

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/optimizer"
)

// headerLen is the frame header: magic + version + payload length.
const headerLen = len(Magic) + 4 + 8

// sampleSnapshot builds a representative snapshot with every field
// populated, including non-finite and negative-zero floats that a decimal
// codec would mangle.
func sampleSnapshot() *Snapshot {
	return &Snapshot{
		Fingerprint: Fingerprint{
			Design: "newblue1", NumCells: 12, NumNets: 9, NumPins: 31,
			NumMovable: 3, NumFillers: 2, GridX: 32, GridY: 16,
			Model: "ME", Optimizer: "nesterov", Seed: 7,
			TargetDensity: 0.85,
			RegionXL:      -1.5, RegionYL: 0, RegionXH: 100.25, RegionYH: 50,
			Schedule: "tangent", Precondition: true,
		},
		Iter:        42,
		Evaluations: 97,
		Param:       3.5,
		Lambda:      1e-4,
		Overflow:    0.31,
		LastEnergy:  123.75,
		LambdaSched: LambdaState{Lambda: 1e-4, Alpha: 1e-6, D0: 42.5, Primed: true},
		Pos:         []float64{1, 2, 3, 4, 5, math.Copysign(0, -1), 7, 8, 9, 10},
		Opt: optimizer.State{
			Kind:    "nesterov",
			Scalars: []float64{1.5, 0.001, math.Inf(1), 0.002},
			Ints:    []int64{2, 97},
			Bools:   []bool{true},
			Vectors: [][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}, {9, 10}},
		},
		Trajectory: []TrajectoryPoint{
			{Iter: 0, Overflow: 0.9, HPWL: 1000, Objective: 1200, Param: 4, Lambda: 1e-5},
			{Iter: 25, Overflow: 0.5, HPWL: 900, Objective: 1100, Param: 2, Lambda: 2e-5},
		},
		SetupSeconds: 0.125,
		LoopSeconds:  2.5,
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := sampleSnapshot()
	got, err := Decode(Encode(s))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip mismatch:\n want %+v\n got  %+v", s, got)
	}
}

func TestDecodeTypedErrors(t *testing.T) {
	good := Encode(sampleSnapshot())

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] ^= 0xFF
		if _, err := Decode(bad); !errors.Is(err, ErrBadMagic) {
			t.Errorf("err = %v, want ErrBadMagic", err)
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := Decode(nil); !errors.Is(err, ErrTruncated) {
			t.Errorf("err = %v, want ErrTruncated", err)
		}
	})
	t.Run("truncated at every length", func(t *testing.T) {
		for n := 0; n < len(good)-1; n += 7 {
			_, err := Decode(good[:n])
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadMagic) &&
				!errors.Is(err, ErrChecksum) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Decode(good[:%d]) err = %v, want a typed decode error", n, err)
			}
		}
	})
	t.Run("flipped CRC byte", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[len(bad)-1] ^= 0x01
		if _, err := Decode(bad); !errors.Is(err, ErrChecksum) {
			t.Errorf("err = %v, want ErrChecksum", err)
		}
	})
	t.Run("flipped payload byte", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[headerLen+3] ^= 0x40
		if _, err := Decode(bad); !errors.Is(err, ErrChecksum) {
			t.Errorf("err = %v, want ErrChecksum", err)
		}
	})
	t.Run("future version", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		binary.LittleEndian.PutUint32(bad[len(Magic):], Version+1)
		if _, err := Decode(bad); !errors.Is(err, ErrVersion) {
			t.Errorf("err = %v, want ErrVersion", err)
		}
	})
	t.Run("inconsistent pos length", func(t *testing.T) {
		s := sampleSnapshot()
		s.Pos = s.Pos[:4] // fingerprint implies 10 entries
		if _, err := Decode(Encode(s)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("err = %v, want ErrCorrupt", err)
		}
	})
}

func TestFingerprintMatch(t *testing.T) {
	base := sampleSnapshot().Fingerprint
	if err := base.Match(base); err != nil {
		t.Fatalf("identical fingerprints rejected: %v", err)
	}
	muts := map[string]func(*Fingerprint){
		"design":    func(f *Fingerprint) { f.Design = "other" },
		"cells":     func(f *Fingerprint) { f.NumCells++ },
		"model":     func(f *Fingerprint) { f.Model = "WA" },
		"optimizer": func(f *Fingerprint) { f.Optimizer = "adam" },
		"grid":      func(f *Fingerprint) { f.GridX *= 2 },
		"seed":      func(f *Fingerprint) { f.Seed = 99 },
		"region":    func(f *Fingerprint) { f.RegionXH += 1 },
	}
	for name, mut := range muts {
		t.Run(name, func(t *testing.T) {
			other := base
			mut(&other)
			if err := base.Match(other); !errors.Is(err, ErrMismatch) {
				t.Errorf("err = %v, want ErrMismatch", err)
			}
		})
	}
}

func TestWriteReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, FileName(42))
	s := sampleSnapshot()
	if err := WriteFile(path, s); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatal("file round trip mismatch")
	}
	// No temp files left behind.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries after write, want 1", len(entries))
	}
}

func TestWriteRotatingKeepsLastK(t *testing.T) {
	dir := t.TempDir()
	s := sampleSnapshot()
	for iter := 10; iter <= 60; iter += 10 {
		s.Iter = iter
		if _, err := WriteRotating(dir, s, 3); err != nil {
			t.Fatalf("WriteRotating(iter=%d): %v", iter, err)
		}
	}
	names, err := List(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{FileName(40), FileName(50), FileName(60)}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("List = %v, want %v", names, want)
	}
}

func TestLoadLatestSkipsCorrupt(t *testing.T) {
	dir := t.TempDir()
	s := sampleSnapshot()
	s.Iter = 10
	if _, err := WriteRotating(dir, s, 0); err != nil {
		t.Fatal(err)
	}
	s.Iter = 20
	if _, err := WriteRotating(dir, s, 0); err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest file; LoadLatest must fall back to iter 10.
	if err := os.WriteFile(filepath.Join(dir, FileName(20)), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, path, err := LoadLatest(dir)
	if err != nil {
		t.Fatalf("LoadLatest: %v", err)
	}
	if got.Iter != 10 || filepath.Base(path) != FileName(10) {
		t.Fatalf("LoadLatest picked iter %d (%s), want 10", got.Iter, path)
	}
}

func TestLoadLatestErrNoSnapshot(t *testing.T) {
	if _, _, err := LoadLatest(filepath.Join(t.TempDir(), "missing")); !errors.Is(err, ErrNoSnapshot) {
		t.Errorf("missing dir: err = %v, want ErrNoSnapshot", err)
	}
	if _, _, err := LoadLatest(t.TempDir()); !errors.Is(err, ErrNoSnapshot) {
		t.Errorf("empty dir: err = %v, want ErrNoSnapshot", err)
	}
}
