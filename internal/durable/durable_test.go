package durable

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestWriteFileConcurrentSamePath: writers racing on one path (two identical
// cache jobs finishing together) each replace the file whole, so it ends as
// exactly one writer's payload and no temp file is left behind.
func TestWriteFileConcurrentSamePath(t *testing.T) {
	for _, fsync := range []bool{false, true} {
		dir := t.TempDir()
		path := filepath.Join(dir, "entry")
		payloads := make([][]byte, 8)
		for i := range payloads {
			payloads[i] = bytes.Repeat([]byte{byte('a' + i)}, 4096*(i+1))
		}
		var wg sync.WaitGroup
		for _, p := range payloads {
			wg.Add(1)
			go func(p []byte) {
				defer wg.Done()
				if err := WriteFile(path, p, fsync); err != nil {
					t.Errorf("sync=%v: WriteFile: %v", fsync, err)
				}
			}(p)
		}
		wg.Wait()
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		whole := false
		for _, p := range payloads {
			whole = whole || bytes.Equal(got, p)
		}
		if !whole {
			t.Errorf("sync=%v: file (%d bytes) is not any one writer's payload", fsync, len(got))
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 1 {
			t.Errorf("sync=%v: directory holds %d entries, want 1", fsync, len(entries))
		}
	}
}

// TestWriteFileFailureRemovesTemp: when the rename fails (the target is a
// non-empty directory), the error surfaces and the temp file is gone.
func TestWriteFileFailureRemovesTemp(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "target")
	if err := os.MkdirAll(filepath.Join(target, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(target, []byte("data"), true); err == nil {
		t.Fatal("rename over a non-empty directory succeeded")
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("directory holds %d entries after a failed write, want 1", len(entries))
	}
}

// TestRemoveTemps deletes exactly the temp names WriteFile uses for one
// target, and leaves the target and other files alone.
func TestRemoveTemps(t *testing.T) {
	dir := t.TempDir()
	temps := []string{".journal.4711.tmp", ".journal.1.tmp"}
	others := []string{"journal", ".journal.bak.1.tmp", ".journal..tmp", ".journalx.1.tmp", "journal.1.tmp"}
	for _, name := range append(temps, others...) {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	RemoveTemps(filepath.Join(dir, "journal"))
	for _, name := range temps {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("temp %s survived (err %v)", name, err)
		}
	}
	for _, name := range others {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("%s removed: %v", name, err)
		}
	}
}

func TestOpenTypedErrors(t *testing.T) {
	const magic, version = "TESTFILE", 2
	good := Seal(magic, version, []byte("payload bytes"))
	if p, err := Open(good, magic, version); err != nil || string(p) != "payload bytes" {
		t.Fatalf("Open(Seal(...)) = %q, %v", p, err)
	}
	flip := func(i int) []byte {
		b := append([]byte(nil), good...)
		b[i] ^= 0x20
		return b
	}
	for _, tc := range []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short foreign", []byte("TEST"), ErrTruncated},
		{"foreign", []byte("OTHERFILE and more"), ErrBadMagic},
		{"header only", good[:len(magic)+4], ErrTruncated},
		{"version", Seal(magic, version+1, nil), ErrVersion},
		{"length past end", good[:len(good)-5], ErrTruncated},
		{"no checksum", good[:len(good)-4], ErrTruncated},
		{"payload bit", flip(len(magic) + 12), ErrChecksum},
		{"checksum bit", flip(len(good) - 1), ErrChecksum},
	} {
		if _, err := Open(tc.data, magic, version); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// FuzzReadStream: on any input ReadStream does not panic, fails only with a
// typed header error, and reports a valid prefix that re-framing the
// accepted payloads reproduces byte for byte.
func FuzzReadStream(f *testing.F) {
	const magic, version, maxLen = "TESTSTRM", 1, 64
	good := AppendRecord(AppendRecord(Header(magic, version), []byte("first")), []byte("second"))
	f.Add([]byte{})
	f.Add(Header(magic, version))
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add(AppendRecord(Header(magic, version), []byte("reject")))
	f.Add(AppendRecord(Header(magic, version), make([]byte, maxLen+1)))
	f.Add(append(Header(magic, version+1), good[len(magic)+4:]...))
	f.Add([]byte("NOTASTRM and some bytes"))
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 0x01
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		var accepted [][]byte
		valid, err := ReadStream(bytes.NewReader(data), magic, version, maxLen, func(p []byte) bool {
			if string(p) == "reject" {
				return false
			}
			accepted = append(accepted, p)
			return true
		})
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid = %d outside [0, %d]", valid, len(data))
		}
		if err != nil {
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersion) {
				t.Fatalf("untyped error: %v", err)
			}
			if valid != 0 || len(accepted) != 0 {
				t.Fatalf("header error with valid = %d and %d records", valid, len(accepted))
			}
			return
		}
		if valid == 0 {
			if len(data) >= len(magic)+4 || len(accepted) != 0 {
				t.Fatalf("valid 0 on a %d-byte input with %d records", len(data), len(accepted))
			}
			return
		}
		re := Header(magic, version)
		for _, p := range accepted {
			re = AppendRecord(re, p)
		}
		if !bytes.Equal(re, data[:valid]) {
			t.Fatalf("re-framed %d records (%d bytes) differ from the %d-byte valid prefix", len(accepted), len(re), valid)
		}
	})
}
