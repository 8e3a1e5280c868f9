// Package durable is the on-disk file discipline every persisted format
// shares: one atomic file write and two CRC-32C frame shapes, a whole-file
// frame (Seal/Open: snapshots MEGPCKPT, cached results MEGPRSLT) and a
// record stream (Header/AppendRecord/ReadStream: the fleet journal
// MEGPJRNL). Integers are little-endian; malformed input maps onto the four
// typed errors below, wrapped with detail, and never panics.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Typed framing failures.
var (
	ErrBadMagic  = errors.New("durable: wrong file type (bad magic)")
	ErrVersion   = errors.New("durable: unsupported format version")
	ErrTruncated = errors.New("durable: truncated file")
	ErrChecksum  = errors.New("durable: checksum mismatch")
)

// castagnoli is the CRC-32C table (same polynomial as iSCSI/ext4 metadata).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WriteFile atomically replaces path with data: the bytes land in a hidden
// temp file in the same directory, fsynced when sync is set, which is then
// renamed over path and removed on failure. A crash leaves the old contents
// or the new, never a mix; concurrent writers of one path each rename a
// whole file. Without sync the file survives kill -9 of the process; with
// it, also a power loss. The directory is not fsynced.
func WriteFile(path string, data []byte, sync bool) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil && sync {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name()) //nolint:errcheck // the write error is the one to report
	}
	return err
}

// RemoveTemps deletes the temp files that WriteFile calls for path left
// behind when a crash cut them short between create and rename.
func RemoveTemps(path string) {
	dir, prefix := filepath.Dir(path), "."+filepath.Base(path)+"."
	des, _ := os.ReadDir(dir)
	for _, de := range des {
		random, ours := strings.CutPrefix(de.Name(), prefix)
		random, tmp := strings.CutSuffix(random, ".tmp")
		if ours && tmp && random != "" && !strings.Contains(random, ".") {
			os.Remove(filepath.Join(dir, de.Name())) //nolint:errcheck // best-effort cleanup
		}
	}
}

// Seal frames payload as a whole file: magic, u32 version, u64 payload
// length, payload, then a CRC-32C of everything before it.
func Seal(magic string, version uint32, payload []byte) []byte {
	out := make([]byte, 0, len(magic)+4+8+len(payload)+4)
	out = append(out, magic...)
	out = binary.LittleEndian.AppendUint32(out, version)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, castagnoli))
}

// Open checks a Seal frame's magic, version, length and checksum, in that
// order, and returns the payload, which aliases data.
func Open(data []byte, magic string, version uint32) ([]byte, error) {
	headerLen := len(magic) + 4 + 8
	if len(data) >= len(magic) && string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: want %q", ErrBadMagic, magic)
	}
	if len(data) < headerLen {
		return nil, ErrTruncated
	}
	if v := binary.LittleEndian.Uint32(data[len(magic):]); v != version {
		return nil, fmt.Errorf("%w: %s version %d, this build reads %d", ErrVersion, magic, v, version)
	}
	plen := binary.LittleEndian.Uint64(data[len(magic)+4:])
	if plen > uint64(len(data)-headerLen) || len(data)-headerLen-int(plen) < 4 {
		return nil, ErrTruncated
	}
	total := headerLen + int(plen)
	if crc32.Checksum(data[:total], castagnoli) != binary.LittleEndian.Uint32(data[total:]) {
		return nil, ErrChecksum
	}
	return data[headerLen:total], nil
}

// Header returns the start of a record stream: magic, then u32 version.
func Header(magic string, version uint32) []byte {
	return binary.LittleEndian.AppendUint32([]byte(magic), version)
}

// AppendRecord appends one record frame to buf: u32 payload length, u32
// CRC-32C of the payload, payload.
func AppendRecord(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	return append(buf, payload...)
}

// ReadStream hands each intact payload of a record stream to fn, in order,
// and returns the length of the valid prefix: the header plus every record
// fn accepted. It stops cleanly at the first record that is short, empty,
// longer than maxLen or fails its checksum, or that fn rejects — the torn
// tail a crash mid-append leaves. Input shorter than a header is empty; a
// header of another magic or version is an error, as is a read error other
// than the end of the input.
func ReadStream(r io.Reader, magic string, version uint32, maxLen int, fn func([]byte) bool) (valid int64, err error) {
	hdr := make([]byte, len(magic)+4)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, endOK(err)
	}
	if string(hdr[:len(magic)]) != magic {
		return 0, fmt.Errorf("%w: got %q, want %q", ErrBadMagic, hdr[:len(magic)], magic)
	}
	if v := binary.LittleEndian.Uint32(hdr[len(magic):]); v != version {
		return 0, fmt.Errorf("%w: %s version %d, this build reads %d", ErrVersion, magic, v, version)
	}
	valid = int64(len(hdr))
	frame := make([]byte, 8)
	for {
		if _, err := io.ReadFull(r, frame); err != nil {
			return valid, endOK(err)
		}
		n := binary.LittleEndian.Uint32(frame)
		if n == 0 || int64(n) > int64(maxLen) {
			return valid, nil
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return valid, endOK(err)
		}
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(frame[4:]) || !fn(payload) {
			return valid, nil
		}
		valid += 8 + int64(n)
	}
}

// endOK maps a read that ran into the end of the input to a clean stop.
func endOK(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return nil
	}
	return err
}
