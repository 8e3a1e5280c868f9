package checkpoint

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// snapshot file names sort by iteration: ckpt-000000123.ckpt.
const (
	filePrefix = "ckpt-"
	fileSuffix = ".ckpt"
)

// writeAttempts bounds the transient-error retry loop in WriteFile: a
// flaky filesystem (NFS hiccup, momentary ENOSPC) gets two more chances
// before the error propagates.
const writeAttempts = 3

// WriteHook, when non-nil, is consulted once per write attempt before any
// bytes land on disk; a non-nil return fails that attempt with the error.
// It is a build-tag-free fault-injection seam for the write-retry tests:
// production code pays one nil check per attempt and never sets it.
var WriteHook func(path string) error

// OnWriteRetry, when non-nil, observes every failed write attempt that is
// about to be retried (attempt is 1-based; the final failure is not
// reported here — it surfaces as WriteFile's error). Both CLIs install a
// logger/counter here at startup.
var OnWriteRetry func(path string, attempt int, err error)

// sleepFn is the retry backoff sleep, stubbed out in tests.
var sleepFn = time.Sleep

// retryBackoff returns the jittered delay before retrying attempt
// (1-based): 2ms·2^(attempt-1) plus up to 1ms of jitter, so concurrent
// writers against the same flaky volume don't retry in lockstep.
func retryBackoff(attempt int) time.Duration {
	base := 2 * time.Millisecond << (attempt - 1)
	return base + time.Duration(rand.Int63n(int64(time.Millisecond)))
}

// FileName returns the canonical snapshot file name for an iteration.
func FileName(iter int) string {
	return fmt.Sprintf("%s%09d%s", filePrefix, iter, fileSuffix)
}

// WriteFile atomically writes the snapshot to path, retrying transient
// failures with jittered exponential backoff (writeAttempts attempts
// total) so a momentary I/O error degrades to an OnWriteRetry
// notification instead of a lost snapshot. Each attempt lands the bytes
// in a temp file in the same directory, syncs, and renames over the
// destination, so a crash at any point leaves either the old file or the
// new one — never a torn write.
func WriteFile(path string, s *Snapshot) error {
	var err error
	for attempt := 1; ; attempt++ {
		err = writeFileOnce(path, s)
		if err == nil {
			return nil
		}
		if attempt >= writeAttempts {
			return err
		}
		if f := OnWriteRetry; f != nil {
			f(path, attempt, err)
		}
		sleepFn(retryBackoff(attempt))
	}
}

func writeFileOnce(path string, s *Snapshot) error {
	if h := WriteHook; h != nil {
		if err := h(path); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*.tmp")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	data := Encode(s)
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// ReadFile reads and decodes one snapshot file.
func ReadFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	s, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%w (%s)", err, path)
	}
	return s, nil
}

// WriteRotating writes the snapshot into dir under its canonical name and
// prunes older snapshots beyond keep (keep <= 0 means keep everything).
// Returns the path written.
func WriteRotating(dir string, s *Snapshot, keep int) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("checkpoint: %w", err)
	}
	path := filepath.Join(dir, FileName(s.Iter))
	if err := WriteFile(path, s); err != nil {
		return "", err
	}
	if keep > 0 {
		names, err := List(dir)
		if err != nil {
			return path, nil // the write succeeded; pruning is best-effort
		}
		for len(names) > keep {
			os.Remove(filepath.Join(dir, names[0])) //nolint:errcheck // best-effort prune
			names = names[1:]
		}
	}
	return path, nil
}

// List returns the snapshot file names in dir, oldest first.
func List(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if !e.IsDir() && strings.HasPrefix(n, filePrefix) && strings.HasSuffix(n, fileSuffix) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, nil
}

// LoadLatest returns the newest decodable snapshot in dir and its path.
// Snapshots that fail to decode (e.g. a corrupted latest file) are skipped
// in favor of older ones; ErrNoSnapshot is returned when none works, or
// when dir does not exist.
func LoadLatest(dir string) (*Snapshot, string, error) {
	return LoadLatestMatching(dir, nil)
}

// LoadLatestMatching returns the newest snapshot in dir that both decodes
// and passes accept (nil accept passes everything), scanning backwards
// past corrupt or rejected files, so one stale snapshot from a since-
// tweaked config mid-directory doesn't wedge resume. Returns
// ErrNoSnapshot when nothing qualifies or dir does not exist; the
// caller's accept typically returns ErrMismatch for fingerprint checks
// but any non-nil error skips the file.
func LoadLatestMatching(dir string, accept func(*Snapshot) error) (*Snapshot, string, error) {
	names, err := List(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, "", ErrNoSnapshot
		}
		return nil, "", err
	}
	for i := len(names) - 1; i >= 0; i-- {
		path := filepath.Join(dir, names[i])
		s, err := ReadFile(path)
		if err != nil {
			continue
		}
		if accept != nil {
			if err := accept(s); err != nil {
				continue
			}
		}
		return s, path, nil
	}
	return nil, "", ErrNoSnapshot
}
