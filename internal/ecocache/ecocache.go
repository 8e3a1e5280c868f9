// Package ecocache is the serving fast path for resubmitted placement jobs:
// a durable, size-bounded cache of finished placements keyed by (design
// content hash, config fingerprint), plus the warm-start planner that turns a
// near-hit — a small netlist delta against a cached parent — into a partial
// release for the placer (parent positions kept, only the delta's blast
// region unfrozen).
//
// Entries are one file each in the cache directory, written atomically
// (durable.WriteFile) in the checkpoint result codec, so a crash mid-write
// never corrupts an entry and a daemon restart recovers the cache by scanning
// the directory. Entries are not fsynced: they survive kill -9, and one that
// a power loss damages fails its CRC-32C and is dropped on read, costing one
// cold run. Eviction is LRU over a logical clock seeded from file mtimes,
// bounded by both entry count and total bytes.
package ecocache

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/durable"
	"repro/internal/netlist"
)

// Key identifies one cached placement: the canonical design hash plus the
// semantic config fingerprint of the run that produced it.
type Key struct {
	Design netlist.Hash
	Config uint64
}

// fileName is the on-disk name of an entry: design hash then config key, both
// hex, joined so a directory listing reconstructs the full key.
func (k Key) fileName() string {
	return fmt.Sprintf("%s-%016x.place", k.Design.String(), k.Config)
}

// parseFileName inverts fileName; ok is false for foreign files.
func parseFileName(name string) (Key, bool) {
	base, found := strings.CutSuffix(name, ".place")
	if !found {
		return Key{}, false
	}
	dot := strings.LastIndexByte(base, '-')
	if dot != 64 || len(base) != 64+1+16 {
		return Key{}, false
	}
	h, err := netlist.ParseHash(base[:64])
	if err != nil {
		return Key{}, false
	}
	var cfg uint64
	if _, err := fmt.Sscanf(base[65:], "%016x", &cfg); err != nil {
		return Key{}, false
	}
	return Key{Design: h, Config: cfg}, true
}

// Options bounds the cache. Zero values select the defaults.
type Options struct {
	// MaxEntries caps the number of cached placements (default 256).
	MaxEntries int
	// MaxBytes caps the total size of entry files (default 256 MiB).
	MaxBytes int64
}

func (o Options) withDefaults() Options {
	if o.MaxEntries <= 0 {
		o.MaxEntries = 256
	}
	if o.MaxBytes <= 0 {
		o.MaxBytes = 256 << 20
	}
	return o
}

// entry is the in-memory index record for one cached file.
type entry struct {
	size int64
	used int64 // logical LRU clock; larger = more recent
}

// Cache is a durable placement-result cache. All methods are safe for
// concurrent use.
type Cache struct {
	dir  string
	opts Options

	mu      sync.Mutex
	entries map[Key]*entry
	bytes   int64
	clock   int64
}

// Open loads (or creates) the cache rooted at dir, recovering the index from
// the files already present and deleting the temp files of interrupted Puts.
// Other file names are ignored; undecodable entries are dropped on first Get.
func Open(dir string, opts Options) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ecocache: %w", err)
	}
	c := &Cache{dir: dir, opts: opts.withDefaults(), entries: make(map[Key]*entry)}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("ecocache: %w", err)
	}
	type seeded struct {
		key Key
		e   *entry
		mod time.Time
	}
	var found []seeded
	for _, de := range des {
		if de.IsDir() {
			continue
		}
		// Entry names are hex, so a hidden file is a Put's temp file
		// (durable.WriteFile's, or ".put-*" from earlier builds).
		if strings.HasPrefix(de.Name(), ".") {
			os.Remove(filepath.Join(dir, de.Name())) //nolint:errcheck // best-effort cleanup
			continue
		}
		key, ok := parseFileName(de.Name())
		if !ok {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		found = append(found, seeded{key, &entry{size: info.Size()}, info.ModTime()})
	}
	// Seed the LRU clock from mtimes: oldest file gets the smallest tick.
	sort.Slice(found, func(a, b int) bool { return found[a].mod.Before(found[b].mod) })
	for _, s := range found {
		c.clock++
		s.e.used = c.clock
		c.entries[s.key] = s.e
		c.bytes += s.e.size
	}
	c.mu.Lock()
	c.evictLocked()
	c.mu.Unlock()
	return c, nil
}

// Get returns the cached placement for key, or nil when absent. A file that
// fails to decode (truncation, corruption, foreign version) is removed and
// reported as a miss — the cache never serves a damaged placement.
func (c *Cache) Get(key Key) *checkpoint.PlacementResult {
	c.mu.Lock()
	e, ok := c.entries[key]
	if ok {
		c.clock++
		e.used = c.clock
	}
	c.mu.Unlock()
	if !ok {
		return nil
	}
	path := filepath.Join(c.dir, key.fileName())
	data, err := os.ReadFile(path)
	if err == nil {
		var r *checkpoint.PlacementResult
		if r, err = checkpoint.DecodeResult(data); err == nil {
			// Touch the file so the durable LRU order survives a restart.
			now := time.Now()
			os.Chtimes(path, now, now) //nolint:errcheck // best-effort
			return r
		}
	}
	c.mu.Lock()
	c.dropLocked(key)
	c.mu.Unlock()
	return nil
}

// Put stores a placement under key, atomically but without fsync (see the
// package comment), and evicts past the bounds.
func (c *Cache) Put(key Key, r *checkpoint.PlacementResult) error {
	data := checkpoint.EncodeResult(r)
	if err := durable.WriteFile(filepath.Join(c.dir, key.fileName()), data, false); err != nil {
		return fmt.Errorf("ecocache: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[key]; ok {
		c.bytes -= old.size
	}
	c.clock++
	c.entries[key] = &entry{size: int64(len(data)), used: c.clock}
	c.bytes += int64(len(data))
	c.evictLocked()
	return nil
}

// dropLocked removes one entry and its file. Caller holds c.mu.
func (c *Cache) dropLocked(key Key) {
	if e, ok := c.entries[key]; ok {
		c.bytes -= e.size
		delete(c.entries, key)
		os.Remove(filepath.Join(c.dir, key.fileName())) //nolint:errcheck // best-effort
	}
}

// evictLocked drops least-recently-used entries until both bounds hold.
// Caller holds c.mu.
func (c *Cache) evictLocked() {
	for len(c.entries) > c.opts.MaxEntries || c.bytes > c.opts.MaxBytes {
		var victim Key
		oldest := int64(1<<63 - 1)
		for k, e := range c.entries {
			if e.used < oldest {
				oldest = e.used
				victim = k
			}
		}
		if oldest == 1<<63-1 {
			return
		}
		c.dropLocked(victim)
	}
}

// Options returns the cache's bounds, defaults filled in.
func (c *Cache) Options() Options { return c.opts }

// Stats reports the cache's current footprint.
type Stats struct {
	Entries int
	Bytes   int64
}

// Stats returns the current entry count and total stored bytes.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Entries: len(c.entries), Bytes: c.bytes}
}
