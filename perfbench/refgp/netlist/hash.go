package netlist

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"
)

// Hash is the canonical SHA-256 content hash of a Design. Two designs with
// equal hashes are the same placement problem: the ecocache uses the hash
// (together with a config fingerprint) as the key under which finished
// placements are stored and served back.
type Hash [32]byte

// String returns the full lowercase hex form (64 characters).
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// Short returns the first 8 bytes in hex, for logs.
func (h Hash) Short() string { return hex.EncodeToString(h[:8]) }

// IsZero reports whether h is the zero hash (no hash computed).
func (h Hash) IsZero() bool { return h == Hash{} }

// ParseHash parses the 64-character hex form produced by String.
func ParseHash(s string) (Hash, error) {
	var h Hash
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(h) {
		return Hash{}, fmt.Errorf("netlist: malformed design hash %q", s)
	}
	copy(h[:], b)
	return h, nil
}

// hashWriter wraps a hash.Hash with fixed-width little-endian primitives so
// every field lands in the digest with an unambiguous binary form.
type hashWriter struct {
	h   hash.Hash
	buf [8]byte
}

func (w *hashWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:], v)
	w.h.Write(w.buf[:])
}

func (w *hashWriter) i64(v int64)   { w.u64(uint64(v)) }
func (w *hashWriter) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *hashWriter) byte(b byte)   { w.h.Write([]byte{b}) }

// ContentHash returns the canonical content hash of the design.
//
// The hash covers exactly the semantic content of the placement problem:
//
//   - the region, target density, and standard-cell rows;
//   - every cell's kind and dimensions, in index order, plus the position of
//     non-movable cells (fixed blockages and terminals shape the problem;
//     movable cells' input positions do not — the placer re-initializes);
//   - every net's weight and pin multiset (owning cell index + pin offsets).
//
// It is deliberately invariant under the non-semantic freedoms of a netlist
// file: the declaration order of nets, the declaration order of pins within
// a net, and cell/net/design names. Cell index order IS significant — cached
// placements are applied back by cell index, so two designs that permute
// their cells are different problems to the cache even if isomorphic.
func (d *Design) ContentHash() Hash {
	top := &hashWriter{h: sha256.New()}
	top.h.Write([]byte("megp-design-hash-v1"))

	// Geometry header.
	top.f64(d.Region.XL)
	top.f64(d.Region.YL)
	top.f64(d.Region.XH)
	top.f64(d.Region.YH)
	top.f64(d.TargetDensity)
	top.i64(int64(len(d.Rows)))
	for _, r := range d.Rows {
		top.f64(r.Y)
		top.f64(r.Height)
		top.f64(r.XL)
		top.f64(r.XH)
		top.f64(r.SiteW)
	}

	// Cells in index order.
	top.i64(int64(len(d.Cells)))
	for i, c := range d.Cells {
		top.byte(byte(c.Kind))
		top.f64(c.W)
		top.f64(c.H)
		if !c.Kind.Moves() {
			top.f64(d.X[i])
			top.f64(d.Y[i])
		}
	}

	// Nets as an order-independent multiset of per-net digests: each net
	// hashes its weight plus its pins sorted by (cell, dx, dy), then the
	// sorted list of net digests feeds the top hash. Permuting net
	// declaration order or pin order within a net cannot change the result.
	digests := make([][sha256.Size]byte, len(d.Nets))
	var pinScratch []Pin
	nw := &hashWriter{h: sha256.New()}
	for e := range d.Nets {
		pins := d.NetPins(e)
		pinScratch = append(pinScratch[:0], pins...)
		sort.Slice(pinScratch, func(a, b int) bool {
			pa, pb := pinScratch[a], pinScratch[b]
			if pa.Cell != pb.Cell {
				return pa.Cell < pb.Cell
			}
			if pa.Dx != pb.Dx {
				return pa.Dx < pb.Dx
			}
			return pa.Dy < pb.Dy
		})
		nw.h.Reset()
		nw.f64(d.Nets[e].Weight)
		nw.i64(int64(len(pinScratch)))
		for _, p := range pinScratch {
			nw.i64(int64(p.Cell))
			nw.f64(p.Dx)
			nw.f64(p.Dy)
		}
		nw.h.Sum(digests[e][:0])
	}
	sort.Slice(digests, func(a, b int) bool {
		return bytes.Compare(digests[a][:], digests[b][:]) < 0
	})
	top.i64(int64(len(digests)))
	for i := range digests {
		top.h.Write(digests[i][:])
	}

	var out Hash
	top.h.Sum(out[:0])
	return out
}
