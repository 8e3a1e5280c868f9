package netlist

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"slices"
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
func (w *hashWriter) byte(b byte)   { w.h.Write(append(w.buf[:0], b)) }

// netForm writes a net in its one canonical binary form: the weight, the
// degree, then the pins sorted by (cell key, dx, dy), each field 8 bytes
// little-endian. ContentHash digests these bytes and Diff compares them, so
// the two agree on when two nets are the same.
type netForm struct {
	pins []keyedPin
	buf  []byte
}

// keyedPin is a pin with its cell index mapped to the key it sorts by.
type keyedPin struct {
	cell   int64
	dx, dy float64
}

// newNetForm sizes the scratch for d's largest net, so encoding any net of d
// allocates nothing.
func newNetForm(d *Design) *netForm {
	maxDeg := 0
	for e := range d.Nets {
		maxDeg = max(maxDeg, d.NetDegree(e))
	}
	return &netForm{pins: make([]keyedPin, 0, maxDeg), buf: make([]byte, 0, 8*(2+3*maxDeg))}
}

// encode returns net e of d in canonical form, valid until the next call.
// key maps d's cell indices to pin keys; nil keys each pin by its own cell
// index.
func (f *netForm) encode(d *Design, e int, key []int64) []byte {
	f.pins = f.pins[:0]
	for _, p := range d.NetPins(e) {
		k := int64(p.Cell)
		if key != nil {
			k = key[p.Cell]
		}
		f.pins = append(f.pins, keyedPin{cell: k, dx: p.Dx, dy: p.Dy})
	}
	slices.SortFunc(f.pins, comparePins)
	b := binary.LittleEndian.AppendUint64(f.buf[:0], math.Float64bits(d.Nets[e].Weight))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(f.pins)))
	for _, p := range f.pins {
		b = binary.LittleEndian.AppendUint64(b, uint64(p.cell))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.dx))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.dy))
	}
	f.buf = b
	return b
}

// comparePins orders pins by key, then by offsets as numbers, then by the
// offsets' bits: +0 and -0 are equal numbers with different encodings, and
// the bits keep their order from depending on declaration order.
func comparePins(a, b keyedPin) int {
	if a.cell != b.cell {
		return cmp.Compare(a.cell, b.cell)
	}
	if a.dx != b.dx || a.dy != b.dy {
		if a.dx < b.dx || a.dx == b.dx && a.dy < b.dy {
			return -1
		}
		return 1
	}
	return cmp.Or(cmp.Compare(math.Float64bits(a.dx), math.Float64bits(b.dx)),
		cmp.Compare(math.Float64bits(a.dy), math.Float64bits(b.dy)))
}

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

	// Nets as an order-independent multiset: each net's canonical form is
	// digested, and the sorted digests feed the top hash. Permuting net
	// declaration order or pin order within a net cannot change the result.
	digests := make([][sha256.Size]byte, len(d.Nets))
	f := newNetForm(d)
	for e := range d.Nets {
		digests[e] = sha256.Sum256(f.encode(d, e, nil))
	}
	slices.SortFunc(digests, func(a, b [sha256.Size]byte) int { return bytes.Compare(a[:], b[:]) })
	top.i64(int64(len(digests)))
	for i := range digests {
		top.h.Write(digests[i][:])
	}

	var out Hash
	top.h.Sum(out[:0])
	return out
}
