package checkpoint

import (
	"fmt"

	"repro/internal/durable"
)

// ResultMagic identifies a cached placement-result file; ResultVersion is the
// current format revision. Results reuse the snapshot codec's framing (magic,
// version, payload length, payload, CRC-32C) and bounded decoder, but carry a
// finished placement rather than mid-run optimizer state: the ecocache stores
// one of these per (design hash, config fingerprint) key.
const (
	ResultMagic   = "MEGPRSLT"
	ResultVersion = 1
)

// PlacementResult is a finished placement worth serving from cache: the final
// cell positions plus the headline metrics of the run that produced them.
type PlacementResult struct {
	// DesignHash is the canonical netlist content hash (see netlist.Hash)
	// and ConfigKey the semantic config fingerprint the run used. Together
	// they form the cache key; both are stored in the payload so an entry
	// renamed or copied on disk still self-identifies.
	DesignHash [32]byte
	ConfigKey  uint64
	// HPWL and Overflow are the final metrics of the originating run.
	HPWL     float64
	Overflow float64
	// Iterations is the number of GP iterations the run took and Seconds
	// its wall-clock cost — the baseline a warm start is measured against.
	Iterations int
	Seconds    float64
	// X, Y are lower-left cell positions for every cell, in index order
	// (the same order ContentHash pins down).
	X, Y []float64
}

// EncodeResult serializes the result with the same framing as Encode.
func EncodeResult(r *PlacementResult) []byte {
	var p enc
	p.b = append(p.b, r.DesignHash[:]...)
	p.u64(r.ConfigKey)
	p.f64(r.HPWL)
	p.f64(r.Overflow)
	p.i64(int64(r.Iterations))
	p.f64(r.Seconds)
	p.vec(r.X)
	p.vec(r.Y)
	return durable.Seal(ResultMagic, ResultVersion, p.b)
}

// DecodeResult parses a cached placement result, validating magic, version,
// length, and checksum before the payload. Never panics; all failures map to
// the package's typed errors.
func DecodeResult(data []byte) (*PlacementResult, error) {
	payload, err := durable.Open(data, ResultMagic, ResultVersion)
	if err != nil {
		return nil, err
	}
	d := &dec{b: payload}
	r := &PlacementResult{}
	copy(r.DesignHash[:], d.take(len(r.DesignHash)))
	r.ConfigKey = d.u64()
	r.HPWL = d.f64()
	r.Overflow = d.f64()
	r.Iterations = int(d.i64())
	r.Seconds = d.f64()
	r.X = d.vec()
	r.Y = d.vec()

	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.b) {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(d.b)-d.off)
	}
	if len(r.X) != len(r.Y) {
		return nil, fmt.Errorf("%w: X/Y length mismatch (%d vs %d)", ErrCorrupt, len(r.X), len(r.Y))
	}
	if r.Iterations < 0 {
		return nil, fmt.Errorf("%w: negative iteration count", ErrCorrupt)
	}
	return r, nil
}
