// Package checkpoint provides crash-safe snapshots of a global placement
// run: a versioned, CRC-checksummed binary codec for the full optimizer
// state (positions, Nesterov/BB history, density weight, smoothing schedule
// position, iteration counter) plus a config fingerprint that refuses to
// resume under a mismatched netlist, grid, model, or optimizer setup.
//
// A run restored from a snapshot finishes with bit-identical positions and
// HPWL to one that was never interrupted — the codec therefore captures the
// state exactly (float bit patterns, not decimal round-trips).
//
// Framing and the atomic, fsynced file write are internal/durable's, so a
// crash mid-write never corrupts the previous snapshot; WriteRotating keeps
// the last K snapshots and LoadLatest picks the newest decodable one.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/durable"
	"repro/internal/optimizer"
)

// Magic identifies a snapshot file; Version is the current format revision.
// Version 3 dropped the worker count from the fingerprint, and version 4
// added the smoothing schedule and the preconditioner to it; files of older
// versions fail Decode with ErrVersion, so resume scans skip them and the
// run cold-starts.
const (
	Magic   = "MEGPCKPT"
	Version = 4
)

// Typed decode failures. Every malformed input maps onto one of these
// (wrapped with detail); Decode never panics.
var (
	ErrBadMagic   = durable.ErrBadMagic
	ErrVersion    = durable.ErrVersion
	ErrTruncated  = durable.ErrTruncated
	ErrChecksum   = durable.ErrChecksum
	ErrCorrupt    = errors.New("checkpoint: corrupt snapshot payload")
	ErrMismatch   = errors.New("checkpoint: config fingerprint mismatch")
	ErrNoSnapshot = errors.New("checkpoint: no usable snapshot found")
)

// Fingerprint pins a snapshot to the exact run configuration it came from.
// Resume is refused unless every field matches: bit-exact resume holds only
// for the same netlist, grid, model, optimizer, smoothing schedule and
// preconditioner. The deprecated worker count is absent because the engine
// ignores it.
type Fingerprint struct {
	Design     string
	NumCells   int
	NumNets    int
	NumPins    int
	NumMovable int
	NumFillers int
	GridX      int
	GridY      int
	Model      string
	Optimizer  string
	Seed       int64
	// TargetDensity participates because it shapes fillers and overflow.
	TargetDensity float64
	// Region bounds guard against a same-named design with different die.
	RegionXL, RegionYL, RegionXH, RegionYH float64
	// FreezeHash pins the partial-release mask of an ECO warm start (0 for
	// a full run). A snapshot taken with some cells frozen cannot resume a
	// run that releases a different set: the packed position vector only
	// covers released cells.
	FreezeHash uint64
	// Schedule is the smoothing schedule the run resolved, "tangent" or
	// "gamma", and Precondition whether it preconditions the gradient:
	// both change the trajectory.
	Schedule     string
	Precondition bool
}

// Match reports whether other is the same run setup, returning an
// ErrMismatch-wrapped error naming the first differing field.
func (f Fingerprint) Match(other Fingerprint) error {
	type field struct {
		name string
		a, b any
	}
	fields := []field{
		{"design", f.Design, other.Design},
		{"cells", f.NumCells, other.NumCells},
		{"nets", f.NumNets, other.NumNets},
		{"pins", f.NumPins, other.NumPins},
		{"movable", f.NumMovable, other.NumMovable},
		{"fillers", f.NumFillers, other.NumFillers},
		{"grid_x", f.GridX, other.GridX},
		{"grid_y", f.GridY, other.GridY},
		{"model", f.Model, other.Model},
		{"optimizer", f.Optimizer, other.Optimizer},
		{"seed", f.Seed, other.Seed},
		{"target_density", f.TargetDensity, other.TargetDensity},
		{"region_xl", f.RegionXL, other.RegionXL},
		{"region_yl", f.RegionYL, other.RegionYL},
		{"region_xh", f.RegionXH, other.RegionXH},
		{"region_yh", f.RegionYH, other.RegionYH},
		{"freeze_mask", f.FreezeHash, other.FreezeHash},
		{"schedule", f.Schedule, other.Schedule},
		{"precondition", f.Precondition, other.Precondition},
	}
	for _, fl := range fields {
		if fl.a != fl.b {
			return fmt.Errorf("%w: %s differs (snapshot %v, run %v)", ErrMismatch, fl.name, fl.b, fl.a)
		}
	}
	return nil
}

// LambdaState is the density-weight updater's internal state (Eq. 15).
type LambdaState struct {
	Lambda float64
	Alpha  float64
	D0     float64
	Primed bool
}

// TrajectoryPoint is one recorded sample of a global placement run: exact
// HPWL against density overflow (the Fig. 3 curve). placer.TrajectoryPoint
// is an alias of it.
type TrajectoryPoint struct {
	Iter      int
	Overflow  float64
	HPWL      float64
	Objective float64
	Param     float64 // smoothing parameter (gamma or t) from Overflow; the next step's gradient uses it
	Lambda    float64
}

// Snapshot is the full resumable state of a global placement run, captured
// at an iteration boundary: everything the main loop reads at the top of
// iteration Iter.
type Snapshot struct {
	Fingerprint Fingerprint
	// Iter is the number of completed iterations — the index of the next
	// iteration to execute on resume.
	Iter int
	// Evaluations counts objective evaluations so far (incl. backtracking).
	Evaluations int
	// Param is the smoothing parameter (gamma or t), Lambda the density
	// weight, Overflow and LastEnergy the values left by the last eval.
	Param      float64
	Lambda     float64
	Overflow   float64
	LastEnergy float64
	// LambdaSched is the Eq. 15 updater state.
	LambdaSched LambdaState
	// Pos is the full packed position vector [x..., y...] including filler
	// cells (length 2*(movable+fillers)).
	Pos []float64
	// Opt is the optimizer's internal state (iterate + BB history).
	Opt optimizer.State
	// Trajectory holds the points recorded so far, so a resumed run's
	// final trajectory equals the uninterrupted one.
	Trajectory []TrajectoryPoint
	// SetupSeconds and LoopSeconds are the wall-clock time already spent,
	// carried forward into the resumed run's Result.
	SetupSeconds float64
	LoopSeconds  float64
}

// --- binary encoding -------------------------------------------------------

// enc accumulates the payload; all integers are little-endian.
type enc struct{ b []byte }

func (e *enc) u32(v uint32)  { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64)  { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) i64(v int64)   { e.u64(uint64(v)) }
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *enc) boolean(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}
func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}
func (e *enc) vec(v []float64) {
	e.u64(uint64(len(v)))
	for _, x := range v {
		e.f64(x)
	}
}

// dec reads the payload back, returning ErrTruncated/ErrCorrupt instead of
// panicking on any malformed input.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.b) || d.off+n < d.off {
		d.fail(ErrTruncated)
		return nil
	}
	p := d.b[d.off : d.off+n]
	d.off += n
	return p
}

func (d *dec) u32() uint32 {
	p := d.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

func (d *dec) u64() uint64 {
	p := d.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

func (d *dec) i64() int64   { return int64(d.u64()) }
func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *dec) boolean() bool {
	p := d.take(1)
	if p == nil {
		return false
	}
	switch p[0] {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail(fmt.Errorf("%w: invalid bool byte %d", ErrCorrupt, p[0]))
		return false
	}
}

// maxStringLen bounds decoded strings (names only; nothing legitimate is
// close to this).
const maxStringLen = 1 << 16

func (d *dec) str() string {
	n := d.u32()
	if d.err != nil {
		return ""
	}
	if n > maxStringLen {
		d.fail(fmt.Errorf("%w: string length %d exceeds limit", ErrCorrupt, n))
		return ""
	}
	return string(d.take(int(n)))
}

func (d *dec) vec() []float64 {
	n := d.u64()
	if d.err != nil {
		return nil
	}
	// Each element needs 8 payload bytes; bounding by the remaining bytes
	// prevents huge allocations from a corrupted length.
	if n > uint64(len(d.b)-d.off)/8 {
		d.fail(fmt.Errorf("%w: vector length %d exceeds payload", ErrCorrupt, n))
		return nil
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = d.f64()
	}
	return v
}

// intCount bounds decoded element counts for small collections.
func (d *dec) count(limit int, what string) int {
	n := d.u64()
	if d.err != nil {
		return 0
	}
	if n > uint64(limit) {
		d.fail(fmt.Errorf("%w: %s count %d exceeds limit %d", ErrCorrupt, what, n, limit))
		return 0
	}
	return int(n)
}

// Encode serializes the snapshot in a durable.Seal frame.
func Encode(s *Snapshot) []byte {
	var p enc
	f := s.Fingerprint
	p.str(f.Design)
	p.i64(int64(f.NumCells))
	p.i64(int64(f.NumNets))
	p.i64(int64(f.NumPins))
	p.i64(int64(f.NumMovable))
	p.i64(int64(f.NumFillers))
	p.i64(int64(f.GridX))
	p.i64(int64(f.GridY))
	p.str(f.Model)
	p.str(f.Optimizer)
	p.i64(f.Seed)
	p.f64(f.TargetDensity)
	p.f64(f.RegionXL)
	p.f64(f.RegionYL)
	p.f64(f.RegionXH)
	p.f64(f.RegionYH)
	p.u64(f.FreezeHash)
	p.str(f.Schedule)
	p.boolean(f.Precondition)

	p.i64(int64(s.Iter))
	p.i64(int64(s.Evaluations))
	p.f64(s.Param)
	p.f64(s.Lambda)
	p.f64(s.Overflow)
	p.f64(s.LastEnergy)
	p.f64(s.LambdaSched.Lambda)
	p.f64(s.LambdaSched.Alpha)
	p.f64(s.LambdaSched.D0)
	p.boolean(s.LambdaSched.Primed)
	p.vec(s.Pos)

	p.str(s.Opt.Kind)
	p.vec(s.Opt.Scalars)
	p.u64(uint64(len(s.Opt.Ints)))
	for _, v := range s.Opt.Ints {
		p.i64(v)
	}
	p.u64(uint64(len(s.Opt.Bools)))
	for _, v := range s.Opt.Bools {
		p.boolean(v)
	}
	p.u64(uint64(len(s.Opt.Vectors)))
	for _, v := range s.Opt.Vectors {
		p.vec(v)
	}

	p.u64(uint64(len(s.Trajectory)))
	for _, t := range s.Trajectory {
		p.i64(int64(t.Iter))
		p.f64(t.Overflow)
		p.f64(t.HPWL)
		p.f64(t.Objective)
		p.f64(t.Param)
		p.f64(t.Lambda)
	}
	p.f64(s.SetupSeconds)
	p.f64(s.LoopSeconds)
	return durable.Seal(Magic, Version, p.b)
}

// Decode parses a snapshot, validating magic, version, length, and checksum
// before touching the payload. All failures return typed errors.
func Decode(data []byte) (*Snapshot, error) {
	payload, err := durable.Open(data, Magic, Version)
	if err != nil {
		return nil, err
	}
	d := &dec{b: payload}
	s := &Snapshot{}
	f := &s.Fingerprint
	f.Design = d.str()
	f.NumCells = int(d.i64())
	f.NumNets = int(d.i64())
	f.NumPins = int(d.i64())
	f.NumMovable = int(d.i64())
	f.NumFillers = int(d.i64())
	f.GridX = int(d.i64())
	f.GridY = int(d.i64())
	f.Model = d.str()
	f.Optimizer = d.str()
	f.Seed = d.i64()
	f.TargetDensity = d.f64()
	f.RegionXL = d.f64()
	f.RegionYL = d.f64()
	f.RegionXH = d.f64()
	f.RegionYH = d.f64()
	f.FreezeHash = d.u64()
	f.Schedule = d.str()
	f.Precondition = d.boolean()

	s.Iter = int(d.i64())
	s.Evaluations = int(d.i64())
	s.Param = d.f64()
	s.Lambda = d.f64()
	s.Overflow = d.f64()
	s.LastEnergy = d.f64()
	s.LambdaSched.Lambda = d.f64()
	s.LambdaSched.Alpha = d.f64()
	s.LambdaSched.D0 = d.f64()
	s.LambdaSched.Primed = d.boolean()
	s.Pos = d.vec()

	s.Opt.Kind = d.str()
	s.Opt.Scalars = d.vec()
	if n := d.count(64, "optimizer int"); n > 0 {
		s.Opt.Ints = make([]int64, n)
		for i := range s.Opt.Ints {
			s.Opt.Ints[i] = d.i64()
		}
	}
	if n := d.count(64, "optimizer bool"); n > 0 {
		s.Opt.Bools = make([]bool, n)
		for i := range s.Opt.Bools {
			s.Opt.Bools[i] = d.boolean()
		}
	}
	if n := d.count(64, "optimizer vector"); n > 0 {
		s.Opt.Vectors = make([][]float64, n)
		for i := range s.Opt.Vectors {
			s.Opt.Vectors[i] = d.vec()
		}
	}

	// Each trajectory point takes 48 payload bytes.
	if n := d.count((len(d.b)-d.off)/48+1, "trajectory point"); n > 0 && d.err == nil {
		s.Trajectory = make([]TrajectoryPoint, n)
		for i := range s.Trajectory {
			s.Trajectory[i] = TrajectoryPoint{
				Iter:      int(d.i64()),
				Overflow:  d.f64(),
				HPWL:      d.f64(),
				Objective: d.f64(),
				Param:     d.f64(),
				Lambda:    d.f64(),
			}
		}
	}
	s.SetupSeconds = d.f64()
	s.LoopSeconds = d.f64()

	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.b) {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(d.b)-d.off)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// validate applies semantic sanity checks after a structurally clean decode.
func (s *Snapshot) validate() error {
	if s.Iter < 0 || s.Evaluations < 0 {
		return fmt.Errorf("%w: negative iteration counters", ErrCorrupt)
	}
	f := s.Fingerprint
	if f.NumMovable < 0 || f.NumFillers < 0 {
		return fmt.Errorf("%w: negative fingerprint counts", ErrCorrupt)
	}
	if want := 2 * (f.NumMovable + f.NumFillers); len(s.Pos) != want {
		return fmt.Errorf("%w: position vector has %d entries, fingerprint implies %d", ErrCorrupt, len(s.Pos), want)
	}
	return nil
}
