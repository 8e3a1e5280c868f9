package detailed

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/legalize"
	"repro/internal/netlist"
	"repro/internal/synth"
)

// goldenInput is the legal input of every golden case: a synthetic design
// with movable macros and fixed blocks, legalized straight from its
// generated positions, so the goldens pin detailed placement and not GP.
func goldenInput(t *testing.T) *netlist.Design {
	t.Helper()
	d, err := synth.Generate(synth.Spec{
		Name:           "dp-golden",
		NumMovable:     600,
		NumMacros:      2,
		NumPads:        8,
		NumFixedBlocks: 2,
		NumNets:        675,
		AvgDegree:      3.8,
		Utilization:    0.6,
		TargetDensity:  1.0,
		Seed:           21,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := legalize.Abacus(d, legalize.Options{}); err != nil {
		t.Fatal(err)
	}
	return d
}

// positionsHash is the SHA-256 of every cell's X bits, then every Y bits,
// little-endian.
func positionsHash(d *netlist.Design) string {
	h := sha256.New()
	var b [8]byte
	for _, lane := range [][]float64{d.X, d.Y} {
		for _, v := range lane {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestDetailedGolden pins the output of Place bit for bit: the DPWL bits,
// the hash of every position's bits and the accepted-move counts, at the
// default options, with independent-set matching and with the widest
// reorder window. A rework of the passes' bookkeeping must leave all three
// unchanged; a change of the moves themselves re-pins them on purpose.
func TestDetailedGolden(t *testing.T) {
	const input = "9f6915904791b66c252cbef55badb8625dccd42ff744a860e74cdc95606e1212"
	for _, tc := range []struct {
		name                         string
		opt                          Options
		hpwl                         uint64
		pos                          string
		moves, swaps, reorders, isms int
	}{
		{name: "default", opt: Options{},
			hpwl: 0x40ce6f027b139827, pos: "3a8028578ab801af2b4afd5221a67aafe64391cd55f6a4927cf28ca20e49785e",
			moves: 197, swaps: 656, reorders: 549},
		{name: "ism", opt: Options{UseISM: true},
			hpwl: 0x40cdc6c6bdb90bdf, pos: "d3b750b86ae74ff4ecffe60767062c8dd70d54268cb1a14bfc271b88ef2b59e8",
			moves: 196, swaps: 625, reorders: 550, isms: 145},
		{name: "window5", opt: Options{WindowSize: 5},
			hpwl: 0x40cde33d80bf187d, pos: "06bc49f6e90a904ab15383d7ad02d9949fb6ecd2fe34347ec638f86261063900",
			moves: 187, swaps: 659, reorders: 515},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := goldenInput(t)
			if got := positionsHash(d); got != input {
				t.Fatalf("input placement hash %s, want %s: synth or legalize changed, not detailed placement", got, input)
			}
			res, err := Place(d, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := legalize.CheckLegal(d); err != nil {
				t.Fatalf("output illegal: %v", err)
			}
			got := positionsHash(d)
			if math.Float64bits(res.HPWL) != tc.hpwl || got != tc.pos {
				t.Errorf("DPWL %v (bits %#x), positions %s; want bits %#x, positions %s",
					res.HPWL, math.Float64bits(res.HPWL), got, tc.hpwl, tc.pos)
			}
			if res.Moves != tc.moves || res.Swaps != tc.swaps || res.Reorders != tc.reorders || res.ISMBatches != tc.isms {
				t.Errorf("moves/swaps/reorders/ism %d/%d/%d/%d, want %d/%d/%d/%d",
					res.Moves, res.Swaps, res.Reorders, res.ISMBatches, tc.moves, tc.swaps, tc.reorders, tc.isms)
			}
		})
	}
}
