package wirelength

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/netlist"
	"repro/internal/synth"
)

// goldenDesign is the design of the golden and allocation tests and of
// BenchmarkWirelengthGrad: a synthetic design at its generated random
// placement, with four chunks' worth of nets (netChunk is 256) and non-unit
// net weights.
func goldenDesign(tb testing.TB) *netlist.Design {
	tb.Helper()
	d, err := synth.Generate(synth.Spec{
		Name: "wl-golden", NumMovable: 900, NumPads: 12, NumNets: 1000,
		AvgDegree: 3.8, Utilization: 0.7, TargetDensity: 1, Seed: 31,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if d.NumNets() <= 3*netChunk {
		tb.Fatalf("golden design has %d nets, want more than %d", d.NumNets(), 3*netChunk)
	}
	for e := range d.Nets {
		d.Nets[e].Weight = 0.5 + float64(e%5)*0.3
	}
	return d
}

// gradHash is the SHA-256 of every gradX bits, then every gradY bits,
// little-endian.
func gradHash(gx, gy []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, lane := range [][]float64{gx, gy} {
		for _, v := range lane {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestModelGolden pins every named model's WirelengthGrad bit for bit: the
// value bits and the hash of every gradient bits, at three smoothing values,
// plus the exact TotalHPWL. A rework of how a model evaluates must leave all
// of them unchanged; a change of what a model computes re-pins them on
// purpose. The bits are those of amd64, where math.Exp takes its FMA path on
// CPUs with AVX and FMA.
func TestModelGolden(t *testing.T) {
	d := goldenDesign(t)
	if got, want := math.Float64bits(TotalHPWL(d)), uint64(0x40ec2c93a0b50662); got != want {
		t.Errorf("TotalHPWL bits %#x, want %#x", got, want)
	}
	n := d.NumCells()
	gx := make([]float64, n)
	gy := make([]float64, n)
	for _, tc := range []struct {
		model string
		p     float64
		value uint64
		grad  string
	}{
		{"LSE", 0.5, 0x40ec3591224892da, "348ac2eb05d5b8a98f61aefa2cbb3634e8c704733eb4f7f998fb5494a245d024"},
		{"LSE", 4, 0x40ee29beff32065e, "236e0d5cb412f9e02fda5b07d8621dc181a96cae780c01af7547a44e8b85731c"},
		{"LSE", 40, 0x410b1ff49a1ecf56, "d82ec2b4f7c2365497aec0f84eb2544ca7af22b3fde2f9c334fd7cdbdd30d03d"},
		{"WA", 0.5, 0x40ec23bc8c880d32, "198d83ff58f33df9e5739e76d40ca0505d0d9a4e3a42094fd1a76607b057a556"},
		{"WA", 4, 0x40ea6f0fb23143a0, "6b3c0f5cc07a463036f4b5b0032a97d089377e0c0f4e0b2b02c6ea9bfed2ccc3"},
		{"WA", 40, 0x40cd91852ab113ea, "32990f9f8add5830e4eee2ee404a9818e65853b2f5eb9dfa864d4e09c11a133d"},
		{"BiG_CHKS", 0.5, 0x40ec5941a439784a, "ddd052568a57bfc4b2d05c15a7333c76bb7881fdd57debe598b6f86b57009d63"},
		{"BiG_CHKS", 4, 0x40f0fd5fc221de28, "c91e3ad6385f2c18a74d60e58218132090b847b6df6425595acc118670bf58c0"},
		{"BiG_CHKS", 40, 0x41149dc6d107f494, "b609b487821ec4ad6dc191ed6c8b622340f4b0acef19fb21edd64f2f7dde7c60"},
		{"BiG_WA", 0.5, 0x40ec23c1ae52d4fe, "70b660d1046ccf442c852ad9288437ef891869d79f604239a9f6ca89e1c34669"},
		{"BiG_WA", 4, 0x40ea70de405d4498, "3f8b27159d4ff911defe1a2a59a208cdaabc23d9cafcc055ef1b848b5907041c"},
		{"BiG_WA", 40, 0x40cab98dfb55b358, "016f2027ff5c0c1646866f0a00b54da50516e70b1066ca656cf5ff262cf38eb0"},
		{"ME", 0.5, 0x40ec2dedcdb3a408, "2a0b943ff63173523a205684850387f061c7b45eb7e2f37be7db8fd6c54d884c"},
		{"ME", 4, 0x40ec7fd7eb38b430, "4b51ca56d42b0fb87b78f166aa99368d7eed414814d920fcb97663747b4b881b"},
		{"ME", 40, 0x40f97779c1198454, "39cf9c871c65109d35e18215e4f360e14042c3d3cf710a3c1e65e0935bc17f05"},
		{"HPWL", 0.5, 0x40ec2c93a0b50663, "fa257a4ac74e4c90710f6a873201e3a715cba5a70916480b4e601673df14c10a"},
		{"HPWL", 4, 0x40ec2c93a0b50663, "fa257a4ac74e4c90710f6a873201e3a715cba5a70916480b4e601673df14c10a"},
		{"HPWL", 40, 0x40ec2c93a0b50663, "fa257a4ac74e4c90710f6a873201e3a715cba5a70916480b4e601673df14c10a"},
	} {
		m, err := ByName(tc.model)
		if err != nil {
			t.Fatal(err)
		}
		v := m.WirelengthGrad(d, tc.p, gx, gy)
		if got, h := math.Float64bits(v), gradHash(gx, gy); got != tc.value || h != tc.grad {
			t.Errorf("{%q, %v, %#x, %q}, want value bits %#x, gradient %s",
				tc.model, tc.p, got, h, tc.value, tc.grad)
		}
	}
}

// TestWirelengthGradAllocFree pins the zero-allocation steady state of every
// named model: once a first call has grown its lanes, neither a gradient
// call nor a value-only call allocates.
func TestWirelengthGradAllocFree(t *testing.T) {
	d := goldenDesign(t)
	gx := make([]float64, d.NumCells())
	gy := make([]float64, d.NumCells())
	for _, name := range append(AllModelNames(), "BiG_WA", "HPWL") {
		m, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		m.WirelengthGrad(d, 4, gx, gy)
		if n := testing.AllocsPerRun(5, func() { m.WirelengthGrad(d, 4, gx, gy) }); n != 0 {
			t.Errorf("%s: %v allocations per gradient call, want 0", name, n)
		}
		if n := testing.AllocsPerRun(5, func() { m.WirelengthGrad(d, 4, nil, nil) }); n != 0 {
			t.Errorf("%s: %v allocations per value-only call, want 0", name, n)
		}
	}
}

// BenchmarkWirelengthGrad times one whole-design value and gradient
// evaluation of every named model on the golden design.
func BenchmarkWirelengthGrad(b *testing.B) {
	d := goldenDesign(b)
	gx := make([]float64, d.NumCells())
	gy := make([]float64, d.NumCells())
	for _, name := range append(AllModelNames(), "BiG_WA", "HPWL") {
		b.Run(name, func(b *testing.B) {
			m, err := ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			m.WirelengthGrad(d, 4, gx, gy)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.WirelengthGrad(d, 4, gx, gy)
			}
		})
	}
}
