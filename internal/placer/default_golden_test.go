package placer

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/wirelength"
)

// TestDefaultConfigGolden pins whole global placement runs at DefaultConfig
// bit for bit, on one small design with macros: the HPWL and overflow bits,
// the iteration and evaluation counts, and a SHA-256 digest of the final
// position bits. The cases cover the paper's tangent schedule (ME), the
// ePlace gamma schedule (WA, and ME forced onto it) and the Jacobi
// preconditioner. Every case converges below the default stop overflow well
// before the default iteration cap, so a change to a default the runs never
// reach, or a refactor of how the defaults are filled in, leaves every line
// unchanged.
func TestDefaultConfigGolden(t *testing.T) {
	for _, tc := range []struct {
		name, model string
		mut         func(*Config)
		want        string
	}{
		{"ME", "ME", func(*Config) {},
			"hpwl=0x40b317fe7294ba3a overflow=0x3fb1b8bcd5435ad3 iters=546 evals=1101 pos=bd50697b5c73b920c91868494143ed05b11f7dc139d5bf8005c4c1b1b3819329"},
		{"WA", "WA", func(*Config) {},
			"hpwl=0x40b2dd1fcad34e3d overflow=0x3fb1d66b482b2770 iters=487 evals=981 pos=18b08eb571648cd1583f4ec142173b852249ef94452d24fa8ac29d8635316e39"},
		{"ME/gamma", "ME", func(c *Config) { c.Schedule = "gamma" },
			"hpwl=0x40b2f93da99c606c overflow=0x3fb1cc26d6517cfe iters=485 evals=984 pos=98920620c357ae35f5476bf20434491b58a14f9e1050088deb61e67f66e68b1b"},
		{"ME/precondition", "ME", func(c *Config) { c.Precondition = true },
			"hpwl=0x40b3119841407a9b overflow=0x3fb1ca28dfd6b31c iters=533 evals=1133 pos=32e7793dd1e09ff96946a7257faba5b7081221f728f930807607933bfa699581"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := wirelength.ByName(tc.model)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig(m)
			tc.mut(&cfg)
			d := testDesign(t, 400, 2)
			res, err := Place(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("hpwl=%#x overflow=%#x iters=%d evals=%d pos=%s",
				math.Float64bits(res.HPWL), math.Float64bits(res.Overflow),
				res.Iterations, res.Evaluations, bitsDigest(d.X, d.Y))
			if got != tc.want {
				t.Errorf("got  %s\nwant %s", got, tc.want)
			}
		})
	}
}
