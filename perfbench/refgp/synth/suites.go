package synth

import (
	"fmt"
	"math"
)

// ContestDesign records the published statistics of one contest benchmark
// (Table I of the paper).
type ContestDesign struct {
	Name    string
	Movable int
	Fixed   int
	Nets    int
	Pins    int
	// Macros marks designs with movable macros (the paper highlights
	// newblue1, whose large movable macros drive its 5.4% gain).
	Macros int
}

// AvgDegree returns pins per net.
func (c ContestDesign) AvgDegree() float64 {
	return float64(c.Pins) / float64(c.Nets)
}

// ISPD2006 lists the ISPD2006 contest suite exactly as in Table I.
var ISPD2006 = []ContestDesign{
	{Name: "adaptec5", Movable: 842482, Fixed: 646, Nets: 867798, Pins: 3433359},
	{Name: "newblue1", Movable: 330137, Fixed: 337, Nets: 338901, Pins: 1223165, Macros: 64},
	{Name: "newblue2", Movable: 440239, Fixed: 1277, Nets: 465219, Pins: 1761069},
	{Name: "newblue3", Movable: 482833, Fixed: 11178, Nets: 552199, Pins: 1881267},
	{Name: "newblue4", Movable: 642717, Fixed: 3422, Nets: 637051, Pins: 2455617},
	{Name: "newblue5", Movable: 1228177, Fixed: 4881, Nets: 1284251, Pins: 4849194},
	{Name: "newblue6", Movable: 1248150, Fixed: 6889, Nets: 1288443, Pins: 5200208},
	{Name: "newblue7", Movable: 2481372, Fixed: 26582, Nets: 2636820, Pins: 9971913},
}

// ISPD2019 lists the ISPD2019 contest suite exactly as in Table I.
var ISPD2019 = []ContestDesign{
	{Name: "ispd19_test1", Movable: 8879, Fixed: 0, Nets: 3153, Pins: 17203},
	{Name: "ispd19_test2", Movable: 72090, Fixed: 4, Nets: 72410, Pins: 318245},
	{Name: "ispd19_test3", Movable: 8208, Fixed: 75, Nets: 8953, Pins: 30271},
	{Name: "ispd19_test4", Movable: 146435, Fixed: 7, Nets: 151612, Pins: 436707},
	{Name: "ispd19_test5", Movable: 28914, Fixed: 8, Nets: 29416, Pins: 80757},
	{Name: "ispd19_test6", Movable: 179865, Fixed: 16, Nets: 179863, Pins: 793289},
	{Name: "ispd19_test7", Movable: 359730, Fixed: 16, Nets: 358720, Pins: 1584844},
	{Name: "ispd19_test8", Movable: 539595, Fixed: 16, Nets: 537577, Pins: 2376399},
	{Name: "ispd19_test9", Movable: 899325, Fixed: 16, Nets: 895253, Pins: 3957481},
	{Name: "ispd19_test10", Movable: 899325, Fixed: 79, Nets: 895253, Pins: 3957499},
}

// Scale2006 and Scale2019 are the default reduction factors the experiment
// harness applies to the contest statistics (documented in DESIGN.md).
const (
	Scale2006 = 1.0 / 100
	Scale2019 = 1.0 / 20
)

// SpecFromContest derives a generator spec mirroring the contest design's
// movable/fixed/net/pin ratios at the given scale factor. Determinism: the
// seed is derived from the design name so suites are reproducible.
func SpecFromContest(cd ContestDesign, scale float64) Spec {
	mov := scaleCount(cd.Movable, scale, 64)
	nets := scaleCount(cd.Nets, scale, 32)
	fixed := scaleCount(cd.Fixed, scale, 0)
	macros := 0
	if cd.Macros > 0 {
		macros = scaleCount(cd.Macros, math.Sqrt(scale), 4)
	}
	// Split fixed cells: mostly pads, a few core blockages for designs
	// with many fixed objects (newblue3-style).
	blocks := 0
	if fixed > 24 {
		blocks = fixed / 10
		if blocks > 40 {
			blocks = 40
		}
	}
	pads := fixed - blocks
	if pads < 4 {
		pads = 4
	}
	util := 0.70
	td := 1.0
	if cd.Name[:4] == "ispd" {
		// The 2019 suite targets routability: lower utilization, denser
		// degree distribution.
		util = 0.55
		td = 0.90
	}
	seed := int64(0)
	for _, r := range cd.Name {
		seed = seed*131 + int64(r)
	}
	return Spec{
		Name:           cd.Name,
		NumMovable:     mov,
		NumMacros:      macros,
		NumPads:        pads,
		NumFixedBlocks: blocks,
		NumNets:        nets,
		AvgDegree:      cd.AvgDegree(),
		Utilization:    util,
		TargetDensity:  td,
		Seed:           seed,
	}
}

func scaleCount(v int, scale float64, floor int) int {
	s := int(math.Round(float64(v) * scale))
	if s < floor {
		s = floor
	}
	return s
}

// Suite2006 returns the generator specs of the ISPD2006-like suite at the
// default scale.
func Suite2006() []Spec { return suite(ISPD2006, Scale2006) }

// Suite2019 returns the generator specs of the ISPD2019-like suite at the
// default scale.
func Suite2019() []Spec { return suite(ISPD2019, Scale2019) }

// Suite2006WithScale returns the ISPD2006-like specs at an explicit scale.
func Suite2006WithScale(scale float64) []Spec { return suite(ISPD2006, scale) }

// Suite2019WithScale returns the ISPD2019-like specs at an explicit scale.
func Suite2019WithScale(scale float64) []Spec { return suite(ISPD2019, scale) }

// SuiteScaled returns contest specs at an arbitrary scale, for quick
// experiments and benchmarks.
func SuiteScaled(suiteName string, scale float64) ([]Spec, error) {
	switch suiteName {
	case "ispd2006":
		return suite(ISPD2006, scale), nil
	case "ispd2019":
		return suite(ISPD2019, scale), nil
	}
	return nil, fmt.Errorf("synth: unknown suite %q (want ispd2006 or ispd2019)", suiteName)
}

func suite(base []ContestDesign, scale float64) []Spec {
	specs := make([]Spec, len(base))
	for i, cd := range base {
		specs[i] = SpecFromContest(cd, scale)
	}
	return specs
}
