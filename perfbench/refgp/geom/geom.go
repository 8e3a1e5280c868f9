// Package geom provides small geometric primitives shared across the placer:
// points, rectangles, and closed intervals on float64 coordinates.
//
// Coordinates follow the usual placement convention: x grows rightward,
// y grows upward, and a Rect is defined by its lower-left and upper-right
// corners.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the placement plane.
type Point struct {
	X, Y float64
}

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p minus q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p with both coordinates multiplied by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// ManhattanDist returns the L1 distance between p and q.
func (p Point) ManhattanDist(q Point) float64 {
	return math.Abs(p.X-q.X) + math.Abs(p.Y-q.Y)
}

func (p Point) String() string { return fmt.Sprintf("(%g,%g)", p.X, p.Y) }

// Rect is an axis-aligned rectangle [XL,XH] x [YL,YH].
type Rect struct {
	XL, YL, XH, YH float64
}

// NewRect builds a rectangle from any two opposite corners.
func NewRect(x1, y1, x2, y2 float64) Rect {
	return Rect{math.Min(x1, x2), math.Min(y1, y2), math.Max(x1, x2), math.Max(y1, y2)}
}

// W returns the width of r. Negative widths indicate an empty rectangle.
func (r Rect) W() float64 { return r.XH - r.XL }

// H returns the height of r.
func (r Rect) H() float64 { return r.YH - r.YL }

// Area returns the area of r, or 0 if r is empty.
func (r Rect) Area() float64 {
	if r.Empty() {
		return 0
	}
	return r.W() * r.H()
}

// Empty reports whether r has non-positive extent in either dimension.
func (r Rect) Empty() bool { return r.XH <= r.XL || r.YH <= r.YL }

// Center returns the center point of r.
func (r Rect) Center() Point { return Point{(r.XL + r.XH) / 2, (r.YL + r.YH) / 2} }

// Contains reports whether p lies inside r (inclusive boundaries).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.XL && p.X <= r.XH && p.Y >= r.YL && p.Y <= r.YH
}

// ContainsRect reports whether s lies fully inside r.
func (r Rect) ContainsRect(s Rect) bool {
	return s.XL >= r.XL && s.XH <= r.XH && s.YL >= r.YL && s.YH <= r.YH
}

// Intersect returns the overlap of r and s (possibly empty).
func (r Rect) Intersect(s Rect) Rect {
	return Rect{
		XL: math.Max(r.XL, s.XL),
		YL: math.Max(r.YL, s.YL),
		XH: math.Min(r.XH, s.XH),
		YH: math.Min(r.YH, s.YH),
	}
}

// Union returns the bounding box of r and s. Empty rectangles are ignored.
func (r Rect) Union(s Rect) Rect {
	if r.Empty() {
		return s
	}
	if s.Empty() {
		return r
	}
	return Rect{
		XL: math.Min(r.XL, s.XL),
		YL: math.Min(r.YL, s.YL),
		XH: math.Max(r.XH, s.XH),
		YH: math.Max(r.YH, s.YH),
	}
}

// Overlaps reports whether r and s share positive area.
func (r Rect) Overlaps(s Rect) bool {
	return r.XL < s.XH && s.XL < r.XH && r.YL < s.YH && s.YL < r.YH
}

// OverlapArea returns the area shared by r and s.
func (r Rect) OverlapArea(s Rect) float64 { return r.Intersect(s).Area() }

// Translate returns r moved by (dx, dy).
func (r Rect) Translate(dx, dy float64) Rect {
	return Rect{r.XL + dx, r.YL + dy, r.XH + dx, r.YH + dy}
}

// Expand returns r grown by m on every side.
func (r Rect) Expand(m float64) Rect {
	return Rect{r.XL - m, r.YL - m, r.XH + m, r.YH + m}
}

func (r Rect) String() string {
	return fmt.Sprintf("[%g,%g]x[%g,%g]", r.XL, r.XH, r.YL, r.YH)
}

// Clamp returns v limited to [lo, hi]. It assumes lo <= hi.
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Interval is a closed interval [Lo, Hi] on one axis.
type Interval struct {
	Lo, Hi float64
}

// Len returns the interval length (possibly negative when invalid).
func (iv Interval) Len() float64 { return iv.Hi - iv.Lo }

// Contains reports whether v is inside the interval.
func (iv Interval) Contains(v float64) bool { return v >= iv.Lo && v <= iv.Hi }

// Clamp limits v to the interval.
func (iv Interval) Clamp(v float64) float64 { return Clamp(v, iv.Lo, iv.Hi) }

// Intersect returns the overlap of two intervals (Hi < Lo when disjoint).
func (iv Interval) Intersect(o Interval) Interval {
	return Interval{math.Max(iv.Lo, o.Lo), math.Min(iv.Hi, o.Hi)}
}
