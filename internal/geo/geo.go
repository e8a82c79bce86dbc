// Package geo provides the planar geography substrate used to lay out
// the synthetic cellular network and to route car trips: points in a
// flat kilometre-scaled plane, distances and headings, and rectangular
// metro regions with density classes.
//
// A flat plane is sufficient here: the analyses in the paper are
// relational (which cell, which base station, which carrier) and never
// depend on geodesy. We only need relative positions so that trips
// traverse plausible sequences of nearby base stations.
package geo

import (
	"fmt"
	"math"
)

// Point is a location on the plane, in kilometres.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance in kilometres between p and q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Add returns p translated by (dx, dy).
func (p Point) Add(dx, dy float64) Point { return Point{p.X + dx, p.Y + dy} }

// Lerp returns the point a fraction t of the way from p to q.
// t outside [0,1] extrapolates.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// Heading returns the angle in radians of the vector from p to q,
// in (-π, π], measured from the +X axis.
func (p Point) Heading(q Point) float64 {
	return math.Atan2(q.Y-p.Y, q.X-p.X)
}

// Density classifies how built-up an area is, controlling base-station
// spacing and background load in the synthetic network.
type Density uint8

// Density classes from densest to sparsest.
const (
	Urban Density = iota
	Suburban
	Rural
)

// String returns the lowercase name of the density class.
func (d Density) String() string {
	switch d {
	case Urban:
		return "urban"
	case Suburban:
		return "suburban"
	case Rural:
		return "rural"
	default:
		return fmt.Sprintf("density(%d)", uint8(d))
	}
}

// SiteSpacingKm returns the typical distance between adjacent base
// stations for the density class. Real LTE deployments space sites a
// few hundred metres apart downtown and several kilometres apart in
// the countryside; these defaults sit in those bands.
func (d Density) SiteSpacingKm() float64 {
	switch d {
	case Urban:
		return 2.2
	case Suburban:
		return 5.0
	case Rural:
		return 12.0
	default:
		return 5.0
	}
}

// Rect is an axis-aligned rectangle on the plane.
type Rect struct {
	Min, Max Point
}

// Width returns the X extent of the rectangle.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the Y extent of the rectangle.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Center returns the midpoint of the rectangle.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Contains reports whether p lies inside the rectangle (min inclusive,
// max exclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X < r.Max.X && p.Y >= r.Min.Y && p.Y < r.Max.Y
}

// Clamp returns the closest point to p inside the rectangle.
func (r Rect) Clamp(p Point) Point {
	if p.X < r.Min.X {
		p.X = r.Min.X
	}
	if p.X > r.Max.X {
		p.X = r.Max.X
	}
	if p.Y < r.Min.Y {
		p.Y = r.Min.Y
	}
	if p.Y > r.Max.Y {
		p.Y = r.Max.Y
	}
	return p
}

// Region is a named rectangular area with a density class. The
// synthetic world is a set of regions (an urban core, suburban belt,
// rural fringe) tiling a bounding box.
type Region struct {
	Name    string
	Bounds  Rect
	Density Density
}

// World is the overall simulated geography: a bounding box divided
// into density regions.
type World struct {
	Bounds  Rect
	Regions []Region
}

// DensityAt returns the density class of the region containing p. The
// first matching region wins; points outside every region are Rural.
func (w *World) DensityAt(p Point) Density {
	for _, r := range w.Regions {
		if r.Bounds.Contains(p) {
			return r.Density
		}
	}
	return Rural
}

// DefaultWorld returns the standard synthetic metro used across the
// reproduction: a square metro with a dense urban core, a suburban
// ring, and a rural remainder. sizeKm is the side length of the whole
// bounding box; it panics when non-positive.
//
// Layout (fractions of the side length):
//
//	urban core:    central 20% × 20%
//	suburban belt: central 55% × 55% minus the core
//	rural:         everything else
func DefaultWorld(sizeKm float64) *World {
	if sizeKm <= 0 {
		panic(fmt.Sprintf("geo: non-positive world size %v", sizeKm))
	}
	full := Rect{Min: Point{0, 0}, Max: Point{sizeKm, sizeKm}}
	c := full.Center()
	core := Rect{
		Min: Point{c.X - 0.10*sizeKm, c.Y - 0.10*sizeKm},
		Max: Point{c.X + 0.10*sizeKm, c.Y + 0.10*sizeKm},
	}
	belt := Rect{
		Min: Point{c.X - 0.275*sizeKm, c.Y - 0.275*sizeKm},
		Max: Point{c.X + 0.275*sizeKm, c.Y + 0.275*sizeKm},
	}
	return &World{
		Bounds: full,
		Regions: []Region{
			{Name: "core", Bounds: core, Density: Urban},
			{Name: "belt", Bounds: belt, Density: Suburban},
			{Name: "fringe", Bounds: full, Density: Rural},
		},
	}
}
