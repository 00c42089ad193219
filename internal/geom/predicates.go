package geom

import "math"

// Intersects reports whether the two geometries share at least one point.
// It dispatches on the concrete types; unsupported combinations fall back
// to a bounding-box test combined with exact tests where available.
func Intersects(a, b Geometry) bool {
	if !a.Bounds().Intersects(b.Bounds()) {
		return false
	}
	switch ga := a.(type) {
	case Point:
		return containsPoint(b, ga)
	case Rect:
		return rectIntersects(ga, b)
	case LineString:
		return lineIntersects(ga, b)
	case Polygon:
		return polygonIntersects(ga, b)
	case MultiPolygon:
		for _, p := range ga.Polygons {
			if Intersects(p, b) {
				return true
			}
		}
		return false
	}
	return true // bounding boxes intersect and we know nothing more
}

// Contains reports whether geometry a completely contains geometry b.
// Supported containers are Rect, Polygon and MultiPolygon; all geometry
// types can be containees (tested via their vertices plus, for areal
// containees, absence of boundary crossings).
func Contains(a, b Geometry) bool {
	if !a.Bounds().ContainsRect(b.Bounds()) {
		return false
	}
	switch ga := a.(type) {
	case Rect:
		return true // bounds containment is exact for rectangles
	case Polygon:
		return polygonContains(ga, b)
	case MultiPolygon:
		// Every vertex of b must be inside some member and no member
		// boundary may cross b. For the synthetic workloads members are
		// disjoint, so testing "one member contains b" suffices.
		for _, p := range ga.Polygons {
			if Contains(p, b) {
				return true
			}
		}
		return false
	case Point:
		q, ok := b.(Point)
		return ok && ga == q
	}
	return false
}

// Within reports whether a is completely inside b (the converse of
// Contains).
func Within(a, b Geometry) bool { return Contains(b, a) }

// Distance returns the minimum distance between the two geometries, zero
// when they intersect. Exact for point/rect/segment combinations; for
// areal-areal pairs it is the minimum over boundary segments.
func Distance(a, b Geometry) float64 {
	if Intersects(a, b) {
		return 0
	}
	sa, pa := boundary(a)
	sb, pb := boundary(b)
	best := math.Inf(1)
	// point-to-point and point-to-segment distances
	for _, p := range pa {
		for _, q := range pb {
			if d := p.DistanceTo(q); d < best {
				best = d
			}
		}
		for _, s := range sb {
			if d := pointSegmentDistance(p, s[0], s[1]); d < best {
				best = d
			}
		}
	}
	for _, q := range pb {
		for _, s := range sa {
			if d := pointSegmentDistance(q, s[0], s[1]); d < best {
				best = d
			}
		}
	}
	for _, s := range sa {
		for _, t := range sb {
			if d := segmentSegmentDistance(s, t); d < best {
				best = d
			}
		}
	}
	return best
}

// boundary decomposes a geometry into its boundary segments and isolated
// vertices for distance computation.
func boundary(g Geometry) (segs [][2]Point, pts []Point) {
	switch gg := g.(type) {
	case Point:
		return nil, []Point{gg}
	case Rect:
		c := []Point{
			gg.Min, {gg.Max.X, gg.Min.Y}, gg.Max, {gg.Min.X, gg.Max.Y},
		}
		for i := range c {
			segs = append(segs, [2]Point{c[i], c[(i+1)%4]})
		}
		return segs, c
	case LineString:
		for i := 1; i < len(gg.Points); i++ {
			segs = append(segs, [2]Point{gg.Points[i-1], gg.Points[i]})
		}
		return segs, gg.Points
	case Polygon:
		segs = append(segs, ringSegments(gg.Shell)...)
		pts = append(pts, gg.Shell...)
		for _, h := range gg.Holes {
			segs = append(segs, ringSegments(h)...)
			pts = append(pts, h...)
		}
		return segs, pts
	case MultiPolygon:
		for _, p := range gg.Polygons {
			s, q := boundary(p)
			segs = append(segs, s...)
			pts = append(pts, q...)
		}
		return segs, pts
	}
	return nil, nil
}

func ringSegments(r Ring) [][2]Point {
	if len(r) < 2 {
		return nil
	}
	segs := make([][2]Point, 0, len(r))
	for i := 0; i < len(r); i++ {
		segs = append(segs, [2]Point{r[i], r[(i+1)%len(r)]})
	}
	return segs
}

// containsPoint reports whether geometry g contains the point p (boundary
// inclusive).
func containsPoint(g Geometry, p Point) bool {
	switch gg := g.(type) {
	case Point:
		return gg == p
	case Rect:
		return gg.ContainsPoint(p)
	case LineString:
		for i := 1; i < len(gg.Points); i++ {
			if pointSegmentDistance(p, gg.Points[i-1], gg.Points[i]) == 0 {
				return true
			}
		}
		return false
	case Polygon:
		return polygonContainsPoint(gg, p)
	case MultiPolygon:
		for _, poly := range gg.Polygons {
			if polygonContainsPoint(poly, p) {
				return true
			}
		}
		return false
	}
	return false
}

// polygonContainsPoint uses the even-odd ray casting rule with an explicit
// on-boundary check so that boundary points count as contained.
func polygonContainsPoint(poly Polygon, p Point) bool {
	if !inRing(poly.Shell, p) {
		return false
	}
	for _, h := range poly.Holes {
		if inRingStrict(h, p) {
			return false
		}
	}
	return true
}

// inRing reports p inside-or-on the ring.
func inRing(r Ring, p Point) bool {
	return onRing(r, p) || rayCast(r, p)
}

// inRingStrict reports p strictly inside the ring (boundary excluded).
func inRingStrict(r Ring, p Point) bool {
	return !onRing(r, p) && rayCast(r, p)
}

// onRing reports p on one of the ring's closed edges. It walks the
// edges in place: point-in-polygon runs once per R-tree candidate, so
// it must not allocate.
func onRing(r Ring, p Point) bool {
	if len(r) < 2 {
		return false
	}
	for i := range r {
		if pointSegmentDistance(p, r[i], r[(i+1)%len(r)]) < 1e-12 {
			return true
		}
	}
	return false
}

// rayCast implements the even-odd rule with a ray towards +X.
func rayCast(r Ring, p Point) bool {
	inside := false
	n := len(r)
	for i := 0; i < n; i++ {
		a, b := r[i], r[(i+1)%n]
		if (a.Y > p.Y) != (b.Y > p.Y) {
			x := a.X + (p.Y-a.Y)*(b.X-a.X)/(b.Y-a.Y)
			if x > p.X {
				inside = !inside
			}
		}
	}
	return inside
}

func rectIntersects(r Rect, b Geometry) bool {
	switch gb := b.(type) {
	case Point:
		return r.ContainsPoint(gb)
	case Rect:
		return r.Intersects(gb)
	case LineString:
		return lineIntersects(gb, r)
	case Polygon:
		return polygonIntersects(gb, r)
	case MultiPolygon:
		for _, p := range gb.Polygons {
			if polygonIntersects(p, r) {
				return true
			}
		}
		return false
	}
	return true
}

func lineIntersects(l LineString, b Geometry) bool {
	switch gb := b.(type) {
	case Point:
		return containsPoint(l, gb)
	case Rect:
		// any vertex inside, or any segment crossing the rect boundary
		for _, p := range l.Points {
			if gb.ContainsPoint(p) {
				return true
			}
		}
		rsegs, _ := boundary(gb)
		for i := 1; i < len(l.Points); i++ {
			for _, s := range rsegs {
				if segmentsIntersect(l.Points[i-1], l.Points[i], s[0], s[1]) {
					return true
				}
			}
		}
		return false
	case LineString:
		for i := 1; i < len(l.Points); i++ {
			for j := 1; j < len(gb.Points); j++ {
				if segmentsIntersect(l.Points[i-1], l.Points[i], gb.Points[j-1], gb.Points[j]) {
					return true
				}
			}
		}
		return false
	case Polygon:
		for _, p := range l.Points {
			if polygonContainsPoint(gb, p) {
				return true
			}
		}
		psegs, _ := boundary(gb)
		for i := 1; i < len(l.Points); i++ {
			for _, s := range psegs {
				if segmentsIntersect(l.Points[i-1], l.Points[i], s[0], s[1]) {
					return true
				}
			}
		}
		return false
	case MultiPolygon:
		for _, p := range gb.Polygons {
			if lineIntersects(l, p) {
				return true
			}
		}
		return false
	}
	return true
}

func polygonIntersects(poly Polygon, b Geometry) bool {
	switch gb := b.(type) {
	case Point:
		return polygonContainsPoint(poly, gb)
	case Rect:
		// corner of rect inside polygon, vertex of polygon inside rect,
		// or boundary crossing
		if polygonContainsPoint(poly, gb.Min) || polygonContainsPoint(poly, gb.Max) ||
			polygonContainsPoint(poly, Point{gb.Min.X, gb.Max.Y}) ||
			polygonContainsPoint(poly, Point{gb.Max.X, gb.Min.Y}) {
			return true
		}
		for _, p := range poly.Shell {
			if gb.ContainsPoint(p) {
				return true
			}
		}
		rsegs, _ := boundary(gb)
		for _, s := range ringSegments(poly.Shell) {
			for _, t := range rsegs {
				if segmentsIntersect(s[0], s[1], t[0], t[1]) {
					return true
				}
			}
		}
		return false
	case LineString:
		return lineIntersects(gb, poly)
	case Polygon:
		// vertex containment either way, then boundary crossing
		for _, p := range gb.Shell {
			if polygonContainsPoint(poly, p) {
				return true
			}
		}
		for _, p := range poly.Shell {
			if polygonContainsPoint(gb, p) {
				return true
			}
		}
		for _, s := range ringSegments(poly.Shell) {
			for _, t := range ringSegments(gb.Shell) {
				if segmentsIntersect(s[0], s[1], t[0], t[1]) {
					return true
				}
			}
		}
		return false
	case MultiPolygon:
		for _, p := range gb.Polygons {
			if polygonIntersects(poly, p) {
				return true
			}
		}
		return false
	}
	return true
}

// polygonContains reports whether poly completely contains geometry b.
func polygonContains(poly Polygon, b Geometry) bool {
	switch gb := b.(type) {
	case Point:
		return polygonContainsPoint(poly, gb)
	case Rect:
		corners := []Point{
			gb.Min, gb.Max, {gb.Min.X, gb.Max.Y}, {gb.Max.X, gb.Min.Y},
		}
		for _, c := range corners {
			if !polygonContainsPoint(poly, c) {
				return false
			}
		}
		return !boundariesCross(poly, gb)
	case LineString:
		for _, p := range gb.Points {
			if !polygonContainsPoint(poly, p) {
				return false
			}
		}
		return !boundariesCross(poly, gb)
	case Polygon:
		for _, p := range gb.Shell {
			if !polygonContainsPoint(poly, p) {
				return false
			}
		}
		return !boundariesCross(poly, gb)
	case MultiPolygon:
		for _, p := range gb.Polygons {
			if !polygonContains(poly, p) {
				return false
			}
		}
		return true
	}
	return false
}

// boundariesCross reports whether the boundary of poly properly crosses any
// boundary segment of b (shared endpoints do not count as crossings).
func boundariesCross(poly Polygon, b Geometry) bool {
	bsegs, _ := boundary(b)
	psegs, _ := boundary(poly)
	for _, s := range psegs {
		for _, t := range bsegs {
			if segmentsProperlyIntersect(s[0], s[1], t[0], t[1]) {
				return true
			}
		}
	}
	return false
}

// cross returns the z-component of (b-a) x (c-a).
func cross(a, b, c Point) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}

// onSegment reports whether c (known collinear with a-b) lies on segment ab.
func onSegment(a, b, c Point) bool {
	return math.Min(a.X, b.X) <= c.X && c.X <= math.Max(a.X, b.X) &&
		math.Min(a.Y, b.Y) <= c.Y && c.Y <= math.Max(a.Y, b.Y)
}

// segmentsIntersect reports whether segments ab and cd share any point,
// including touching endpoints and collinear overlap.
func segmentsIntersect(a, b, c, d Point) bool {
	d1 := cross(c, d, a)
	d2 := cross(c, d, b)
	d3 := cross(a, b, c)
	d4 := cross(a, b, d)
	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	if d1 == 0 && onSegment(c, d, a) {
		return true
	}
	if d2 == 0 && onSegment(c, d, b) {
		return true
	}
	if d3 == 0 && onSegment(a, b, c) {
		return true
	}
	if d4 == 0 && onSegment(a, b, d) {
		return true
	}
	return false
}

// segmentsProperlyIntersect reports a crossing in the interiors of both
// segments (touching at endpoints excluded).
func segmentsProperlyIntersect(a, b, c, d Point) bool {
	d1 := cross(c, d, a)
	d2 := cross(c, d, b)
	d3 := cross(a, b, c)
	d4 := cross(a, b, d)
	return ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0))
}

// pointSegmentDistance returns the distance from p to segment ab.
func pointSegmentDistance(p, a, b Point) float64 {
	abx, aby := b.X-a.X, b.Y-a.Y
	apx, apy := p.X-a.X, p.Y-a.Y
	den := abx*abx + aby*aby
	if den == 0 {
		return p.DistanceTo(a)
	}
	t := (apx*abx + apy*aby) / den
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	proj := Point{a.X + t*abx, a.Y + t*aby}
	return p.DistanceTo(proj)
}

// segmentSegmentDistance returns the minimum distance between two segments.
func segmentSegmentDistance(s, t [2]Point) float64 {
	if segmentsIntersect(s[0], s[1], t[0], t[1]) {
		return 0
	}
	d := pointSegmentDistance(s[0], t[0], t[1])
	if v := pointSegmentDistance(s[1], t[0], t[1]); v < d {
		d = v
	}
	if v := pointSegmentDistance(t[0], s[0], s[1]); v < d {
		d = v
	}
	if v := pointSegmentDistance(t[1], s[0], s[1]); v < d {
		d = v
	}
	return d
}
