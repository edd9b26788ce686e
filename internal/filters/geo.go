package filters

import (
	"math"
	"slices"

	"diffusion/internal/attr"
	"diffusion/internal/core"
	"diffusion/internal/message"
)

// GeoScope implements the geographic interest-scoping optimization the
// paper leaves as future work ("we are currently exploring using filters
// to optimize diffusion (avoiding flooding) with geographic information",
// sections 4.2 and 7, citing GEAR). When an interest names a rectangular
// region (x/y GE/LE formals) and this node lies outside it, GeoScope
// replaces the core's broadcast re-flood with a greedy unicast toward the
// neighbor closest to the region, eliminating flood traffic outside the
// region. Inside the region (or when no neighbor makes progress) normal
// flooding resumes.
type GeoScope struct {
	node   *core.Node
	handle core.FilterHandle

	x, y      float64
	neighbors map[uint32][2]float64
	// seen holds the interest originations this node scoped, oldest
	// first, at most geoSeenCap of them.
	seen []message.ID

	// Unicasts counts scoped greedy forwards; Floods counts interests
	// passed through to normal core flooding.
	Unicasts, Floods int
}

// geoSeenCap bounds GeoScope.seen. An origination needs its entry only
// while copies of its interest flood still arrive, a few hops' time, far
// less than it takes one node to scope this many.
const geoSeenCap = 256

// NewGeoScope installs the scoping filter on n. The node knows its own
// position and its neighbors' positions (the paper assumes "sensors know
// their locations").
func NewGeoScope(n *core.Node, x, y float64, neighbors map[uint32][2]float64) *GeoScope {
	g := &GeoScope{
		node:      n,
		x:         x,
		y:         y,
		neighbors: neighbors,
	}
	// Trigger on interests only: they carry a "class IS interest" actual.
	pattern := attr.Vec{attr.Int32Attr(attr.KeyClass, attr.EQ, attr.ClassInterest)}
	g.handle = n.AddFilter(pattern, 200, g.onMessage)
	return g
}

// Remove uninstalls the filter.
func (g *GeoScope) Remove() { _ = g.node.RemoveFilter(g.handle) }

// Rect is a closed axis-aligned rectangle.
type Rect struct {
	MinX, MaxX, MinY, MaxY float64
}

// Contains reports whether (x, y) lies in r.
func (r Rect) Contains(x, y float64) bool {
	return x >= r.MinX && x <= r.MaxX && y >= r.MinY && y <= r.MaxY
}

// center returns the rectangle's midpoint.
func (r Rect) center() (float64, float64) {
	return (r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2
}

// RegionOf extracts a rectangular region from interest attributes (x GE a,
// x LE b, y GE c, y LE d). It reports ok=false unless both axes are fully
// bounded.
func RegionOf(attrs attr.Vec) (Rect, bool) {
	r := Rect{
		MinX: math.Inf(-1), MaxX: math.Inf(1),
		MinY: math.Inf(-1), MaxY: math.Inf(1),
	}
	for _, a := range attrs {
		if !a.Val.Numeric() {
			continue
		}
		v := a.Val.AsFloat()
		switch {
		case a.Key == attr.KeyX && (a.Op == attr.GE || a.Op == attr.GT):
			r.MinX = math.Max(r.MinX, v)
		case a.Key == attr.KeyX && (a.Op == attr.LE || a.Op == attr.LT):
			r.MaxX = math.Min(r.MaxX, v)
		case a.Key == attr.KeyY && (a.Op == attr.GE || a.Op == attr.GT):
			r.MinY = math.Max(r.MinY, v)
		case a.Key == attr.KeyY && (a.Op == attr.LE || a.Op == attr.LT):
			r.MaxY = math.Min(r.MaxY, v)
		}
	}
	bounded := !math.IsInf(r.MinX, -1) && !math.IsInf(r.MaxX, 1) &&
		!math.IsInf(r.MinY, -1) && !math.IsInf(r.MaxY, 1)
	return r, bounded
}

func (g *GeoScope) onMessage(m *message.Message, h core.FilterHandle) {
	rect, ok := RegionOf(m.Attrs)
	if !ok || rect.Contains(g.x, g.y) {
		// No region, or we are inside it: normal flooding.
		g.Floods++
		g.node.SendMessageToNext(m, h)
		return
	}
	if slices.Contains(g.seen, m.ID) {
		// Already scoped this interest origination once; let the core's
		// duplicate suppression handle the copy (no re-unicast).
		g.node.SendMessageToNext(m, h)
		return
	}
	cx, cy := rect.center()
	own := math.Hypot(g.x-cx, g.y-cy)
	best, found := uint32(0), false
	bestDist := own
	for id, p := range g.neighbors {
		d := math.Hypot(p[0]-cx, p[1]-cy)
		if d < bestDist || (d == bestDist && found && id < best) {
			best = id
			bestDist = d
			found = true
		}
	}
	if !found {
		// No neighbor makes progress toward the region: fall back to
		// flooding rather than dropping the interest (greedy dead end).
		g.Floods++
		g.node.SendMessageToNext(m, h)
		return
	}
	if len(g.seen) == geoSeenCap {
		g.seen = slices.Delete(g.seen, 0, 1)
	}
	g.seen = append(g.seen, m.ID)
	// Let the core absorb the interest (gradient setup, local delivery)
	// without re-flooding, then forward a single unicast copy greedily.
	g.node.ProcessNoForward(m)
	out := m.Clone()
	out.HopCount++
	out.NextHop = message.NodeID(best)
	g.node.SendDirect(out)
	g.Unicasts++
}
