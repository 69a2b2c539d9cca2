/**
 * @file
 * 2-D line segments and intersection predicates.
 *
 * Used by the planar-arm collision checker (arm links are segments tested
 * against workspace obstacle rectangles).
 */

#ifndef RTR_GEOM_SEGMENT_H
#define RTR_GEOM_SEGMENT_H

#include "geom/aabb.h"
#include "geom/vec2.h"

namespace rtr {

/** A 2-D line segment between two endpoints. */
struct Segment2
{
    Vec2 a;
    Vec2 b;

    /** Segment length. */
    double length() const { return a.distanceTo(b); }

    /** Point at parameter t in [0,1] along the segment. */
    Vec2 at(double t) const { return a + (b - a) * t; }
};

/** Whether two segments intersect (touching endpoints count). */
bool segmentsIntersect(const Segment2 &s, const Segment2 &t);

/**
 * Whether a segment intersects (or is contained in) a rectangle.
 *
 * Equals segmentsIntersect() against the four box edges, bit for bit,
 * provided the box is finite with lo <= hi on both axes.
 */
bool segmentIntersectsAabb(const Segment2 &s, const Aabb2 &box);

/** Shortest distance from a point to a segment. */
double pointSegmentDistance(const Vec2 &p, const Segment2 &s);

} // namespace rtr

#endif // RTR_GEOM_SEGMENT_H
