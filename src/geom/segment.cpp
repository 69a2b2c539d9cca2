#include "geom/segment.h"

#include <algorithm>
#include <cmath>

namespace rtr {

namespace {

/** Orientation sign of the triangle (a, b, c): +1 ccw, -1 cw, 0 colinear. */
int
orientation(const Vec2 &a, const Vec2 &b, const Vec2 &c)
{
    double cross = (b - a).cross(c - a);
    constexpr double eps = 1e-12;
    if (cross > eps)
        return 1;
    if (cross < -eps)
        return -1;
    return 0;
}

/** Whether colinear point p lies within the bounding box of segment ab. */
bool
onSegment(const Vec2 &a, const Vec2 &b, const Vec2 &p)
{
    return p.x <= std::max(a.x, b.x) && p.x >= std::min(a.x, b.x) &&
           p.y <= std::max(a.y, b.y) && p.y >= std::min(a.y, b.y);
}

} // namespace

bool
segmentsIntersect(const Segment2 &s, const Segment2 &t)
{
    int o1 = orientation(s.a, s.b, t.a);
    int o2 = orientation(s.a, s.b, t.b);
    int o3 = orientation(t.a, t.b, s.a);
    int o4 = orientation(t.a, t.b, s.b);

    if (o1 != o2 && o3 != o4)
        return true;

    if (o1 == 0 && onSegment(s.a, s.b, t.a))
        return true;
    if (o2 == 0 && onSegment(s.a, s.b, t.b))
        return true;
    if (o3 == 0 && onSegment(t.a, t.b, s.a))
        return true;
    if (o4 == 0 && onSegment(t.a, t.b, s.b))
        return true;
    return false;
}

bool
segmentIntersectsAabb(const Segment2 &s, const Aabb2 &box)
{
    if (box.contains(s.a) || box.contains(s.b))
        return true;

    // The answer equals segmentsIntersect(s, edge) over the four box
    // edges, with each orientation evaluated at most once (DESIGN.md
    // "Arm collision" has the proof). Corner orientations are shared by
    // the two edges that meet there. The edge-side orientations matter
    // only where the edge's corners straddle the link's line. A link
    // endpoint colinear with an edge and on it lies in the box, so the
    // contains() test above already answered that case; this needs a
    // finite box with lo <= hi, which ArmCollisionChecker enforces.
    const Vec2 corners[4] = {
        box.lo, {box.hi.x, box.lo.y}, box.hi, {box.lo.x, box.hi.y}};
    int oc[4];
    for (int i = 0; i < 4; ++i)
        oc[i] = orientation(s.a, s.b, corners[i]);
    if (oc[0] != 0 && oc[0] == oc[1] && oc[0] == oc[2] && oc[0] == oc[3])
        return false; // the whole box is strictly on one side

    for (int i = 0; i < 4; ++i) {
        const int j = (i + 1) % 4;
        if (oc[i] != oc[j] &&
            orientation(corners[i], corners[j], s.a) !=
                orientation(corners[i], corners[j], s.b))
            return true;
    }
    for (int i = 0; i < 4; ++i) {
        if (oc[i] == 0 && onSegment(s.a, s.b, corners[i]))
            return true;
    }
    return false;
}

double
pointSegmentDistance(const Vec2 &p, const Segment2 &s)
{
    Vec2 ab = s.b - s.a;
    double len2 = ab.squaredNorm();
    if (len2 == 0.0)
        return p.distanceTo(s.a);
    double t = std::clamp((p - s.a).dot(ab) / len2, 0.0, 1.0);
    return p.distanceTo(s.at(t));
}

} // namespace rtr
