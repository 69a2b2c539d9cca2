/**
 * @file
 * Unit and property tests for the geom library.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "geom/aabb.h"
#include "geom/angle.h"
#include "geom/pose.h"
#include "geom/segment.h"
#include "geom/vec2.h"
#include "geom/vec3.h"
#include "util/rng.h"

namespace rtr {
namespace {

TEST(Vec2, Arithmetic)
{
    Vec2 a{1.0, 2.0}, b{3.0, -1.0};
    EXPECT_EQ(a + b, (Vec2{4.0, 1.0}));
    EXPECT_EQ(a - b, (Vec2{-2.0, 3.0}));
    EXPECT_EQ(a * 2.0, (Vec2{2.0, 4.0}));
    EXPECT_EQ(2.0 * a, a * 2.0);
    EXPECT_DOUBLE_EQ(a.dot(b), 1.0);
    EXPECT_DOUBLE_EQ(a.cross(b), -7.0);
}

TEST(Vec2, NormAndDistance)
{
    Vec2 v{3.0, 4.0};
    EXPECT_DOUBLE_EQ(v.norm(), 5.0);
    EXPECT_DOUBLE_EQ(v.squaredNorm(), 25.0);
    EXPECT_NEAR(v.normalized().norm(), 1.0, 1e-12);
    EXPECT_DOUBLE_EQ((Vec2{0, 0}).distanceTo(v), 5.0);
}

TEST(Vec2, RotationPreservesNorm)
{
    Rng rng(3);
    for (int i = 0; i < 50; ++i) {
        Vec2 v{rng.uniform(-5, 5), rng.uniform(-5, 5)};
        double angle = rng.uniform(-kPi, kPi);
        EXPECT_NEAR(v.rotated(angle).norm(), v.norm(), 1e-9);
    }
}

TEST(Vec2, QuarterRotation)
{
    Vec2 v{1.0, 0.0};
    Vec2 r = v.rotated(kPi / 2.0);
    EXPECT_NEAR(r.x, 0.0, 1e-12);
    EXPECT_NEAR(r.y, 1.0, 1e-12);
}

TEST(Vec3, CrossProductProperties)
{
    Vec3 x{1, 0, 0}, y{0, 1, 0}, z{0, 0, 1};
    EXPECT_EQ(x.cross(y), z);
    EXPECT_EQ(y.cross(z), x);
    EXPECT_EQ(z.cross(x), y);
    Rng rng(5);
    for (int i = 0; i < 20; ++i) {
        Vec3 a{rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
        Vec3 b{rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
        Vec3 c = a.cross(b);
        EXPECT_NEAR(c.dot(a), 0.0, 1e-12);
        EXPECT_NEAR(c.dot(b), 0.0, 1e-12);
    }
}

TEST(Angle, NormalizeIntoHalfOpenInterval)
{
    EXPECT_NEAR(normalizeAngle(3.0 * kPi), kPi, 1e-12);
    EXPECT_NEAR(normalizeAngle(-3.0 * kPi), kPi, 1e-12);
    EXPECT_NEAR(normalizeAngle(0.5), 0.5, 1e-12);
    Rng rng(9);
    for (int i = 0; i < 200; ++i) {
        double a = normalizeAngle(rng.uniform(-50.0, 50.0));
        EXPECT_GT(a, -kPi - 1e-12);
        EXPECT_LE(a, kPi + 1e-12);
    }
}

TEST(Angle, DiffIsShortestSignedPath)
{
    EXPECT_NEAR(angleDiff(0.1, -0.1), 0.2, 1e-12);
    EXPECT_NEAR(angleDiff(-kPi + 0.05, kPi - 0.05), 0.1, 1e-12);
    EXPECT_NEAR(deg2rad(180.0), kPi, 1e-12);
    EXPECT_NEAR(rad2deg(kPi / 2.0), 90.0, 1e-12);
}

TEST(Pose2, TransformComposesRotationAndTranslation)
{
    Pose2 pose{1.0, 2.0, kPi / 2.0};
    Vec2 world = pose.transform({1.0, 0.0});
    EXPECT_NEAR(world.x, 1.0, 1e-12);
    EXPECT_NEAR(world.y, 3.0, 1e-12);
    EXPECT_NEAR(pose.heading().x, 0.0, 1e-12);
    EXPECT_NEAR(pose.heading().y, 1.0, 1e-12);
}

TEST(Segment, ObviousIntersections)
{
    Segment2 a{{0, 0}, {2, 2}};
    Segment2 b{{0, 2}, {2, 0}};
    EXPECT_TRUE(segmentsIntersect(a, b));

    Segment2 c{{0, 0}, {1, 0}};
    Segment2 d{{0, 1}, {1, 1}};
    EXPECT_FALSE(segmentsIntersect(c, d));
}

TEST(Segment, SharedEndpointCounts)
{
    Segment2 a{{0, 0}, {1, 1}};
    Segment2 b{{1, 1}, {2, 0}};
    EXPECT_TRUE(segmentsIntersect(a, b));
}

TEST(Segment, ColinearOverlapDetected)
{
    Segment2 a{{0, 0}, {2, 0}};
    Segment2 b{{1, 0}, {3, 0}};
    EXPECT_TRUE(segmentsIntersect(a, b));
    Segment2 c{{3, 0}, {4, 0}};
    EXPECT_FALSE(segmentsIntersect(a, c));
}

TEST(Segment, IntersectionIsSymmetric)
{
    Rng rng(12);
    for (int i = 0; i < 200; ++i) {
        Segment2 a{{rng.uniform(0, 10), rng.uniform(0, 10)},
                   {rng.uniform(0, 10), rng.uniform(0, 10)}};
        Segment2 b{{rng.uniform(0, 10), rng.uniform(0, 10)},
                   {rng.uniform(0, 10), rng.uniform(0, 10)}};
        EXPECT_EQ(segmentsIntersect(a, b), segmentsIntersect(b, a));
    }
}

TEST(Segment, PointDistance)
{
    Segment2 s{{0, 0}, {10, 0}};
    EXPECT_DOUBLE_EQ(pointSegmentDistance({5, 3}, s), 3.0);
    EXPECT_DOUBLE_EQ(pointSegmentDistance({-3, 4}, s), 5.0);
    EXPECT_DOUBLE_EQ(pointSegmentDistance({12, 0}, s), 2.0);
}

TEST(Segment, AabbIntersection)
{
    Aabb2 box{{1, 1}, {3, 3}};
    // Fully inside.
    EXPECT_TRUE(segmentIntersectsAabb({{1.5, 1.5}, {2.5, 2.5}}, box));
    // Crossing through.
    EXPECT_TRUE(segmentIntersectsAabb({{0, 2}, {4, 2}}, box));
    // Missing entirely.
    EXPECT_FALSE(segmentIntersectsAabb({{0, 0}, {0.5, 4}}, box));
    // Touching a corner.
    EXPECT_TRUE(segmentIntersectsAabb({{0, 2}, {1, 1}}, box));
}

/**
 * The segment-vs-box test as it stood before corner orientations were
 * shared: segmentsIntersect() against each of the four box edges. It
 * survives only as the oracle segmentIntersectsAabb() must match.
 */
bool
referenceSegmentIntersectsAabb(const Segment2 &s, const Aabb2 &box)
{
    if (box.contains(s.a) || box.contains(s.b))
        return true;

    const Vec2 corners[4] = {
        box.lo, {box.hi.x, box.lo.y}, box.hi, {box.lo.x, box.hi.y}};
    for (int i = 0; i < 4; ++i) {
        Segment2 edge{corners[i], corners[(i + 1) % 4]};
        if (segmentsIntersect(s, edge))
            return true;
    }
    return false;
}

/** Box corner @p i in segmentIntersectsAabb's (ccw from lo) order. */
Vec2
boxCorner(const Aabb2 &box, int i)
{
    switch (i & 3) {
    case 0:
        return box.lo;
    case 1:
        return {box.hi.x, box.lo.y};
    case 2:
        return box.hi;
    default:
        return {box.lo.x, box.hi.y};
    }
}

/**
 * 0 or +-2^-k for k in [30, 50]: offsets that straddle the 1e-12
 * colinearity band of the orientation test at arm scale (boxes and
 * links of ~0.1 m).
 */
double
nudge(Rng &rng)
{
    if (rng.chance(0.25))
        return 0.0;
    const double m = std::ldexp(1.0, -static_cast<int>(rng.intRange(30, 50)));
    return rng.chance(0.5) ? m : -m;
}

Vec2
nudged(const Vec2 &p, Rng &rng)
{
    return {p.x + nudge(rng), p.y + nudge(rng)};
}

/** A finite box with lo <= hi, inside the arm workspace's scale. */
Aabb2
randomBox(Rng &rng, bool zero_width, bool zero_height)
{
    const double x = rng.uniform(0.0, 0.5);
    const double y = rng.uniform(0.0, 0.5);
    const double w = zero_width ? 0.0 : rng.uniform(0.0, 0.1);
    const double h = zero_height ? 0.0 : rng.uniform(0.0, 0.1);
    return {{x, y}, {x + w, y + h}};
}

/**
 * A point on, near or away from @p box: a corner, a point on the line
 * through an edge (beyond its ends too), or anywhere nearby; nudged.
 */
Vec2
snappedPoint(const Aabb2 &box, Rng &rng)
{
    const int edge = static_cast<int>(rng.index(4));
    const Vec2 a = boxCorner(box, edge);
    const Vec2 b = boxCorner(box, edge + 1);
    switch (rng.index(3)) {
    case 0:
        return nudged(a, rng);
    case 1:
        return nudged(a + (b - a) * rng.uniform(-0.5, 1.5), rng);
    default:
        return nudged({rng.uniform(-0.1, 0.7), rng.uniform(-0.1, 0.7)}, rng);
    }
}

/**
 * A link nearly parallel to the line through one of the box's edges,
 * its endpoints on opposite sides of that line by a nudge each, and
 * spanning anything from inside the edge to past both of its ends.
 */
Segment2
straddlingLink(const Aabb2 &box, Rng &rng)
{
    const int edge = static_cast<int>(rng.index(4));
    const Vec2 a = boxCorner(box, edge);
    const Vec2 b = boxCorner(box, edge + 1);
    const double off = std::abs(nudge(rng));
    const double back = std::abs(nudge(rng));
    const Vec2 side = edge % 2 == 0 ? Vec2{0.0, 1.0} : Vec2{1.0, 0.0};
    return {a + (b - a) * rng.uniform(-1.0, 2.0) + side * off,
            a + (b - a) * rng.uniform(-1.0, 2.0) - side * back};
}

/**
 * The fast segmentIntersectsAabb() must return the oracle's answer on
 * every input the arm checker can feed it (finite boxes, lo <= hi),
 * with the adversarial cases weighted up: endpoints on or within
 * 2^-30..2^-50 of box edge lines and corners, near-parallel links that
 * straddle an edge line, zero-length links and zero-width boxes. Each
 * family must produce both answers, or it tests nothing.
 */
TEST(Segment, AabbIntersectionMatchesReferenceOracle)
{
    constexpr int kFamilies = 5;
    constexpr int kCasesPerFamily = 240000;
    const char *names[kFamilies] = {"random", "snapped", "straddling",
                                    "zero-length", "zero-width"};
    Rng rng(2024);
    for (int family = 0; family < kFamilies; ++family) {
        std::size_t hits = 0, mismatches = 0;
        for (int i = 0; i < kCasesPerFamily; ++i) {
            Aabb2 box;
            Segment2 link;
            switch (family) {
            case 0:
                box = randomBox(rng, false, false);
                link = {{rng.uniform(-0.1, 0.7), rng.uniform(-0.1, 0.7)},
                        {rng.uniform(-0.1, 0.7), rng.uniform(-0.1, 0.7)}};
                break;
            case 1:
                box = randomBox(rng, false, false);
                link = {snappedPoint(box, rng), snappedPoint(box, rng)};
                break;
            case 2:
                box = randomBox(rng, false, false);
                link = straddlingLink(box, rng);
                break;
            case 3:
                box = randomBox(rng, false, false);
                link.a = link.b = snappedPoint(box, rng);
                break;
            default: {
                const std::size_t shape = rng.index(3); // |, -, or a point
                box = randomBox(rng, shape != 1, shape != 0);
                link = rng.chance(0.5)
                           ? straddlingLink(box, rng)
                           : Segment2{snappedPoint(box, rng),
                                      snappedPoint(box, rng)};
                break;
            }
            }
            const bool expected = referenceSegmentIntersectsAabb(link, box);
            hits += expected ? 1 : 0;
            if (segmentIntersectsAabb(link, box) != expected &&
                ++mismatches <= 3) {
                ADD_FAILURE() << std::hexfloat << names[family]
                              << " case " << i << ": link (" << link.a.x
                              << ", " << link.a.y << ")-(" << link.b.x
                              << ", " << link.b.y << ") box (" << box.lo.x
                              << ", " << box.lo.y << ")-(" << box.hi.x
                              << ", " << box.hi.y << ") expected "
                              << expected;
            }
        }
        EXPECT_EQ(mismatches, 0u) << names[family];
        EXPECT_GT(hits, kCasesPerFamily / 100u) << names[family];
        EXPECT_LT(hits, kCasesPerFamily - kCasesPerFamily / 100u)
            << names[family];
    }
}

TEST(Aabb2, ContainsAndOverlaps)
{
    Aabb2 a{{0, 0}, {2, 2}};
    Aabb2 b{{1, 1}, {3, 3}};
    Aabb2 c{{2.5, 2.5}, {4, 4}};
    EXPECT_TRUE(a.contains({1, 1}));
    EXPECT_FALSE(a.contains({2.1, 1}));
    EXPECT_TRUE(a.overlaps(b));
    EXPECT_FALSE(a.overlaps(c));
    EXPECT_EQ(a.center(), (Vec2{1, 1}));
    EXPECT_DOUBLE_EQ(b.width(), 2.0);
}

TEST(Aabb3, RayIntersection)
{
    Aabb3 box{{1, -1, -1}, {2, 1, 1}};
    double t = 0.0;
    EXPECT_TRUE(box.intersectRay({0, 0, 0}, {1, 0, 0}, &t));
    EXPECT_DOUBLE_EQ(t, 1.0);
    EXPECT_FALSE(box.intersectRay({0, 0, 0}, {-1, 0, 0}, &t));
    EXPECT_FALSE(box.intersectRay({0, 5, 0}, {1, 0, 0}, &t));
    // Diagonal hit.
    EXPECT_TRUE(box.intersectRay({0, 0, 0}, {1, 0.1, 0.1}, &t));
}

TEST(Aabb3, RayFromInside)
{
    Aabb3 box{{0, 0, 0}, {2, 2, 2}};
    double t = -1.0;
    EXPECT_TRUE(box.intersectRay({1, 1, 1}, {1, 0, 0}, &t));
    EXPECT_DOUBLE_EQ(t, 0.0);
}

} // namespace
} // namespace rtr
