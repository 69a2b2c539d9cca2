/**
 * @file
 * Unit and property tests for the linalg library: Matrix, LU, Cholesky,
 * and the symmetric eigensolver.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "linalg/decomp.h"
#include "linalg/eigen.h"
#include "linalg/matrix.h"
#include "pointcloud/icp.h"
#include "util/rng.h"

namespace rtr {
namespace {

Matrix
randomMatrix(std::size_t rows, std::size_t cols, Rng &rng)
{
    Matrix m(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c)
            m(r, c) = rng.uniform(-1.0, 1.0);
    }
    return m;
}

Matrix
randomSpd(std::size_t n, Rng &rng)
{
    Matrix a = randomMatrix(n, n, rng);
    // A^T A + n I is symmetric positive definite.
    Matrix spd = a.transposed() * a;
    for (std::size_t i = 0; i < n; ++i)
        spd(i, i) += static_cast<double>(n);
    return spd;
}

TEST(Matrix, ConstructionAndAccess)
{
    Matrix m{{1, 2, 3}, {4, 5, 6}};
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_DOUBLE_EQ(m(1, 2), 6.0);
    m(0, 0) = 9.0;
    EXPECT_DOUBLE_EQ(m(0, 0), 9.0);
}

TEST(Matrix, IdentityAndDiagonal)
{
    Matrix id = Matrix::identity(3);
    EXPECT_DOUBLE_EQ(id.trace(), 3.0);
    Matrix d = Matrix::diagonal({1, 2, 3});
    EXPECT_DOUBLE_EQ(d(1, 1), 2.0);
    EXPECT_DOUBLE_EQ(d(0, 1), 0.0);
}

TEST(Matrix, MultiplicationAgainstKnownResult)
{
    Matrix a{{1, 2}, {3, 4}};
    Matrix b{{5, 6}, {7, 8}};
    Matrix c = a * b;
    EXPECT_TRUE(c.approxEquals(Matrix{{19, 22}, {43, 50}}));
}

TEST(Matrix, MultiplyByIdentityIsNoop)
{
    Rng rng(1);
    Matrix a = randomMatrix(4, 4, rng);
    EXPECT_TRUE((a * Matrix::identity(4)).approxEquals(a));
    EXPECT_TRUE((Matrix::identity(4) * a).approxEquals(a));
}

TEST(Matrix, TransposeInvolution)
{
    Rng rng(2);
    Matrix a = randomMatrix(3, 5, rng);
    EXPECT_TRUE(a.transposed().transposed().approxEquals(a));
    // (AB)^T = B^T A^T
    Matrix b = randomMatrix(5, 2, rng);
    EXPECT_TRUE((a * b).transposed().approxEquals(b.transposed() *
                                                  a.transposed()));
}

TEST(Matrix, BlockRoundTrip)
{
    Matrix m(4, 4);
    Matrix sub{{1, 2}, {3, 4}};
    m.setBlock(1, 2, sub);
    EXPECT_TRUE(m.block(1, 2, 2, 2).approxEquals(sub));
    EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
}

TEST(Matrix, AddSubScale)
{
    Matrix a{{1, 2}, {3, 4}};
    Matrix b{{4, 3}, {2, 1}};
    EXPECT_TRUE((a + b).approxEquals(Matrix{{5, 5}, {5, 5}}));
    EXPECT_TRUE((a - a).approxEquals(Matrix(2, 2)));
    EXPECT_TRUE((a * 2.0).approxEquals(Matrix{{2, 4}, {6, 8}}));
}

TEST(Matrix, FrobeniusNorm)
{
    Matrix m{{3, 0}, {0, 4}};
    EXPECT_DOUBLE_EQ(m.frobeniusNorm(), 5.0);
}

/** LU inversion property over a range of sizes. */
class LuSizes : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(LuSizes, InverseTimesSelfIsIdentity)
{
    Rng rng(GetParam() * 31 + 1);
    std::size_t n = GetParam();
    Matrix a = randomMatrix(n, n, rng);
    for (std::size_t i = 0; i < n; ++i)
        a(i, i) += 2.0;  // keep it comfortably nonsingular
    Matrix inv = inverse(a);
    EXPECT_TRUE((a * inv).approxEquals(Matrix::identity(n), 1e-8));
    EXPECT_TRUE((inv * a).approxEquals(Matrix::identity(n), 1e-8));
}

TEST_P(LuSizes, SolveMatchesMultiplication)
{
    Rng rng(GetParam() * 17 + 5);
    std::size_t n = GetParam();
    Matrix a = randomMatrix(n, n, rng);
    for (std::size_t i = 0; i < n; ++i)
        a(i, i) += 2.0;
    Matrix x_true = randomMatrix(n, 2, rng);
    Matrix b = a * x_true;
    Matrix x = solve(a, b);
    EXPECT_TRUE(x.approxEquals(x_true, 1e-8));
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuSizes,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21));

TEST(Lu, DetectsSingularity)
{
    Matrix singular{{1, 2}, {2, 4}};
    LuDecomposition lu(singular);
    EXPECT_TRUE(lu.singular());
    EXPECT_DOUBLE_EQ(lu.determinant(), 0.0);
}

TEST(Lu, DeterminantKnownValues)
{
    LuDecomposition lu(Matrix{{2, 0}, {0, 3}});
    EXPECT_NEAR(lu.determinant(), 6.0, 1e-12);
    // Permutation-sensitive sign.
    LuDecomposition swapped(Matrix{{0, 1}, {1, 0}});
    EXPECT_NEAR(swapped.determinant(), -1.0, 1e-12);
}

TEST(Lu, DeterminantMultiplicative)
{
    Rng rng(23);
    Matrix a = randomMatrix(4, 4, rng);
    Matrix b = randomMatrix(4, 4, rng);
    double det_a = LuDecomposition(a).determinant();
    double det_b = LuDecomposition(b).determinant();
    double det_ab = LuDecomposition(a * b).determinant();
    EXPECT_NEAR(det_ab, det_a * det_b, 1e-8 * std::abs(det_ab) + 1e-10);
}

/** Cholesky property over sizes. */
class CholeskySizes : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(CholeskySizes, FactorReconstructs)
{
    Rng rng(GetParam() * 7 + 3);
    Matrix spd = randomSpd(GetParam(), rng);
    CholeskyDecomposition chol(spd);
    ASSERT_FALSE(chol.failed());
    const Matrix &l = chol.lower();
    EXPECT_TRUE((l * l.transposed()).approxEquals(spd, 1e-8));
}

TEST_P(CholeskySizes, SolveAgreesWithLu)
{
    Rng rng(GetParam() * 13 + 7);
    Matrix spd = randomSpd(GetParam(), rng);
    Matrix b = randomMatrix(GetParam(), 1, rng);
    CholeskyDecomposition chol(spd);
    ASSERT_FALSE(chol.failed());
    EXPECT_TRUE(chol.solve(b).approxEquals(solve(spd, b), 1e-7));
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskySizes,
                         ::testing::Values(1, 2, 4, 9, 16));

TEST(Cholesky, RejectsIndefinite)
{
    Matrix indefinite{{1, 0}, {0, -1}};
    CholeskyDecomposition chol(indefinite);
    EXPECT_TRUE(chol.failed());
}

TEST(Cholesky, LogDeterminant)
{
    Matrix spd{{4, 0}, {0, 9}};
    CholeskyDecomposition chol(spd);
    ASSERT_FALSE(chol.failed());
    EXPECT_NEAR(chol.logDeterminant(), std::log(36.0), 1e-10);
}

TEST(Eigen, DiagonalMatrixEigenvaluesSorted)
{
    SymmetricEigen eig = symmetricEigen(Matrix::diagonal({1.0, 5.0, 3.0}));
    ASSERT_EQ(eig.values.size(), 3u);
    EXPECT_NEAR(eig.values[0], 5.0, 1e-10);
    EXPECT_NEAR(eig.values[1], 3.0, 1e-10);
    EXPECT_NEAR(eig.values[2], 1.0, 1e-10);
}

TEST(Eigen, ReconstructsMatrix)
{
    Rng rng(31);
    Matrix spd = randomSpd(6, rng);
    SymmetricEigen eig = symmetricEigen(spd);
    Matrix lambda = Matrix::diagonal(eig.values);
    Matrix reconstructed =
        eig.vectors * lambda * eig.vectors.transposed();
    EXPECT_TRUE(reconstructed.approxEquals(spd, 1e-7));
}

TEST(Eigen, VectorsAreOrthonormal)
{
    Rng rng(37);
    Matrix spd = randomSpd(5, rng);
    SymmetricEigen eig = symmetricEigen(spd);
    Matrix should_be_identity = eig.vectors.transposed() * eig.vectors;
    EXPECT_TRUE(should_be_identity.approxEquals(Matrix::identity(5),
                                                1e-8));
}

TEST(Eigen, EigenpairsSatisfyDefinition)
{
    Rng rng(41);
    Matrix spd = randomSpd(4, rng);
    SymmetricEigen eig = symmetricEigen(spd);
    for (std::size_t j = 0; j < 4; ++j) {
        Matrix v = eig.vectors.block(0, j, 4, 1);
        Matrix av = spd * v;
        Matrix lv = v * eig.values[j];
        EXPECT_TRUE(av.approxEquals(lv, 1e-7));
    }
}

// ---- Fixed-size Jacobi (symmetricEigenFixed) --------------------------
//
// The inputs below come from raw mt19937_64 bits, not from
// std::uniform_real_distribution, so they are the same under every
// standard library and the digests can be pinned.

/** Uniform double in [lo, hi) from raw mt19937_64 bits. */
double
bitsUniform(std::mt19937_64 &engine, double lo, double hi)
{
    const double unit = static_cast<double>(engine() >> 11) * 0x1p-53;
    return lo + (hi - lo) * unit;
}

/** Random symmetric 3x3 (row-major) with entries over 12 decades. */
std::array<double, 9>
randomSymmetric3(std::mt19937_64 &engine)
{
    static constexpr double kScales[] = {1e-6, 1e-3, 1.0, 1e3, 1e6};
    const double scale = kScales[engine() % 5];
    std::array<double, 9> a{};
    for (std::size_t r = 0; r < 3; ++r) {
        for (std::size_t c = r; c < 3; ++c) {
            a[r * 3 + c] = scale * bitsUniform(engine, -1.0, 1.0);
            a[c * 3 + r] = a[r * 3 + c];
        }
    }
    return a;
}

/** FNV-1a over the bit patterns of a run of doubles. */
std::uint64_t
fnv1a(std::uint64_t h, const double *v, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        const auto bits = std::bit_cast<std::uint64_t>(v[i]);
        for (int b = 0; b < 64; b += 8) {
            h ^= (bits >> b) & 0xffu;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/** Bitwise equality of two doubles (distinguishes -0.0 and NaNs). */
bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/** symmetricEigenFixed<3> against symmetricEigen, bit for bit. */
void
expectFixedMatchesDynamic(const std::array<double, 9> &a)
{
    Matrix m(3, 3);
    std::copy(a.begin(), a.end(), m.data());
    const SymmetricEigen dyn = symmetricEigen(m);
    const FixedSymmetricEigen<3> fixed = symmetricEigenFixed<3>(a);
    for (std::size_t j = 0; j < 3; ++j) {
        EXPECT_TRUE(sameBits(fixed.values[j], dyn.values[j]))
            << "value " << j << ": " << fixed.values[j] << " vs "
            << dyn.values[j];
        for (std::size_t i = 0; i < 3; ++i)
            EXPECT_TRUE(sameBits(fixed.vector(i, j), dyn.vectors(i, j)))
                << "vector (" << i << "," << j << ")";
    }
}

TEST(EigenFixed, BitwiseMatchesDynamicOnRandomInputs)
{
    for (bool simd : {true, false}) {
        ScopedSimdKernels scope(simd);
        std::mt19937_64 engine(99);
        for (int i = 0; i < 10000; ++i) {
            expectFixedMatchesDynamic(randomSymmetric3(engine));
            if (::testing::Test::HasFailure())
                FAIL() << "case " << i << " simd=" << simd;
        }
    }
}

TEST(EigenFixed, BitwiseMatchesDynamicOnDegenerateInputs)
{
    // Rank-1: v vᵀ.
    const double v[3] = {0.3, -1.7, 2.2};
    std::array<double, 9> rank1{};
    for (std::size_t r = 0; r < 3; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            rank1[r * 3 + c] = v[r] * v[c];
    const std::vector<std::array<double, 9>> cases{
        // Zero, diagonal, and repeated eigenvalues.
        {0, 0, 0, 0, 0, 0, 0, 0, 0},
        {3, 0, 0, 0, -1, 0, 0, 0, 2},
        {2, 0, 0, 0, 2, 0, 0, 0, 2},
        {1, 0, 0, 0, 5, 0, 0, 0, 1},
        {2, 1, 1, 1, 2, 1, 1, 1, 2},       // eigenvalues 4, 1, 1
        {1, 0, 0, 0, 1.5, 0.5, 0, 0.5, 1.5}, // eigenvalues 2, 1, 1
        rank1,
        // Off-diagonals at, just below and just above the 1e-300 skip
        // cutoff, subnormal couplings, and signed zeros.
        {1, 1e-300, 0, 1e-300, 2, 0, 0, 0, 3},
        {1, 5e-301, -1e-299, 5e-301, 1, 2e-300, -1e-299, 2e-300, 1},
        {4, 1e-310, 1e-310, 1e-310, 4, 1e-310, 1e-310, 1e-310, 4},
        {1e-300, 1e-300, 0, 1e-300, 1e-300, 0, 0, 0, 1e-300},
        {-0.0, 0, 0, 0, 0.0, 0, 0, 0, -0.0},
    };
    for (bool simd : {true, false}) {
        ScopedSimdKernels scope(simd);
        for (std::size_t i = 0; i < cases.size(); ++i) {
            SCOPED_TRACE(::testing::Message()
                         << "case " << i << " simd=" << simd);
            expectFixedMatchesDynamic(cases[i]);
        }
    }
}

TEST(EigenFixed, DynamicAndHornPathsMatchPinnedDigests)
{
    // Digests of the symmetricEigen outputs on 10000 random 3x3 inputs
    // and of bestRigidTransform (Horn's 4x4 quaternion eigensolve) on
    // 200 random correspondence sets, recorded from the Matrix-based
    // Jacobi that preceded the shared fixed/dynamic loop. Any change
    // to the floating-point operations or their order moves them.
    constexpr std::uint64_t kEigenDigest = 0x2d0487a5a3065c11ULL;
    constexpr std::uint64_t kHornDigest = 0xda04771278b40c8eULL;
    for (bool simd : {true, false}) {
        ScopedSimdKernels scope(simd);
        std::mt19937_64 engine(2024);
        std::uint64_t eigen = kFnvOffset;
        for (int i = 0; i < 10000; ++i) {
            const std::array<double, 9> a = randomSymmetric3(engine);
            Matrix m(3, 3);
            std::copy(a.begin(), a.end(), m.data());
            const SymmetricEigen eig = symmetricEigen(m);
            eigen = fnv1a(eigen, eig.values.data(), 3);
            eigen = fnv1a(eigen, eig.vectors.data(), 9);
        }
        EXPECT_EQ(eigen, kEigenDigest) << "simd=" << simd;

        std::mt19937_64 horn_engine(7);
        std::uint64_t horn = kFnvOffset;
        for (int i = 0; i < 200; ++i) {
            const std::size_t n = 3 + horn_engine() % 60;
            std::vector<Vec3> source(n), target(n);
            for (std::size_t j = 0; j < n; ++j) {
                source[j] = {bitsUniform(horn_engine, -2, 2),
                             bitsUniform(horn_engine, -2, 2),
                             bitsUniform(horn_engine, -2, 2)};
                target[j] = {source[j].y + bitsUniform(horn_engine, -0.1, 0.1),
                             -source[j].x + bitsUniform(horn_engine, -0.1, 0.1),
                             source[j].z + 0.5};
            }
            const RigidTransform3 t = bestRigidTransform(source, target);
            horn = fnv1a(horn, t.rotation.data(), 9);
            const double tr[3] = {t.translation.x, t.translation.y,
                                  t.translation.z};
            horn = fnv1a(horn, tr, 3);
        }
        EXPECT_EQ(horn, kHornDigest) << "simd=" << simd;
    }
}

} // namespace
} // namespace rtr
