/**
 * @file
 * Property suite for the SIMD dense-linalg micro-kernels.
 *
 * The contract (DESIGN.md "Dense linear algebra"): the SIMD paths of
 * the matrix product and the Cholesky/LU factor+solve are BITWISE
 * identical to the preserved scalar reference paths, for every shape —
 * including sizes that are not multiples of the vector width. These
 * tests sweep sizes 1..17, compare with memcmp (not a tolerance), and
 * additionally pin IEEE NaN/Inf propagation.
 *
 * Both dispatch paths run in-process via the runtime flag
 * (ScopedSimdKernels); under -DRTR_FORCE_SCALAR_SIMD=ON both paths
 * compile to scalar code and the suite degenerates to self-consistency,
 * which is exactly what the scalar CI leg is for.
 */

#include <cmath>
#include <cstring>
#include <random>

#include <gtest/gtest.h>

#include "linalg/decomp.h"
#include "linalg/matrix.h"
#include "util/simd.h"

namespace rtr {
namespace {

bool
bitwiseEqual(const Matrix &a, const Matrix &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return false;
    return std::memcmp(a.data(), b.data(),
                       sizeof(double) * a.rows() * a.cols()) == 0;
}

Matrix
randomMatrix(std::size_t rows, std::size_t cols, std::mt19937 &rng)
{
    std::uniform_real_distribution<double> dist(-2.0, 2.0);
    Matrix m(rows, cols);
    for (std::size_t i = 0; i < rows * cols; ++i)
        m.data()[i] = dist(rng);
    return m;
}

Matrix
randomSpd(std::size_t n, std::mt19937 &rng)
{
    Matrix a = randomMatrix(n, n, rng);
    Matrix spd = a * a.transposed();
    for (std::size_t i = 0; i < n; ++i)
        spd(i, i) += static_cast<double>(n);
    return spd;
}

TEST(LinalgSimd, BackendReportsSaneWidth)
{
    const std::size_t w = simd::VecD::kWidth;
    EXPECT_TRUE(w == 1 || w == 2 || w == 4);
#if defined(RTR_FORCE_SCALAR_SIMD)
    EXPECT_EQ(w, 1u);
    EXPECT_STREQ(simd::kBackendName, "scalar");
#endif
}

TEST(LinalgSimd, RuntimeFlagRoundTrips)
{
    const bool before = simdKernelsEnabled();
    {
        ScopedSimdKernels off(false);
        EXPECT_FALSE(simdKernelsEnabled());
        {
            ScopedSimdKernels on(true);
            EXPECT_TRUE(simdKernelsEnabled());
        }
        EXPECT_FALSE(simdKernelsEnabled());
    }
    EXPECT_EQ(simdKernelsEnabled(), before);
}

TEST(LinalgSimd, MultiplyBitwiseMatchesScalarAcrossSizes)
{
    std::mt19937 rng(7);
    for (std::size_t m = 1; m <= 17; ++m) {
        for (std::size_t k : {1u, 2u, 3u, 5u, 8u, 13u, 17u}) {
            for (std::size_t n = 1; n <= 17; ++n) {
                Matrix a = randomMatrix(m, k, rng);
                Matrix b = randomMatrix(k, n, rng);
                const Matrix ref = a.multiplyScalar(b);
                ScopedSimdKernels on(true);
                const Matrix simd = a * b;
                ASSERT_TRUE(bitwiseEqual(ref, simd))
                    << "simd product differs at " << m << "x" << k << "x"
                    << n;
            }
        }
    }
}

TEST(LinalgSimd, CholeskyFactorAndLogDetBitwiseAcrossSizes)
{
    std::mt19937 rng(23);
    for (std::size_t n = 1; n <= 17; ++n) {
        Matrix spd = randomSpd(n, rng);
        ScopedSimdKernels off(false);
        CholeskyDecomposition ref(spd);
        setSimdKernelsEnabled(true);
        CholeskyDecomposition simd(spd);
        ASSERT_FALSE(ref.failed());
        ASSERT_FALSE(simd.failed());
        ASSERT_TRUE(bitwiseEqual(ref.lower(), simd.lower()))
            << "Cholesky factor differs at n=" << n;
        // Bitwise-equal factors make logDeterminant bitwise equal too.
        const double ld_ref = ref.logDeterminant();
        const double ld_simd = simd.logDeterminant();
        ASSERT_EQ(std::memcmp(&ld_ref, &ld_simd, sizeof(double)), 0);
    }
}

TEST(LinalgSimd, CholeskySolveBitwiseAcrossSizesAndRhsWidths)
{
    std::mt19937 rng(29);
    for (std::size_t n = 1; n <= 17; ++n) {
        Matrix spd = randomSpd(n, rng);
        // One decomposition per flag setting: factor AND solve must
        // both be flag-independent.
        ScopedSimdKernels off(false);
        CholeskyDecomposition ref(spd);
        setSimdKernelsEnabled(true);
        CholeskyDecomposition simd(spd);
        for (std::size_t m : {1u, 2u, 3u, 5u}) {
            Matrix b = randomMatrix(n, m, rng);
            setSimdKernelsEnabled(false);
            const Matrix x_ref = ref.solve(b);
            setSimdKernelsEnabled(true);
            const Matrix x_simd = simd.solve(b);
            ASSERT_TRUE(bitwiseEqual(x_ref, x_simd))
                << "Cholesky solve differs at n=" << n << " rhs=" << m;
        }
    }
}

TEST(LinalgSimd, CholeskySolveIntoMatchesSolve)
{
    std::mt19937 rng(31);
    Matrix spd = randomSpd(13, rng);
    CholeskyDecomposition chol(spd);
    Matrix b = randomMatrix(13, 1, rng);
    const Matrix x = chol.solve(b);
    Matrix into;
    chol.solveInto(b, into);
    EXPECT_TRUE(bitwiseEqual(x, into));
    // In-place: x aliasing b is supported for solveInto.
    Matrix b2 = b;
    chol.solveInto(b2, b2);
    EXPECT_TRUE(bitwiseEqual(x, b2));
}

TEST(LinalgSimd, CholeskyFailureFlagAgreesOnNonSpd)
{
    Matrix not_spd{{1.0, 2.0}, {2.0, 1.0}}; // eigenvalues 3, -1
    ScopedSimdKernels off(false);
    CholeskyDecomposition ref(not_spd);
    setSimdKernelsEnabled(true);
    CholeskyDecomposition simd(not_spd);
    EXPECT_TRUE(ref.failed());
    EXPECT_TRUE(simd.failed());
}

TEST(LinalgSimd, LuSolveAndInverseBitwiseAcrossSizes)
{
    std::mt19937 rng(37);
    for (std::size_t n : {1u, 2u, 3u, 5u, 8u, 13u, 17u}) {
        Matrix a = randomMatrix(n, n, rng);
        for (std::size_t i = 0; i < n; ++i)
            a(i, i) += 3.0; // keep it comfortably non-singular
        Matrix b = randomMatrix(n, 3, rng);
        ScopedSimdKernels off(false);
        LuDecomposition lu_ref(a);
        const Matrix x_ref = lu_ref.solve(b);
        const Matrix inv_ref = lu_ref.inverse();
        setSimdKernelsEnabled(true);
        LuDecomposition lu_simd(a);
        const Matrix x_simd = lu_simd.solve(b);
        const Matrix inv_simd = lu_simd.inverse();
        ASSERT_TRUE(bitwiseEqual(x_ref, x_simd)) << "LU solve n=" << n;
        ASSERT_TRUE(bitwiseEqual(inv_ref, inv_simd)) << "LU inverse n=" << n;
    }
}

TEST(LinalgSimd, NanPropagatesThroughZeroWeightedRows)
{
    // The seed's zero-skip branch turned 0 * NaN into 0. IEEE says NaN;
    // both paths must now agree on that.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    Matrix a(2, 2); // all zeros
    Matrix b = Matrix::identity(2);
    b(0, 0) = nan;
    const Matrix ref = a.multiplyScalar(b);
    ScopedSimdKernels on(true);
    const Matrix simd = a * b;
    EXPECT_TRUE(std::isnan(ref(0, 0)));
    EXPECT_TRUE(std::isnan(simd(0, 0)));
    EXPECT_TRUE(bitwiseEqual(ref, simd));
}

TEST(LinalgSimd, InfAndNanPropagationBitwiseAgrees)
{
    std::mt19937 rng(41);
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (std::size_t n : {3u, 7u, 11u}) {
        Matrix a = randomMatrix(n, n, rng);
        Matrix b = randomMatrix(n, n, rng);
        a(0, n / 2) = inf;
        b(n / 2, n - 1) = -inf; // inf * -inf and inf * finite mix
        a(n - 1, 0) = nan;
        const Matrix ref = a.multiplyScalar(b);
        ScopedSimdKernels on(true);
        const Matrix simd = a * b;
        ASSERT_TRUE(bitwiseEqual(ref, simd)) << "NaN/Inf differs n=" << n;
        EXPECT_TRUE(std::isnan(simd(n - 1, 0)));
    }
}

TEST(LinalgSimd, EmptyAndDegenerateShapes)
{
    Matrix empty;
    ScopedSimdKernels on(true);
    Matrix out = empty * empty;
    EXPECT_EQ(out.rows(), 0u);
    EXPECT_EQ(out.cols(), 0u);
    // Inner dimension 0: product is the zero matrix.
    Matrix a(3, 0), b(0, 4);
    Matrix z = a * b;
    EXPECT_TRUE(z.approxEquals(Matrix(3, 4), 0.0));
    EXPECT_TRUE(z.approxEquals(a.multiplyScalar(b), 0.0));
}

} // namespace
} // namespace rtr
