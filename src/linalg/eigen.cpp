#include "linalg/eigen.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/logging.h"
#include "util/simd.h"

namespace rtr {

namespace {

/**
 * Plane rotation of two contiguous rows: x'[k] = c*x[k] - s*y[k],
 * y'[k] = s*x[k] + c*y[k]. Per-element arithmetic is unchanged from
 * the scalar loop (two multiplies and an add/sub per output), so the
 * vectorized form is bitwise identical to it.
 */
inline void
rotateRows(double *x, double *y, double c, double s, std::size_t n,
           bool use_simd)
{
    using simd::VecD;
    std::size_t k = 0;
    if (use_simd) {
        const VecD vc = VecD::broadcast(c);
        const VecD vs = VecD::broadcast(s);
        for (; k + VecD::kWidth <= n; k += VecD::kWidth) {
            const VecD xv = VecD::load(x + k);
            const VecD yv = VecD::load(y + k);
            (vc * xv - vs * yv).store(x + k);
            (vs * xv + vc * yv).store(y + k);
        }
    }
    for (; k < n; ++k) {
        const double xk = x[k], yk = y[k];
        x[k] = c * xk - s * yk;
        y[k] = s * xk + c * yk;
    }
}

/**
 * The cyclic Jacobi loop behind every entry point. a and v are
 * row-major n x n work buffers: a holds the input and is reduced to
 * near-diagonal form, v must hold the identity and accumulates the
 * rotations. N > 0 fixes n at compile time so the loops unroll; N == 0
 * takes it at run time. The caller owns all storage: order (n
 * indices), values (n) and vectors (n x n, column j pairs with
 * values[j]), so a fixed-size caller allocates nothing.
 */
template <std::size_t N, typename Order>
void
jacobiEigen(double *a, double *v, std::size_t n_runtime, int max_sweeps,
            Order &order, double *values, double *vectors)
{
    const std::size_t n = N > 0 ? N : n_runtime;
    const bool use_simd = simdKernelsEnabled();
    for (int sweep = 0; sweep < max_sweeps; ++sweep) {
        // Sum of squared off-diagonal magnitudes decides convergence.
        double off = 0.0;
        for (std::size_t r = 0; r < n; ++r) {
            for (std::size_t c = r + 1; c < n; ++c)
                off += a[r * n + c] * a[r * n + c];
        }
        if (off < 1e-24)
            break;

        for (std::size_t p = 0; p < n; ++p) {
            for (std::size_t q = p + 1; q < n; ++q) {
                const double apq = a[p * n + q];
                if (std::abs(apq) < 1e-300)
                    continue;
                // Compute the Jacobi rotation that zeroes a(p,q).
                double theta = (a[q * n + q] - a[p * n + p]) / (2.0 * apq);
                double t = (theta >= 0 ? 1.0 : -1.0) /
                           (std::abs(theta) +
                            std::sqrt(theta * theta + 1.0));
                double c = 1.0 / std::sqrt(t * t + 1.0);
                double s = t * c;

                for (std::size_t k = 0; k < n; ++k) {
                    double akp = a[k * n + p], akq = a[k * n + q];
                    a[k * n + p] = c * akp - s * akq;
                    a[k * n + q] = s * akp + c * akq;
                }
                // Rows p and q are contiguous; the column updates above
                // and the eigenvector update below are strided and stay
                // scalar.
                rotateRows(a + p * n, a + q * n, c, s, n, use_simd);
                for (std::size_t k = 0; k < n; ++k) {
                    double vkp = v[k * n + p], vkq = v[k * n + q];
                    v[k * n + p] = c * vkp - s * vkq;
                    v[k * n + q] = s * vkp + c * vkq;
                }
            }
        }
    }

    // Sort eigenpairs by descending eigenvalue. std::sort on n <= 16
    // elements is an insertion sort, so ties keep index order.
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t i, std::size_t j) {
        return a[i * n + i] > a[j * n + j];
    });
    for (std::size_t j = 0; j < n; ++j) {
        values[j] = a[order[j] * n + order[j]];
        for (std::size_t i = 0; i < n; ++i)
            vectors[i * n + j] = v[i * n + order[j]];
    }
}

} // namespace

SymmetricEigen
symmetricEigen(const Matrix &input, int max_sweeps)
{
    RTR_ASSERT(input.rows() == input.cols(), "eigen of non-square matrix");
    const std::size_t n = input.rows();
    Matrix a = input;
    Matrix v = Matrix::identity(n);
    std::vector<std::size_t> order(n);
    SymmetricEigen result;
    result.values.resize(n);
    result.vectors = Matrix(n, n);
    jacobiEigen<0>(a.data(), v.data(), n, max_sweeps, order,
                   result.values.data(), result.vectors.data());
    return result;
}

template <std::size_t N>
FixedSymmetricEigen<N>
symmetricEigenFixed(const std::array<double, N * N> &input,
                    int max_sweeps)
{
    std::array<double, N * N> a = input;
    std::array<double, N * N> v{};
    for (std::size_t i = 0; i < N; ++i)
        v[i * N + i] = 1.0;
    std::array<std::size_t, N> order{};
    FixedSymmetricEigen<N> result{};
    jacobiEigen<N>(a.data(), v.data(), N, max_sweeps, order,
                   result.values.data(), result.vectors.data());
    return result;
}

template FixedSymmetricEigen<3>
symmetricEigenFixed<3>(const std::array<double, 9> &, int);

} // namespace rtr
