/**
 * @file
 * Symmetric eigen decomposition (cyclic Jacobi).
 *
 * Used by the ICP substrate: the optimal rotation between point-cloud
 * correspondences is recovered from the dominant eigenvector of Horn's
 * 4x4 symmetric quaternion matrix, and every surface normal of the
 * scene-reconstruction kernel is the smallest eigenvector of a 3x3
 * neighborhood covariance.
 */

#ifndef RTR_LINALG_EIGEN_H
#define RTR_LINALG_EIGEN_H

#include <array>
#include <cstddef>
#include <vector>

#include "linalg/matrix.h"

namespace rtr {

/** Result of a symmetric eigen decomposition. */
struct SymmetricEigen
{
    /** Eigenvalues in descending order. */
    std::vector<double> values;
    /** Matching eigenvectors as matrix columns. */
    Matrix vectors;
};

/**
 * Eigen decomposition of a symmetric matrix by the cyclic Jacobi method.
 * The input must be symmetric; asymmetry beyond roundoff is a caller bug.
 */
SymmetricEigen symmetricEigen(const Matrix &a, int max_sweeps = 64);

/**
 * Allocation-free result of symmetricEigenFixed: the same values and
 * vectors as SymmetricEigen, held inline.
 */
template <std::size_t N>
struct FixedSymmetricEigen
{
    /** Eigenvalues in descending order. */
    std::array<double, N> values;
    /** Row-major N x N; column j is the eigenvector of values[j]. */
    std::array<double, N * N> vectors;

    double vector(std::size_t row, std::size_t col) const
    {
        return vectors[row * N + col];
    }
};

/**
 * symmetricEigen for a compile-time size on a row-major N x N input,
 * with no heap allocation (the per-point path of normal estimation).
 * It runs the same Jacobi loop as symmetricEigen, so its values and
 * vectors are bitwise identical to it. Instantiated for N = 3.
 */
template <std::size_t N>
FixedSymmetricEigen<N>
symmetricEigenFixed(const std::array<double, N * N> &a,
                    int max_sweeps = 64);

} // namespace rtr

#endif // RTR_LINALG_EIGEN_H
