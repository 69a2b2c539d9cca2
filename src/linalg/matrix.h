/**
 * @file
 * Dense row-major double matrix.
 *
 * This is the linear-algebra substrate of the EKF-SLAM, scene
 * reconstruction, MPC, and Bayesian-optimization kernels. The paper
 * identifies "frequent matrix operations (multiplication, inversion)" as
 * the dominant cost of 02.ekfslam; all such operations route through this
 * class so the benchmark harness can attribute time to them.
 */

#ifndef RTR_LINALG_MATRIX_H
#define RTR_LINALG_MATRIX_H

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

namespace rtr {

/** Dense matrix of doubles with value semantics. */
class Matrix
{
  public:
    /** Empty 0x0 matrix. */
    Matrix() = default;

    /** rows x cols matrix, zero-initialized. */
    Matrix(std::size_t rows, std::size_t cols);

    /** Build from nested initializer list (rows of equal length). */
    Matrix(std::initializer_list<std::initializer_list<double>> rows);

    /** n x n identity. */
    static Matrix identity(std::size_t n);

    /** rows x cols matrix filled with a constant. */
    static Matrix constant(std::size_t rows, std::size_t cols, double value);

    /** Diagonal matrix from a vector of diagonal entries. */
    static Matrix diagonal(const std::vector<double> &entries);

    /** Column vector from entries. */
    static Matrix columnVector(const std::vector<double> &entries);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    /**
     * Reshape to rows x cols and zero-fill. Reuses the existing heap
     * allocation when capacity suffices — this is the workspace-reuse
     * primitive behind solveInto() and the GP's thread-local buffers.
     */
    void resize(std::size_t rows, std::size_t cols);

    /** Element access (row, col); bounds-checked in debug builds. */
    double &operator()(std::size_t r, std::size_t c);
    double operator()(std::size_t r, std::size_t c) const;

    /** Raw storage pointer (row-major). */
    double *data() { return data_.data(); }
    const double *data() const { return data_.data(); }

    Matrix operator+(const Matrix &o) const;
    Matrix operator-(const Matrix &o) const;
    Matrix operator*(const Matrix &o) const;
    Matrix operator*(double s) const;
    Matrix &operator+=(const Matrix &o);
    Matrix &operator-=(const Matrix &o);
    Matrix &operator*=(double s);

    /**
     * Matrix product through the preserved scalar reference path (the
     * plain i-k-j triple loop), regardless of the runtime SIMD-dispatch
     * flag. The SIMD path of operator* is bitwise identical to this by
     * contract; tests/test_linalg_simd.cpp cross-checks the two.
     */
    Matrix multiplyScalar(const Matrix &o) const;

    /** Transposed copy. */
    Matrix transposed() const;

    /** Frobenius norm. */
    double frobeniusNorm() const;

    /** Trace (sum of diagonal entries; matrix must be square). */
    double trace() const;

    /** Whether shapes and all entries match within eps. */
    bool approxEquals(const Matrix &o, double eps = 1e-9) const;

    /**
     * Copy block src into this matrix with its top-left corner at
     * (row, col). The block must fit.
     */
    void setBlock(std::size_t row, std::size_t col, const Matrix &src);

    /** Extract an h x w block whose top-left corner is at (row, col). */
    Matrix block(std::size_t row, std::size_t col, std::size_t h,
                 std::size_t w) const;

    /** Human-readable multi-line rendering (for diagnostics). */
    std::string toString(int precision = 4) const;

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

/** Scalar-on-the-left multiplication. */
Matrix operator*(double s, const Matrix &m);

/**
 * Runtime dispatch between the SIMD micro-kernels and the preserved
 * scalar reference paths for everything in linalg (matrix product,
 * Cholesky/LU factor + solve). Defaults to enabled; set the environment
 * variable RTR_LINALG_SCALAR (any value) to start disabled. The two
 * paths are bitwise identical by contract, so flipping this mid-run
 * changes performance, never results. Not thread-safe: set it before
 * entering parallel regions.
 */
bool simdKernelsEnabled();
void setSimdKernelsEnabled(bool enabled);

/** RAII toggle for simdKernelsEnabled (tests, scalar/SIMD A/B runs). */
class ScopedSimdKernels
{
  public:
    explicit ScopedSimdKernels(bool enabled) : prev_(simdKernelsEnabled())
    {
        setSimdKernelsEnabled(enabled);
    }
    ~ScopedSimdKernels() { setSimdKernelsEnabled(prev_); }
    ScopedSimdKernels(const ScopedSimdKernels &) = delete;
    ScopedSimdKernels &operator=(const ScopedSimdKernels &) = delete;

  private:
    bool prev_;
};

} // namespace rtr

#endif // RTR_LINALG_MATRIX_H
