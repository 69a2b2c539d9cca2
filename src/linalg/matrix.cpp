#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <sstream>
#include <vector>

#include "util/logging.h"
#include "util/simd.h"

namespace rtr {

namespace {

using simd::VecD;

// Register tile shape of the GEMM micro-kernel: kMR rows of A are
// broadcast against kNR (= two vectors) output columns, so a full tile
// holds kMR * 2 accumulators in registers. 4 x 8 on AVX2, 4 x 4 on
// SSE2/NEON, 4 x 2 in the scalar-fallback build.
constexpr std::size_t kW = VecD::kWidth;
constexpr std::size_t kMR = 4;
constexpr std::size_t kNR = 2 * kW;

bool g_simd_enabled = std::getenv("RTR_LINALG_SCALAR") == nullptr;

/**
 * Full register tile: Rows x kNR outputs. Accumulates over k in
 * ascending order with one multiply and one add per element per step
 * (VecD::mulAdd never fuses), which keeps every output element bitwise
 * identical to the scalar i-k-j loop.
 */
template <int Rows>
inline void
tileFull(const double *a, std::size_t lda, const double *b, std::size_t ldb,
         double *c, std::size_t ldc, std::size_t kdim)
{
    VecD acc0[Rows], acc1[Rows];
    for (int r = 0; r < Rows; ++r) {
        acc0[r] = VecD::zero();
        acc1[r] = VecD::zero();
    }
    for (std::size_t k = 0; k < kdim; ++k) {
        const double *brow = b + k * ldb;
        const VecD b0 = VecD::load(brow);
        const VecD b1 = VecD::load(brow + kW);
        for (int r = 0; r < Rows; ++r) {
            const VecD av = VecD::broadcast(a[r * lda + k]);
            acc0[r] = VecD::mulAdd(acc0[r], av, b0);
            acc1[r] = VecD::mulAdd(acc1[r], av, b1);
        }
    }
    for (int r = 0; r < Rows; ++r) {
        double *cp = c + r * ldc;
        acc0[r].store(cp);
        acc1[r].store(cp + kW);
    }
}

/**
 * Right-edge tile with ncols < kNR live columns. B must be a packed
 * panel (leading dimension kNR, zero-padded), so the full-width loads
 * stay in bounds; the dead lanes compute zeros that are never stored.
 */
template <int Rows>
inline void
tilePartial(const double *a, std::size_t lda, const double *b, double *c,
            std::size_t ldc, std::size_t kdim, std::size_t ncols)
{
    VecD acc0[Rows], acc1[Rows];
    for (int r = 0; r < Rows; ++r) {
        acc0[r] = VecD::zero();
        acc1[r] = VecD::zero();
    }
    for (std::size_t k = 0; k < kdim; ++k) {
        const double *brow = b + k * kNR;
        const VecD b0 = VecD::load(brow);
        const VecD b1 = VecD::load(brow + kW);
        for (int r = 0; r < Rows; ++r) {
            const VecD av = VecD::broadcast(a[r * lda + k]);
            acc0[r] = VecD::mulAdd(acc0[r], av, b0);
            acc1[r] = VecD::mulAdd(acc1[r], av, b1);
        }
    }
    double tmp[kNR];
    for (int r = 0; r < Rows; ++r) {
        acc0[r].store(tmp);
        acc1[r].store(tmp + kW);
        std::copy(tmp, tmp + ncols, c + r * ldc);
    }
}

/**
 * Blocked SIMD GEMM driver: C = A*B, with A m x kdim, B kdim x n and
 * C m x n, all row-major and contiguous. Right-edge partial panels of
 * B are packed into a zero-padded thread-local scratch so the
 * micro-kernel always sees contiguous, full-width rows.
 */
void
gemmSimd(std::size_t m, std::size_t kdim, std::size_t n, const double *a,
         const double *b, double *c)
{
    thread_local std::vector<double> pack;
    for (std::size_t j0 = 0; j0 < n; j0 += kNR) {
        const std::size_t nr = std::min(kNR, n - j0);
        const double *bp = b + j0;
        std::size_t bld = n;
        if (nr < kNR) {
            pack.assign(kNR * std::max<std::size_t>(kdim, 1), 0.0);
            for (std::size_t k = 0; k < kdim; ++k) {
                const double *brow = b + k * n + j0;
                for (std::size_t jj = 0; jj < nr; ++jj)
                    pack[k * kNR + jj] = brow[jj];
            }
            bp = pack.data();
            bld = kNR;
        }
        for (std::size_t i0 = 0; i0 < m; i0 += kMR) {
            const std::size_t mr = std::min(kMR, m - i0);
            const double *ap = a + i0 * kdim;
            double *cp = c + i0 * n + j0;
            if (nr == kNR) {
                switch (mr) {
                case 4:
                    tileFull<4>(ap, kdim, bp, bld, cp, n, kdim);
                    break;
                case 3:
                    tileFull<3>(ap, kdim, bp, bld, cp, n, kdim);
                    break;
                case 2:
                    tileFull<2>(ap, kdim, bp, bld, cp, n, kdim);
                    break;
                default:
                    tileFull<1>(ap, kdim, bp, bld, cp, n, kdim);
                    break;
                }
            } else {
                switch (mr) {
                case 4:
                    tilePartial<4>(ap, kdim, bp, cp, n, kdim, nr);
                    break;
                case 3:
                    tilePartial<3>(ap, kdim, bp, cp, n, kdim, nr);
                    break;
                case 2:
                    tilePartial<2>(ap, kdim, bp, cp, n, kdim, nr);
                    break;
                default:
                    tilePartial<1>(ap, kdim, bp, cp, n, kdim, nr);
                    break;
                }
            }
        }
    }
}

} // namespace

bool
simdKernelsEnabled()
{
    return g_simd_enabled;
}

void
setSimdKernelsEnabled(bool enabled)
{
    g_simd_enabled = enabled;
}

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0)
{
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows)
{
    rows_ = rows.size();
    cols_ = rows_ ? rows.begin()->size() : 0;
    data_.reserve(rows_ * cols_);
    for (const auto &row : rows) {
        RTR_ASSERT(row.size() == cols_, "ragged initializer list");
        data_.insert(data_.end(), row.begin(), row.end());
    }
}

Matrix
Matrix::identity(std::size_t n)
{
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i)
        m(i, i) = 1.0;
    return m;
}

Matrix
Matrix::constant(std::size_t rows, std::size_t cols, double value)
{
    Matrix m(rows, cols);
    for (double &x : m.data_)
        x = value;
    return m;
}

Matrix
Matrix::diagonal(const std::vector<double> &entries)
{
    Matrix m(entries.size(), entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i)
        m(i, i) = entries[i];
    return m;
}

Matrix
Matrix::columnVector(const std::vector<double> &entries)
{
    Matrix m(entries.size(), 1);
    for (std::size_t i = 0; i < entries.size(); ++i)
        m(i, 0) = entries[i];
    return m;
}

void
Matrix::resize(std::size_t rows, std::size_t cols)
{
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, 0.0);
}

double &
Matrix::operator()(std::size_t r, std::size_t c)
{
    RTR_ASSERT(r < rows_ && c < cols_, "matrix index (", r, ",", c,
               ") out of ", rows_, "x", cols_);
    return data_[r * cols_ + c];
}

double
Matrix::operator()(std::size_t r, std::size_t c) const
{
    RTR_ASSERT(r < rows_ && c < cols_, "matrix index (", r, ",", c,
               ") out of ", rows_, "x", cols_);
    return data_[r * cols_ + c];
}

Matrix
Matrix::operator+(const Matrix &o) const
{
    Matrix out = *this;
    out += o;
    return out;
}

Matrix
Matrix::operator-(const Matrix &o) const
{
    Matrix out = *this;
    out -= o;
    return out;
}

Matrix
Matrix::operator*(const Matrix &o) const
{
    RTR_ASSERT(cols_ == o.rows_, "matmul shape mismatch: ", rows_, "x",
               cols_, " * ", o.rows_, "x", o.cols_);
    if (!g_simd_enabled)
        return multiplyScalar(o);
    Matrix out(rows_, o.cols_);
    gemmSimd(rows_, cols_, o.cols_, data_.data(), o.data_.data(),
             out.data_.data());
    return out;
}

Matrix
Matrix::multiplyScalar(const Matrix &o) const
{
    RTR_ASSERT(cols_ == o.rows_, "matmul shape mismatch: ", rows_, "x",
               cols_, " * ", o.rows_, "x", o.cols_);
    Matrix out(rows_, o.cols_);
    // The reference path: i-k-j loop order keeps the innermost accesses
    // sequential in both the output row and the right operand's row.
    // The zero-skip branch the seed carried here is gone — on dense EKF
    // covariances it was a never-taken compare in the hottest loop, and
    // it broke IEEE semantics (0-weighted NaN rows produced 0, the SIMD
    // path produces NaN). EXPERIMENTS.md has the measurement.
    for (std::size_t i = 0; i < rows_; ++i) {
        for (std::size_t k = 0; k < cols_; ++k) {
            double lhs = data_[i * cols_ + k];
            const double *rhs_row = &o.data_[k * o.cols_];
            double *out_row = &out.data_[i * o.cols_];
            for (std::size_t j = 0; j < o.cols_; ++j)
                out_row[j] += lhs * rhs_row[j];
        }
    }
    return out;
}

Matrix
Matrix::operator*(double s) const
{
    Matrix out = *this;
    out *= s;
    return out;
}

Matrix &
Matrix::operator+=(const Matrix &o)
{
    RTR_ASSERT(rows_ == o.rows_ && cols_ == o.cols_, "add shape mismatch");
    for (std::size_t i = 0; i < data_.size(); ++i)
        data_[i] += o.data_[i];
    return *this;
}

Matrix &
Matrix::operator-=(const Matrix &o)
{
    RTR_ASSERT(rows_ == o.rows_ && cols_ == o.cols_, "sub shape mismatch");
    for (std::size_t i = 0; i < data_.size(); ++i)
        data_[i] -= o.data_[i];
    return *this;
}

Matrix &
Matrix::operator*=(double s)
{
    for (double &x : data_)
        x *= s;
    return *this;
}

Matrix
Matrix::transposed() const
{
    Matrix out(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r) {
        for (std::size_t c = 0; c < cols_; ++c)
            out(c, r) = data_[r * cols_ + c];
    }
    return out;
}

double
Matrix::frobeniusNorm() const
{
    double sum = 0.0;
    for (double x : data_)
        sum += x * x;
    return std::sqrt(sum);
}

double
Matrix::trace() const
{
    RTR_ASSERT(rows_ == cols_, "trace of non-square matrix");
    double sum = 0.0;
    for (std::size_t i = 0; i < rows_; ++i)
        sum += data_[i * cols_ + i];
    return sum;
}

bool
Matrix::approxEquals(const Matrix &o, double eps) const
{
    if (rows_ != o.rows_ || cols_ != o.cols_)
        return false;
    for (std::size_t i = 0; i < data_.size(); ++i) {
        if (std::abs(data_[i] - o.data_[i]) > eps)
            return false;
    }
    return true;
}

void
Matrix::setBlock(std::size_t row, std::size_t col, const Matrix &src)
{
    RTR_ASSERT(row + src.rows_ <= rows_ && col + src.cols_ <= cols_,
               "setBlock out of bounds");
    for (std::size_t r = 0; r < src.rows_; ++r) {
        for (std::size_t c = 0; c < src.cols_; ++c)
            data_[(row + r) * cols_ + (col + c)] = src(r, c);
    }
}

Matrix
Matrix::block(std::size_t row, std::size_t col, std::size_t h,
              std::size_t w) const
{
    RTR_ASSERT(row + h <= rows_ && col + w <= cols_, "block out of bounds");
    Matrix out(h, w);
    for (std::size_t r = 0; r < h; ++r) {
        for (std::size_t c = 0; c < w; ++c)
            out(r, c) = data_[(row + r) * cols_ + (col + c)];
    }
    return out;
}

std::string
Matrix::toString(int precision) const
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(precision);
    for (std::size_t r = 0; r < rows_; ++r) {
        oss << "[";
        for (std::size_t c = 0; c < cols_; ++c) {
            oss << data_[r * cols_ + c];
            if (c + 1 < cols_)
                oss << ", ";
        }
        oss << "]\n";
    }
    return oss.str();
}

Matrix
operator*(double s, const Matrix &m)
{
    return m * s;
}

} // namespace rtr
