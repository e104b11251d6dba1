/**
 * @file
 * Small dense linear algebra for the thermal RC network.
 *
 * Thermal networks here have O(10) nodes, so a dense row-major matrix
 * with partial-pivot Gaussian elimination is both simpler and faster
 * than any sparse machinery.
 */

#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "util/error.hh"

namespace ramp {
namespace util {

/** Dense row-major matrix of doubles. */
class Matrix
{
  public:
    /** Create a rows x cols zero matrix. */
    Matrix(std::size_t rows, std::size_t cols);

    /** Identity matrix of size n. */
    static Matrix identity(std::size_t n);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    /** Mutable element access (bounds-checked in debug builds). */
    double &at(std::size_t r, std::size_t c);

    /** Const element access. */
    double at(std::size_t r, std::size_t c) const;

    /** Matrix-vector product; x.size() must equal cols(). */
    std::vector<double> mul(const std::vector<double> &x) const;

  private:
    std::size_t rows_;
    std::size_t cols_;
    std::vector<double> data_;
};

/**
 * Partial-pivot LU factors of a square matrix, for many right-hand
 * sides against one matrix (the thermal network's conductances are
 * fixed at construction; only the power vector changes per solve).
 * solve() replays the elimination's row swaps and multipliers on b in
 * the order the elimination produced them, so it performs exactly
 * the floating-point operations of eliminating the augmented [A|b].
 */
class LuFactors
{
  public:
    /**
     * Factor @p a. A non-square matrix is a caller bug and panics; a
     * numerically singular one comes back as
     * ErrorCode::SingularSystem.
     */
    [[nodiscard]] static Result<LuFactors> tryFactor(Matrix a);

    /** Solve A x = b; b.size() must equal the matrix order. */
    std::vector<double> solve(std::vector<double> b) const;

  private:
    explicit LuFactors(Matrix lu, std::vector<std::size_t> pivot)
        : lu_(std::move(lu)), pivot_(std::move(pivot))
    {
    }

    /** U on and above the diagonal; below it, the multiplier that
     *  eliminated each row, at that row's position when its column
     *  was eliminated. */
    Matrix lu_;
    std::vector<std::size_t> pivot_; ///< Row swapped in per column.
};

/**
 * Solve A x = b with partial-pivot Gaussian elimination (factor, then
 * solve). A must be square with A.rows() == b.size() (violating that
 * is a caller bug and panics). A numerically singular system is a
 * recoverable per-item failure and comes back as
 * ErrorCode::SingularSystem.
 */
[[nodiscard]] Result<std::vector<double>> trySolveLinear(Matrix a,
                                           std::vector<double> b);

/**
 * trySolveLinear that treats singularity as unrecoverable: calls
 * fatal(). For callers whose system is constructed from validated
 * user configuration and can only be singular if that configuration
 * is meaningless.
 */
std::vector<double> solveLinear(Matrix a, std::vector<double> b);

} // namespace util
} // namespace ramp

