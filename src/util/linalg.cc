#include "util/linalg.hh"

#include <cmath>
#include <utility>

#include "util/logging.hh"

namespace ramp {
namespace util {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0)
{
}

Matrix
Matrix::identity(std::size_t n)
{
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i)
        m.at(i, i) = 1.0;
    return m;
}

double &
Matrix::at(std::size_t r, std::size_t c)
{
    return data_[r * cols_ + c];
}

double
Matrix::at(std::size_t r, std::size_t c) const
{
    return data_[r * cols_ + c];
}

std::vector<double>
Matrix::mul(const std::vector<double> &x) const
{
    if (x.size() != cols_)
        panic(cat("Matrix::mul size mismatch: ", cols_, " vs ", x.size()));
    std::vector<double> y(rows_, 0.0);
    for (std::size_t r = 0; r < rows_; ++r) {
        double acc = 0.0;
        for (std::size_t c = 0; c < cols_; ++c)
            acc += at(r, c) * x[c];
        y[r] = acc;
    }
    return y;
}

Result<LuFactors>
LuFactors::tryFactor(Matrix a)
{
    const std::size_t n = a.rows();
    if (a.cols() != n)
        panic("solveLinear needs a square system");

    std::vector<std::size_t> pivot(n);
    for (std::size_t col = 0; col < n; ++col) {
        // Partial pivot: find the largest magnitude entry in the column.
        pivot[col] = col;
        double best = std::fabs(a.at(col, col));
        for (std::size_t r = col + 1; r < n; ++r) {
            const double v = std::fabs(a.at(r, col));
            if (v > best) {
                best = v;
                pivot[col] = r;
            }
        }
        if (best < 1e-300)
            return RampError{ErrorCode::SingularSystem,
                             cat("singular linear system (pivot ",
                                 best, " in column ", col, " of ", n,
                                 ")")};
        if (pivot[col] != col)
            for (std::size_t c = col; c < n; ++c)
                std::swap(a.at(col, c), a.at(pivot[col], c));
        // Eliminate below, keeping each row's multiplier in the
        // column it zeroes.
        const double d = a.at(col, col);
        for (std::size_t r = col + 1; r < n; ++r) {
            const double factor = a.at(r, col) / d;
            a.at(r, col) = factor;
            if (factor == 0.0)
                continue;
            for (std::size_t c = col + 1; c < n; ++c)
                a.at(r, c) -= factor * a.at(col, c);
        }
    }
    return LuFactors(std::move(a), std::move(pivot));
}

std::vector<double>
LuFactors::solve(std::vector<double> b) const
{
    const std::size_t n = lu_.rows();
    if (b.size() != n)
        panic("solveLinear needs a square system");

    // Forward elimination, replayed on b alone.
    for (std::size_t col = 0; col < n; ++col) {
        std::swap(b[col], b[pivot_[col]]);
        for (std::size_t r = col + 1; r < n; ++r) {
            const double factor = lu_.at(r, col);
            if (factor != 0.0)
                b[r] -= factor * b[col];
        }
    }

    // Back substitution.
    std::vector<double> x(n, 0.0);
    for (std::size_t i = n; i-- > 0;) {
        double acc = b[i];
        for (std::size_t c = i + 1; c < n; ++c)
            acc -= lu_.at(i, c) * x[c];
        x[i] = acc / lu_.at(i, i);
    }
    return x;
}

Result<std::vector<double>>
trySolveLinear(Matrix a, std::vector<double> b)
{
    if (a.cols() != a.rows() || b.size() != a.rows())
        panic("solveLinear needs a square system");
    auto lu = LuFactors::tryFactor(std::move(a));
    if (!lu)
        return lu.error();
    return lu.value().solve(std::move(b));
}

std::vector<double>
solveLinear(Matrix a, std::vector<double> b)
{
    auto result = trySolveLinear(std::move(a), std::move(b));
    if (!result)
        fatal(cat("solveLinear: ", result.error().str()));
    return std::move(result.value());
}

} // namespace util
} // namespace ramp
