/**
 * @file
 * Small numerical helpers used across experiments: means, geomeans,
 * linear regression (for the sensitivity fits), and relative-change
 * metrics (Figures 7, 10 and 11 of the paper).
 */

#ifndef PCSTALL_COMMON_STATS_UTIL_HH
#define PCSTALL_COMMON_STATS_UTIL_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace pcstall
{

/** Result of an ordinary least squares fit y = intercept + slope * x. */
struct LinearFit
{
    double slope = 0.0;
    double intercept = 0.0;
    /** Coefficient of determination; 1.0 for a perfect fit. */
    double r2 = 0.0;
    /** Number of points the fit was computed from. */
    std::size_t n = 0;
};

/** Arithmetic mean; returns 0 for an empty span. */
double mean(std::span<const double> xs);

/** Geometric mean of positive values; returns 0 for an empty span. */
double geomean(std::span<const double> xs);

/** Sample standard deviation; returns 0 for fewer than two values. */
double stddev(std::span<const double> xs);

/**
 * Ordinary least squares fit of y against x.
 * Degenerate inputs (fewer than two points, or zero x-variance) yield
 * slope 0 with intercept equal to the mean of y.
 */
LinearFit linearFit(std::span<const double> xs, std::span<const double> ys);

/**
 * Average relative change between consecutive values:
 *   mean over i of |v[i+1] - v[i]| / scale
 * where scale is the mean absolute value of the series. This is the
 * metric the paper uses for sensitivity variability (Figure 7).
 * Returns 0 for series shorter than two elements or an all-zero series.
 */
double avgRelativeChange(std::span<const double> values);

/**
 * Relative difference of two scalars against their mean magnitude.
 * Returns 0 when both are 0.
 */
double relativeDiff(double a, double b);

/** Clamp @p v into [lo, hi]. */
constexpr double
clampTo(double v, double lo, double hi)
{
    return v < lo ? lo : (v > hi ? hi : v);
}

/**
 * std::llround without the libm call: the integer nearest @p x, halves
 * rounded away from zero. Equal to std::llround for every |x| < 2^63:
 * the remainder x - trunc(x) is exact in double precision, so comparing
 * it with +-0.5 decides exactly. NaN and larger magnitudes are
 * undefined.
 */
constexpr std::int64_t
roundHalfAway(double x)
{
    const auto whole = static_cast<std::int64_t>(x);
    const double rem = x - static_cast<double>(whole);
    if (rem >= 0.5)
        return whole + 1;
    if (rem <= -0.5)
        return whole - 1;
    return whole;
}

} // namespace pcstall

#endif // PCSTALL_COMMON_STATS_UTIL_HH
