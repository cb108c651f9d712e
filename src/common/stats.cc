#include "common/stats.hh"

#include <array>
#include <cmath>

namespace siq::stats
{

namespace
{

/** Student-t two-sided 95% quantiles t(0.975, df) for df = 1..29. */
constexpr std::array<double, 29> t95Table = {
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306,
    2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120,
    2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
    2.060,  2.056, 2.052, 2.048, 2.045,
};

} // namespace

double
tCritical95(std::uint64_t n)
{
    if (n < 2)
        return 0.0;
    const std::uint64_t df = n - 1;
    return df <= t95Table.size() ? t95Table[df - 1] : 1.96;
}

void
RunningStats::sample(double v)
{
    n++;
    const double delta = v - _mean;
    _mean += delta / static_cast<double>(n);
    m2 += delta * (v - _mean);
}

double
RunningStats::variance() const
{
    return n > 1 ? m2 / static_cast<double>(n - 1) : 0.0;
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

double
RunningStats::ci95() const
{
    return n > 1 ? tCritical95(n) * stddev() /
                       std::sqrt(static_cast<double>(n))
                 : 0.0;
}

void
RunningStats::reset()
{
    n = 0;
    _mean = 0.0;
    m2 = 0.0;
}

} // namespace siq::stats
