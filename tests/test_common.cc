/** @file Unit tests for the common support library. */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/table.hh"

namespace siq
{
namespace
{

TEST(Json, ParseNestingDepthIsBounded)
{
    // a nesting bomb must surface as a recoverable FatalError — the
    // serve daemon feeds untrusted socket bytes into this parser and
    // catches FatalError at the request boundary — never as a
    // stack overflow that kills every tenant
    EXPECT_THROW(json::parse(std::string(100000, '[')), FatalError);
    std::string objBomb;
    for (int i = 0; i < 100000; i++)
        objBomb += "{\"k\":";
    EXPECT_THROW(json::parse(objBomb), FatalError);

    // legitimate nesting well under the cap still parses
    const std::string ok =
        std::string(200, '[') + "1" + std::string(200, ']');
    EXPECT_EQ(json::parse(ok).kind, json::Value::Kind::Array);
}

TEST(Stats, ScalarCountsAndResets)
{
    stats::Scalar s;
    EXPECT_EQ(s.value(), 0u);
    s++;
    ++s;
    s += 5;
    EXPECT_EQ(s.value(), 7u);
    s.reset();
    EXPECT_EQ(s.value(), 0u);
}

TEST(RunningStats, EmptyAccumulatorIsAllZero)
{
    stats::RunningStats w;
    EXPECT_EQ(w.count(), 0u);
    EXPECT_DOUBLE_EQ(w.mean(), 0.0);
    EXPECT_DOUBLE_EQ(w.variance(), 0.0);
    EXPECT_DOUBLE_EQ(w.stddev(), 0.0);
    EXPECT_DOUBLE_EQ(w.ci95(), 0.0);
}

TEST(RunningStats, SingleSampleHasZeroSpread)
{
    stats::RunningStats w;
    w.sample(42.5);
    EXPECT_EQ(w.count(), 1u);
    EXPECT_DOUBLE_EQ(w.mean(), 42.5);
    EXPECT_DOUBLE_EQ(w.variance(), 0.0)
        << "sample variance is undefined at n=1; report 0";
    EXPECT_DOUBLE_EQ(w.stddev(), 0.0);
    EXPECT_DOUBLE_EQ(w.ci95(), 0.0);
}

TEST(RunningStats, MatchesClosedFormValues)
{
    // {1..5}: mean 3, sample variance 2.5, and the small-sample CI
    // uses the Student-t quantile t(0.975, df=4) = 2.776
    stats::RunningStats w;
    for (int i = 1; i <= 5; i++)
        w.sample(i);
    EXPECT_EQ(w.count(), 5u);
    EXPECT_DOUBLE_EQ(w.mean(), 3.0);
    EXPECT_NEAR(w.variance(), 2.5, 1e-12);
    EXPECT_NEAR(w.stddev(), std::sqrt(2.5), 1e-12);
    EXPECT_NEAR(w.ci95(), 2.776 * std::sqrt(2.5 / 5.0), 1e-12);
}

TEST(RunningStats, CriticalValueUsesStudentTForSmallN)
{
    EXPECT_DOUBLE_EQ(stats::tCritical95(0), 0.0);
    EXPECT_DOUBLE_EQ(stats::tCritical95(1), 0.0);
    EXPECT_DOUBLE_EQ(stats::tCritical95(2), 12.706) << "df=1";
    EXPECT_DOUBLE_EQ(stats::tCritical95(3), 4.303) << "df=2";
    EXPECT_DOUBLE_EQ(stats::tCritical95(30), 2.045) << "df=29";
    EXPECT_DOUBLE_EQ(stats::tCritical95(31), 1.96)
        << "normal approximation beyond the table";
    EXPECT_DOUBLE_EQ(stats::tCritical95(1000), 1.96);
    // the quantile shrinks monotonically toward the normal value
    for (std::uint64_t n = 2; n <= 31; n++)
        EXPECT_GT(stats::tCritical95(n), stats::tCritical95(n + 1) - 1e-12)
            << "n=" << n;
}

TEST(RunningStats, Ci95AtTwoSamplesReflectsWideTInterval)
{
    // n=2 is the common replication floor: the half-width must use
    // t(0.975, 1) = 12.706, not 1.96 — a 6.5x wider (honest) interval
    stats::RunningStats w;
    w.sample(1.0);
    w.sample(3.0);
    // mean 2, sample variance 2, stddev sqrt(2)
    EXPECT_NEAR(w.ci95(), 12.706 * std::sqrt(2.0 / 2.0), 1e-12);
}

TEST(RunningStats, ConstantSamplesHaveZeroVariance)
{
    stats::RunningStats w;
    for (int i = 0; i < 100; i++)
        w.sample(7.25);
    EXPECT_DOUBLE_EQ(w.mean(), 7.25);
    EXPECT_DOUBLE_EQ(w.variance(), 0.0);
    EXPECT_DOUBLE_EQ(w.ci95(), 0.0);
}

TEST(RunningStats, AgreesWithNaiveTwoPassOnRandomData)
{
    Rng rng(321);
    std::vector<double> xs;
    stats::RunningStats w;
    for (int i = 0; i < 1000; i++) {
        const double v = rng.uniform() * 1e6 - 5e5;
        xs.push_back(v);
        w.sample(v);
    }
    double sum = 0.0;
    for (double v : xs)
        sum += v;
    const double mean = sum / static_cast<double>(xs.size());
    double sq = 0.0;
    for (double v : xs)
        sq += (v - mean) * (v - mean);
    const double var = sq / static_cast<double>(xs.size() - 1);
    EXPECT_NEAR(w.mean(), mean, 1e-6);
    EXPECT_NEAR(w.variance(), var, 1e-3 * var);
}

TEST(RunningStats, ResetClearsState)
{
    stats::RunningStats w;
    w.sample(1.0);
    w.sample(2.0);
    w.reset();
    EXPECT_EQ(w.count(), 0u);
    EXPECT_DOUBLE_EQ(w.mean(), 0.0);
    w.sample(9.0);
    EXPECT_DOUBLE_EQ(w.mean(), 9.0);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; i++)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; i++)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 4);
}

TEST(Rng, RangeInclusiveBounds)
{
    Rng r(7);
    bool sawLo = false, sawHi = false;
    for (int i = 0; i < 2000; i++) {
        const auto v = r.range(3, 6);
        ASSERT_GE(v, 3);
        ASSERT_LE(v, 6);
        sawLo |= v == 3;
        sawHi |= v == 6;
    }
    EXPECT_TRUE(sawLo);
    EXPECT_TRUE(sawHi);
}

TEST(Rng, ChanceIsCalibrated)
{
    Rng r(11);
    int hits = 0;
    for (int i = 0; i < 10000; i++)
        hits += r.chance(0.25) ? 1 : 0;
    EXPECT_NEAR(hits / 10000.0, 0.25, 0.03);
}

TEST(Table, FormatsAlignedColumns)
{
    Table t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    std::ostringstream os;
    t.print(os);
    const auto out = os.str();
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("22"), std::string::npos);
    // header + separator + two rows
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(Table, PercentHelper)
{
    EXPECT_EQ(Table::pct(0.4719), "47.2%");
    EXPECT_EQ(Table::fmt(1.005, 2), "1.00");
}

TEST(Logging, FatalThrowsRecoverableError)
{
    EXPECT_THROW(fatal("bad config ", 42), FatalError);
    try {
        fatal("value=", 7);
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "value=7");
    }
}

TEST(Logging, AssertPassesOnTrue)
{
    SIQ_ASSERT(1 + 1 == 2, "arithmetic works");
    SUCCEED();
}

TEST(LoggingDeathTest, PanicAborts)
{
    EXPECT_DEATH(panic("broken invariant"), "panic");
}

TEST(LoggingDeathTest, AssertAborts)
{
    EXPECT_DEATH(SIQ_ASSERT(false, "must die"), "assertion failed");
}

} // namespace
} // namespace siq
