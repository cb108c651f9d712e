/** @file Power-model arithmetic and adaptive-resizer behaviour. */

#include <gtest/gtest.h>

#include "adaptive/abella.hh"
#include "adaptive/folegnani.hh"
#include "power/power.hh"

namespace siq
{
namespace
{

IqEventCounts
sampleEvents()
{
    IqEventCounts ev;
    ev.cycles = 1000;
    ev.broadcasts = 2000;
    ev.cmpConventional = 2000 * 160; // 80 entries x 2 operands
    ev.cmpPowered = 2000 * 64;       // 4 of 10 banks powered
    ev.cmpGated = 30000;
    ev.dispatchWrites = 1500;
    ev.issueReads = 1500;
    ev.poweredBankCycles = 4000; // 4 banks average
    ev.totalBankCycles = 10000;
    ev.occupancySum = 20000;
    return ev;
}

TEST(Power, ModesOrderDynamicEnergy)
{
    const auto ev = sampleEvents();
    power::IqPowerParams params;
    const auto conv =
        power::iqPower(ev, params, power::IqMode::Conventional);
    const auto gated =
        power::iqPower(ev, params, power::IqMode::NonEmptyGated);
    const auto resized =
        power::iqPower(ev, params, power::IqMode::Resized);
    EXPECT_GT(conv.dynamicPower(), gated.dynamicPower());
    EXPECT_GT(gated.dynamicPower(), resized.dynamicPower());
    EXPECT_GT(conv.staticPower(), resized.staticPower());
}

TEST(Power, StaticScalesWithPoweredBanks)
{
    auto ev = sampleEvents();
    power::IqPowerParams params;
    const auto before =
        power::iqPower(ev, params, power::IqMode::Resized);
    ev.poweredBankCycles = 2000; // 2 banks average
    const auto after =
        power::iqPower(ev, params, power::IqMode::Resized);
    EXPECT_LT(after.staticPower(), before.staticPower());
    // floor leakage keeps the saving below the bank ratio
    EXPECT_GT(after.staticPower(),
              before.staticPower() * 2000.0 / 4000.0);
}

TEST(Power, SavingHelper)
{
    EXPECT_DOUBLE_EQ(power::saving(100.0, 53.0), 0.47);
    EXPECT_DOUBLE_EQ(power::saving(0.0, 10.0), 0.0);
}

TEST(Power, RfGatingOnlyAffectsBankTerms)
{
    power::RfEventCounts ev;
    ev.cycles = 1000;
    ev.reads = 3000;
    ev.writes = 2000;
    ev.poweredBankCycles = 7000;
    ev.totalBankCycles = 14000;
    power::RfPowerParams params;
    const auto gated = power::rfPower(ev, params, true);
    const auto ungated = power::rfPower(ev, params, false);
    EXPECT_LT(gated.dynamicPower(), ungated.dynamicPower());
    EXPECT_LT(gated.staticPower(), ungated.staticPower());
    const double accessEnergy =
        params.readEnergy * 3000 + params.writeEnergy * 2000;
    EXPECT_NEAR(ungated.dynamicEnergy - gated.dynamicEnergy,
                params.bankClockEnergyPerCycle * 7000, 1e-9);
    EXPECT_GT(gated.dynamicEnergy, accessEnergy);
}

ResizeSignals
idleCycle(std::uint64_t cycle, int occupancy)
{
    ResizeSignals s;
    s.cycle = cycle;
    s.iqValid = occupancy;
    s.issuedFromYoungestBank = 0;
    return s;
}

/** The Table 1 machine the resizers are sized from: an 80-entry IQ
 *  in banks of 8 and a 128-entry ROB. */
constexpr IqConfig iq{80, 8};
constexpr int robSize = 128;

TEST(Abella, ShrinksOnLowAverageOccupancy)
{
    AbellaConfig cfg;
    AbellaResizer resizer(cfg, iq, robSize);
    EXPECT_EQ(resizer.iqLimit(), iq.numEntries);
    for (std::uint64_t c = 0; c < cfg.intervalCycles + 1; c++)
        resizer.tick(idleCycle(c, 10));
    EXPECT_LT(resizer.iqLimit(), iq.numEntries);
    EXPECT_GE(resizer.iqLimit(), cfg.minIq);
}

TEST(Abella, GrowsUnderLimitPressure)
{
    AbellaConfig cfg;
    AbellaResizer resizer(cfg, iq, robSize);
    // shrink twice
    for (std::uint64_t c = 0; c < 2 * cfg.intervalCycles + 2; c++)
        resizer.tick(idleCycle(c, 4));
    const int shrunk = resizer.iqLimit();
    ASSERT_LT(shrunk, iq.numEntries);
    // now saturate with limit-induced stalls
    for (std::uint64_t c = 0; c < cfg.intervalCycles + 1; c++) {
        auto s = idleCycle(c, shrunk);
        s.dispatchStalledByLimit = true;
        resizer.tick(s);
    }
    EXPECT_GT(resizer.iqLimit(), shrunk);
}

TEST(Abella, RobLimitHasFloor64)
{
    AbellaConfig cfg;
    AbellaResizer resizer(cfg, iq, robSize);
    // shrink to the minimum
    for (int interval = 0; interval < 20; interval++)
        for (std::uint64_t c = 0; c < cfg.intervalCycles + 1; c++)
            resizer.tick(idleCycle(c, 2));
    EXPECT_EQ(resizer.iqLimit(), cfg.minIq);
    EXPECT_GE(resizer.robLimit(), 64)
        << "the IqRob64 floor must hold";
}

TEST(Folegnani, ShrinksWhenYoungestPortionIdle)
{
    FolegnaniConfig cfg;
    FolegnaniResizer resizer(cfg, iq);
    for (std::uint64_t c = 0; c < cfg.intervalCycles + 1; c++)
        resizer.tick(idleCycle(c, 40));
    EXPECT_EQ(resizer.iqLimit(), iq.numEntries - iq.bankSize);
}

TEST(Folegnani, PeriodicallyReexpands)
{
    FolegnaniConfig cfg;
    FolegnaniResizer resizer(cfg, iq);
    // several idle intervals shrink it; expansion fires every
    // expandPeriod intervals so the limit saw-tooths above minSize
    for (int interval = 0; interval < 40; interval++)
        for (std::uint64_t c = 0; c < cfg.intervalCycles; c++)
            resizer.tick(idleCycle(c, 40));
    EXPECT_GE(resizer.iqLimit(), cfg.minSize);
    // one more interval with busy youngest portion: no shrink
    const int before = resizer.iqLimit();
    for (std::uint64_t c = 0; c < cfg.intervalCycles; c++) {
        auto s = idleCycle(c, 40);
        s.issuedFromYoungestBank = 4;
        resizer.tick(s);
    }
    EXPECT_GE(resizer.iqLimit(), before - iq.bankSize);
}

} // namespace
} // namespace siq
