/**
 * @file
 * Unit tests for the stats module (StatSet, Table, ratio helper,
 * counterDelta).
 */

#include <gtest/gtest.h>

#include "stats/stats.h"
#include "stats/table.h"

namespace udp {
namespace {

TEST(StatSet, AddAndGet)
{
    StatSet s;
    s.add("ipc", 1.5);
    s.add("mpki", 12.0);
    bool found = false;
    EXPECT_DOUBLE_EQ(s.get("ipc", &found), 1.5);
    EXPECT_TRUE(found);
    EXPECT_DOUBLE_EQ(s.get("mpki"), 12.0);
}

TEST(StatSet, MissingReturnsZero)
{
    StatSet s;
    bool found = true;
    EXPECT_DOUBLE_EQ(s.get("nope", &found), 0.0);
    EXPECT_FALSE(found);
    EXPECT_FALSE(s.has("nope"));
}

TEST(StatSet, PreservesInsertionOrder)
{
    StatSet s;
    s.add("b", 2);
    s.add("a", 1);
    ASSERT_EQ(s.entries().size(), 2u);
    EXPECT_EQ(s.entries()[0].first, "b");
    EXPECT_EQ(s.entries()[1].first, "a");
}

TEST(StatSet, ToStringContainsEntries)
{
    StatSet s;
    s.add("x", 7);
    s.add("instructions", 1e6);
    std::string str = s.toString();
    EXPECT_NE(str.find("x = 7"), std::string::npos);
    // Numbers render as in the sinks: a count in full, not "1e+06".
    EXPECT_NE(str.find("instructions = 1000000\n"), std::string::npos);
}

TEST(Ratio, HandlesZeroDenominator)
{
    EXPECT_DOUBLE_EQ(ratio(5, 0), 0.0);
    EXPECT_DOUBLE_EQ(ratio(5, 10), 0.5);
}

TEST(CounterDelta, SubtractsEveryFieldAcrossAWrap)
{
    struct Counts
    {
        std::uint64_t a = 0;
        std::uint64_t b = 0;
        std::uint64_t c = 0;
    };
    Counts start{5, ~std::uint64_t{0}, 7};
    Counts now{12, 3, 7};
    Counts d = counterDelta(now, start);
    EXPECT_EQ(d.a, 7u);
    EXPECT_EQ(d.b, 4u); // unsigned wrap keeps the difference exact
    EXPECT_EQ(d.c, 0u);
}

TEST(Table, AsciiRendering)
{
    Table t({"name", "value"});
    t.beginRow();
    t.cell(std::string("alpha"));
    t.cell(3.14159, 2);
    std::string out = t.toAscii();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("3.14"), std::string::npos);
}

TEST(Table, IntCells)
{
    Table t({"i", "u"});
    t.beginRow();
    t.cell(-5);
    t.cell(std::uint64_t{99});
    EXPECT_EQ(t.toAscii(), "i   u   \n--------\n-5  99  \n");
}

} // namespace
} // namespace udp
