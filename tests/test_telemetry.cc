/**
 * @file
 * Tests for the telemetry layer: Distribution bucketing, prefetch
 * lifecycle classification, interval rows, trace export, sink rows, and
 * the end-to-end taxonomy identity on a real simulation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "sim/runner.h"
#include "sim/simerror.h"
#include "stats/histogram.h"
#include "stats/sink.h"
#include "stats/telemetry.h"
#include "stats/tracefile.h"

namespace udp {
namespace {

// --- Distribution ----------------------------------------------------------

TEST(Distribution, Log2Bucketing)
{
    Distribution d(BucketScale::Log2, 8);
    // Bucket 0 holds value 0; bucket i>=1 covers [2^(i-1), 2^i).
    EXPECT_EQ(d.bucketOf(0), 0u);
    EXPECT_EQ(d.bucketOf(1), 1u);
    EXPECT_EQ(d.bucketOf(2), 2u);
    EXPECT_EQ(d.bucketOf(3), 2u);
    EXPECT_EQ(d.bucketOf(4), 3u);
    EXPECT_EQ(d.bucketOf(7), 3u);
    EXPECT_EQ(d.bucketOf(8), 4u);
    // Values past the last bucket clamp into it.
    EXPECT_EQ(d.bucketOf(std::uint64_t{1} << 60), 7u);
    EXPECT_EQ(d.bucketLow(0), 0u);
    EXPECT_EQ(d.bucketLow(1), 1u);
    EXPECT_EQ(d.bucketLow(4), 8u);
}

TEST(Distribution, LinearBucketing)
{
    Distribution d(BucketScale::Linear, 4, 10);
    EXPECT_EQ(d.bucketOf(0), 0u);
    EXPECT_EQ(d.bucketOf(9), 0u);
    EXPECT_EQ(d.bucketOf(10), 1u);
    EXPECT_EQ(d.bucketOf(39), 3u);
    EXPECT_EQ(d.bucketOf(1000), 3u); // overflow clamps
    EXPECT_EQ(d.bucketLow(2), 20u);
}

TEST(Distribution, Moments)
{
    Distribution d;
    EXPECT_EQ(d.count(), 0u);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    d.sample(2);
    d.sample(4);
    d.sample(12);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_EQ(d.sum(), 18u);
    EXPECT_EQ(d.min(), 2u);
    EXPECT_EQ(d.max(), 12u);
    EXPECT_DOUBLE_EQ(d.mean(), 6.0);
}

TEST(Distribution, PercentileExactForUnitLinear)
{
    Distribution d(BucketScale::Linear, 128, 1);
    for (std::uint64_t v = 1; v <= 100; ++v) {
        d.sample(v);
    }
    EXPECT_EQ(d.percentile(0.50), 50u);
    EXPECT_EQ(d.percentile(0.90), 90u);
    EXPECT_EQ(d.percentile(0.99), 99u);
    EXPECT_EQ(d.percentile(1.00), 100u);
}

TEST(Distribution, SummarizeKeys)
{
    Distribution d;
    d.sample(8);
    auto rows = d.summarize("lat");
    ASSERT_EQ(rows.size(), 8u);
    EXPECT_EQ(rows[0].first, "lat_count");
    EXPECT_DOUBLE_EQ(rows[0].second, 1.0);
    EXPECT_EQ(rows[1].first, "lat_sum");
    EXPECT_EQ(rows[7].first, "lat_p99");
}

// --- StatSet integration ---------------------------------------------------

TEST(StatSet, AddDistributionAppendsSummaryAndKeepsBuckets)
{
    StatSet s;
    Distribution d;
    d.sample(3);
    d.sample(5);
    s.addDistribution("x", d);
    EXPECT_TRUE(s.has("x_count"));
    EXPECT_DOUBLE_EQ(s.get("x_count"), 2.0);
    EXPECT_DOUBLE_EQ(s.get("x_sum"), 8.0);
    // The buckets reach the set as percentiles at bucket resolution: the
    // median sample, 3, lies in the log2 bucket [2, 4).
    EXPECT_DOUBLE_EQ(s.get("x_p50"), 2.0);
}

TEST(StatSet, DuplicateNameRegression)
{
    // Duplicate keys used to silently produce corrupt JSON rows with two
    // identical keys. Debug builds assert; release builds overwrite the
    // existing entry in place (last-wins) so the sink row stays valid.
#ifdef NDEBUG
    StatSet s;
    s.add("ipc", 1.0);
    s.add("mpki", 2.0);
    s.add("ipc", 3.0);
    ASSERT_EQ(s.entries().size(), 2u);
    EXPECT_EQ(s.entries()[0].first, "ipc"); // order preserved
    EXPECT_DOUBLE_EQ(s.get("ipc"), 3.0);    // last value wins
#else
    EXPECT_DEATH(
        {
            StatSet s;
            s.add("ipc", 1.0);
            s.add("ipc", 3.0);
        },
        "duplicate stat name");
#endif
}

// --- prefetch lifecycle classification -------------------------------------

TelemetryConfig
onConfig()
{
    TelemetryConfig c;
    c.enabled = true;
    return c;
}

TEST(TelemetryLifecycle, TimelyPath)
{
    Telemetry t(onConfig());
    t.beginCycle(1, 0);
    t.onPrefetchIssued(0x1000, PfSource::Fdip);
    t.beginCycle(21, 0);
    t.onPrefetchFill(0x1000, false);
    t.beginCycle(29, 0);
    t.onPrefetchFirstUse(0x1000);
    auto s = t.finish();
    EXPECT_EQ(s->issuedTotal(), 1u);
    EXPECT_EQ(s->outcomes[0][0], 1u); // Fdip x Timely
    EXPECT_EQ(s->outcomeTotal(PfOutcome::Timely), 1u);
    EXPECT_EQ(s->fillLatency.count(), 1u);
    EXPECT_EQ(s->fillLatency.sum(), 20u); // issue@1 -> fill@21
    EXPECT_EQ(s->useDistance.count(), 1u);
    EXPECT_EQ(s->useDistance.sum(), 8u); // fill@21 -> use@29
}

TEST(TelemetryLifecycle, LatePath)
{
    Telemetry t(onConfig());
    t.beginCycle(1, 0);
    t.onPrefetchIssued(0x2000, PfSource::Eip);
    t.beginCycle(5, 0);
    t.onPrefetchLateMerge(0x2000, 37);
    auto s = t.finish();
    EXPECT_EQ(s->outcomes[2][1], 1u); // Eip x Late
    EXPECT_EQ(s->lateBy.count(), 1u);
    EXPECT_EQ(s->lateBy.sum(), 37u);
    // A fill after the late merge must not double-classify.
    EXPECT_EQ(s->outcomeTotal(PfOutcome::Timely), 0u);
}

TEST(TelemetryLifecycle, UnusedAndPollutingPaths)
{
    Telemetry t(onConfig());
    t.beginCycle(1, 0);
    t.onPrefetchIssued(0x3000, PfSource::Fdip);
    t.onPrefetchIssued(0x4000, PfSource::UdpExtra);
    t.beginCycle(10, 0);
    t.onPrefetchFill(0x3000, false); // clean fill
    t.onPrefetchFill(0x4000, true);  // displaced a valid resident line
    t.beginCycle(50, 0);
    t.onPrefetchEvicted(0x3000);
    t.onPrefetchEvicted(0x4000);
    auto s = t.finish();
    EXPECT_EQ(s->outcomes[0][2], 1u); // Fdip x Unused
    EXPECT_EQ(s->outcomes[1][3], 1u); // UdpExtra x Polluting
    EXPECT_EQ(s->unusedLifetime.count(), 2u);
    EXPECT_EQ(s->unusedLifetime.sum(), 80u); // two 40-cycle lifetimes
}

TEST(TelemetryLifecycle, PendingAndIdentity)
{
    Telemetry t(onConfig());
    t.beginCycle(1, 0);
    t.onPrefetchIssued(0x1000, PfSource::Fdip); // -> timely
    t.onPrefetchIssued(0x2000, PfSource::Fdip); // -> late
    t.onPrefetchIssued(0x3000, PfSource::Fdip); // -> unused
    t.onPrefetchIssued(0x4000, PfSource::Fdip); // -> pending
    t.beginCycle(10, 0);
    t.onPrefetchFill(0x1000, false);
    t.onPrefetchFill(0x3000, false);
    t.onPrefetchFirstUse(0x1000);
    t.onPrefetchLateMerge(0x2000, 9);
    t.onPrefetchEvicted(0x3000);
    auto s = t.finish();
    EXPECT_EQ(s->issuedTotal(), 4u);
    EXPECT_EQ(s->outcomeTotal(PfOutcome::Pending), 1u);
    std::uint64_t classified = 0;
    for (std::size_t o = 0; o < kNumPfOutcomes; ++o) {
        classified += s->outcomeTotal(static_cast<PfOutcome>(o));
    }
    EXPECT_EQ(classified, s->issuedTotal());
    EXPECT_EQ(s->taxonomy.count(), s->issuedTotal());
}

TEST(TelemetryLifecycle, ClearStatsDropsLiveRecords)
{
    Telemetry t(onConfig());
    t.beginCycle(1, 0);
    t.onPrefetchIssued(0x5000, PfSource::Fdip);
    t.clearStats(); // measurement window starts: warmup issue is dropped
    t.beginCycle(2, 0);
    t.onPrefetchFill(0x5000, false); // stale fill: must be a no-op
    auto s = t.finish();
    EXPECT_EQ(s->issuedTotal(), 0u);
    EXPECT_EQ(s->taxonomy.count(), 0u);
}

// --- intervals -------------------------------------------------------------

TEST(TelemetryIntervals, RowsCarryDeltas)
{
    TelemetryConfig cfg = onConfig();
    cfg.intervalCycles = 10;
    Telemetry t(cfg);
    t.clearStats();
    t.setBaseline({1000, 0, 0, 0, 0}); // cumulative retired before window
    Telemetry::IntervalCounters c;
    for (Cycle cyc = 1; cyc <= 20; ++cyc) {
        t.beginCycle(cyc, 4);
        if (t.intervalDue()) {
            c.retired += 15;
            c.ifetchMisses += 10;
            c.pfIssued += 8;
            c.pfUseful += 6;
            c.pfUnused += 2;
            Telemetry::IntervalCounters cum = c;
            cum.retired += 1000;
            t.closeInterval(cum);
        }
    }
    auto s = t.finish();
    ASSERT_EQ(s->intervals.size(), 2u);
    const IntervalRow& r0 = s->intervals[0];
    EXPECT_EQ(r0.index, 0u);
    EXPECT_EQ(r0.instructions, 15u); // baseline excludes warmup's 1000
    EXPECT_EQ(r0.cycleEnd - r0.cycleStart, 10u);
    EXPECT_DOUBLE_EQ(r0.ipc, 1.5);
    EXPECT_DOUBLE_EQ(r0.ftqOccupancy, 4.0);
    EXPECT_EQ(r0.prefetchesIssued, 8u);
    EXPECT_DOUBLE_EQ(r0.pfAccuracy, 0.75);
    const IntervalRow& r1 = s->intervals[1];
    EXPECT_EQ(r1.index, 1u);
    EXPECT_EQ(r1.instructions, 15u); // delta, not cumulative
}

// --- trace events ----------------------------------------------------------

TEST(TelemetryTrace, BoundedEventLog)
{
    TelemetryConfig cfg = onConfig();
    cfg.trace = true;
    cfg.maxTraceEvents = 3;
    Telemetry t(cfg);
    t.beginCycle(1, 0);
    for (int i = 0; i < 10; ++i) {
        t.onResteer(0x100 + static_cast<Addr>(i), false);
    }
    auto s = t.finish();
    EXPECT_EQ(s->events.size(), 3u);
    EXPECT_TRUE(s->traceTruncated);
}

TEST(TelemetryTrace, FinishMovesTheEventLogOut)
{
    TelemetryConfig cfg = onConfig();
    cfg.trace = true;
    Telemetry t(cfg);
    t.beginCycle(1, 0);
    t.onPrefetchIssued(0x1000, PfSource::Fdip);
    t.onResteer(0x100, true);
    // The still-live prefetch ends as a Pending span: three events.
    auto s = t.finish();
    ASSERT_EQ(s->events.size(), 3u);
    EXPECT_EQ(s->events[2].detail,
              static_cast<std::uint8_t>(PfOutcome::Pending));
    // The log moved: the collector holds nothing a second call could
    // return.
    auto again = t.finish();
    EXPECT_TRUE(again->events.empty());
    EXPECT_EQ(again->issuedTotal(), 0u);
}

TEST(TelemetryTrace, DisabledTraceRecordsNothing)
{
    Telemetry t(onConfig()); // trace defaults to false
    t.beginCycle(1, 0);
    t.onResteer(0x100, true);
    t.onUdpDrop(0x200);
    auto s = t.finish();
    EXPECT_TRUE(s->events.empty());
    EXPECT_FALSE(s->traceTruncated);
}

// --- Chrome-trace exporter -------------------------------------------------

TEST(TraceFile, RendersLifecycleAndMetadata)
{
    TelemetryConfig cfg = onConfig();
    cfg.trace = true;
    Telemetry t(cfg);
    t.beginCycle(1, 0);
    t.onPrefetchIssued(0xabc0, PfSource::Fdip);
    t.onResteer(0x400, true);
    t.beginCycle(20, 0);
    t.onPrefetchFill(0xabc0, false);
    t.onPrefetchFirstUse(0xabc0);

    std::string json =
        chromeTraceJson({{"mysql/udp8k", t.finish(), nullptr}});
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("process_name"), std::string::npos);
    EXPECT_NE(json.find("mysql/udp8k"), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos); // span begin
    EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos); // span end
    EXPECT_NE(json.find("timely"), std::string::npos);
    // Balanced braces/brackets => no dangling comma broke the JSON.
    EXPECT_EQ(json.back(), '\n');
    long depth = 0;
    for (char ch : json) {
        if (ch == '{' || ch == '[') {
            ++depth;
        } else if (ch == '}' || ch == ']') {
            --depth;
        }
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
}

TEST(TraceFile, EmptyJobListStillValid)
{
    const char* const expected =
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n]}\n";
    EXPECT_EQ(chromeTraceJson({}), expected);
    const std::string path = ::testing::TempDir() + "trace_empty.json";
    ASSERT_TRUE(writeChromeTrace(path, {}));
    std::ifstream in(path);
    std::stringstream written;
    written << in.rdbuf();
    EXPECT_EQ(written.str(), expected);
    std::remove(path.c_str());
}

// --- sink rows -------------------------------------------------------------

TEST(TelemetrySinkRows, IntervalJsonAndCsvAgree)
{
    IntervalRow row;
    row.index = 2;
    row.cycleStart = 100;
    row.cycleEnd = 200;
    row.instructions = 150;
    row.ipc = 1.5;
    std::string json = intervalToJsonLine("mysql", "udp8k", row);
    EXPECT_NE(json.find("\"row_type\":\"interval\""), std::string::npos);
    EXPECT_NE(json.find("\"workload\":\"mysql\""), std::string::npos);
    EXPECT_NE(json.find("\"ipc\":1.5"), std::string::npos);

    // CSV header and row have the same column count, matching the schema.
    std::string header = intervalCsvHeader();
    std::string csv = intervalToCsvRow("mysql", "udp8k", row);
    auto columns = [](const std::string& s) {
        return std::count(s.begin(), s.end(), ',') + 1;
    };
    EXPECT_EQ(columns(header), columns(csv));
    EXPECT_EQ(static_cast<std::size_t>(columns(header)),
              intervalSchemaKeys().size());
}

TEST(TelemetrySinkRows, SummaryRowCarriesTaxonomy)
{
    Telemetry t(onConfig());
    t.beginCycle(1, 0);
    t.onPrefetchIssued(0x1000, PfSource::Fdip);
    std::string json = telemetrySummaryToJsonLine("mysql", "udp8k",
                                                  *t.finish());
    EXPECT_NE(json.find("\"row_type\":\"telemetry_summary\""),
              std::string::npos);
    EXPECT_NE(json.find("\"pf_issued_total\":1"), std::string::npos);
    EXPECT_NE(json.find("\"pf_pending_total\":1"), std::string::npos);
    EXPECT_NE(json.find("\"pf_late_by_p99\":"), std::string::npos);
}

// --- end-to-end ------------------------------------------------------------

RunOptions
tinyOptions()
{
    RunOptions o;
    o.warmupInstrs = 20'000;
    o.measureInstrs = 60'000;
    return o;
}

Profile
tinyProfile()
{
    Profile p = profileByName("mediawiki");
    p.name = "telemetrytest";
    p.seed = 11;
    p.codeFootprintKB = 96;
    return p;
}

TEST(TelemetryIntegration, TaxonomyIdentityOnRealRun)
{
    SimConfig c = presets::udp8k();
    c.telemetry.enabled = true;
    c.telemetry.trace = true;
    c.telemetry.intervalCycles = 2'000;
    Report r = runSim(tinyProfile(), c, tinyOptions(), "udp8k");
    ASSERT_TRUE(r.telemetry != nullptr);
    const TelemetrySnapshot& s = *r.telemetry;

    // The paper's accounting identity: every issued prefetch has exactly
    // one lifecycle outcome.
    ASSERT_GT(s.issuedTotal(), 0u);
    std::uint64_t classified = 0;
    for (std::size_t o = 0; o < kNumPfOutcomes; ++o) {
        classified += s.outcomeTotal(static_cast<PfOutcome>(o));
    }
    EXPECT_EQ(classified, s.issuedTotal());
    EXPECT_EQ(s.taxonomy.count(), s.issuedTotal());

    EXPECT_GE(s.intervals.size(), 1u);
    EXPECT_FALSE(s.events.empty());
}

TEST(TelemetryIntegration, TelemetryOffLeavesReportIdentical)
{
    SimConfig on = presets::udp8k();
    on.telemetry.enabled = true;
    on.telemetry.trace = true;
    on.telemetry.intervalCycles = 2'000;
    SimConfig off = presets::udp8k();

    Report a = runSim(tinyProfile(), on, tinyOptions(), "udp8k");
    Report b = runSim(tinyProfile(), off, tinyOptions(), "udp8k");
    EXPECT_TRUE(b.telemetry == nullptr);
    // Telemetry must be pure observation: every serialized byte of the
    // report row is unchanged.
    EXPECT_EQ(reportToJsonLine(a), reportToJsonLine(b));
    EXPECT_EQ(reportToCsvRow(a), reportToCsvRow(b));
}

TEST(TelemetryIntegration, SimErrorWritesPostMortemTrace)
{
    std::string path = ::testing::TempDir() + "udp_error_trace.json";
    std::remove(path.c_str());

    SimConfig c = presets::fdipBaseline();
    c.watchdog.retireStallCycles = 5'000;
    c.fault.kind = FaultKind::FreezeRetire;
    c.fault.triggerCycle = 500;
    c.telemetry.enabled = true;
    c.telemetry.trace = true;
    c.telemetry.errorTracePath = path;

    EXPECT_THROW(runSim(tinyProfile(), c, tinyOptions(), "frozen"),
                 SimError);

    std::ifstream in(path);
    ASSERT_TRUE(in.is_open()) << "no post-mortem trace at " << path;
    std::stringstream buf;
    buf << in.rdbuf();
    std::string trace = buf.str();
    EXPECT_NE(trace.find("sim_error"), std::string::npos);
    EXPECT_NE(trace.find("retire_stall"), std::string::npos);
    EXPECT_NE(trace.find("frozen"), std::string::npos);
    std::remove(path.c_str());
}

} // namespace
} // namespace udp
