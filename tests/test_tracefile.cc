/**
 * @file
 * Byte-level tests of the Chrome-trace writer (stats/tracefile.h): a
 * hand-built trace must render to exactly the pinned text, a trace
 * larger than the file buffer must read back equal to the in-memory
 * render, and a failed write must leave neither a .tmp file nor a
 * damaged target.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "stats/tracefile.h"

namespace udp {
namespace {

constexpr std::uint8_t kTimely = static_cast<std::uint8_t>(PfOutcome::Timely);
constexpr std::uint8_t kLate = static_cast<std::uint8_t>(PfOutcome::Late);

TraceEvent
event(TraceEvent::Kind kind, std::uint8_t track, TraceName name, Cycle ts,
      Cycle dur, Addr addr, double value,
      std::uint8_t detail = TraceEvent::kNoDetail)
{
    TraceEvent ev;
    ev.kind = kind;
    ev.track = track;
    ev.name = name;
    ev.ts = ts;
    ev.addr = addr;
    ev.detail = detail;
    // dur and value share their bytes: each kind carries one of them.
    if (kind == TraceEvent::Kind::Slice || kind == TraceEvent::Kind::Span) {
        EXPECT_EQ(value, 0.0);
        ev.dur = dur;
    } else {
        EXPECT_EQ(dur, 0u);
        ev.value = value;
    }
    return ev;
}

obs::ProfileIntervalRow
profileRow(Cycle start, Cycle end, double scale)
{
    obs::ProfileIntervalRow row;
    row.cycleStart = start;
    row.cycleEnd = end;
    for (std::size_t i = 0; i < obs::kNumProfPhases; ++i) {
        row.phaseSec[i] = scale * static_cast<double>(i);
    }
    return row;
}

/**
 * Four jobs that reach every branch of the writer: a snapshot holding
 * each event shape plus a profile; a job with neither (skipped, but its
 * pid still counts); a snapshot ending in a sim_error whose strings
 * need escaping; and a profile alone.
 */
std::vector<TraceJob>
pinnedJobs()
{
    using K = TraceEvent::Kind;
    auto snap = std::make_shared<TelemetrySnapshot>();
    using N = TraceName;
    snap->events = {
        event(K::Slice, kTrackPipeline, N::IcacheMissStall, 10, 5, 0x1f40,
              0.0),
        event(K::Instant, kTrackPipeline, N::DecodeResteer, 12, 0, 0x400,
              0.0),
        event(K::Instant, kTrackUdp, N::UdpDrop, 13, 0, 0, 2.5),
        event(K::Instant, kTrackUdp, N::UsefulSetClear, 14, 0, 0xabc0, 3.0),
        event(K::Instant, kTrackPipeline, N::FtqFlush, 15, 0, 0, 0.0),
        event(K::Counter, kTrackCounters, N::Ipc, 16, 0, 0, 2.0),
        event(K::Counter, kTrackCounters, N::IcacheMpki, 16, 0, 0, 0.1),
        event(K::Counter, kTrackCounters, N::FtqDepth, 17, 0, 0, 1e20),
        event(K::Span, kTrackPrefetch, N::Fdip, 1, 0, 0xabc0, 0.0),
        event(K::Span, kTrackPrefetch, N::Fdip, 20, 19, 0xabc0, 0.0,
              kTimely),
        event(K::Span, kTrackPrefetch, N::Fdip, 21, 7, 0xdef40, 0.0),
    };
    auto prof = std::make_shared<obs::ProfileSnapshot>();
    prof->intervals = {profileRow(0, 100, 0.5), profileRow(100, 200, 1e-7)};

    auto failed = std::make_shared<TelemetrySnapshot>();
    failed->events = {event(K::Instant, kTrackPipeline,
                            TraceName::DecodeResteer, 30, 0, 0x800, 0.0)};
    failed->errorKind = "retire_stall";
    failed->errorComponent = "back\\end";
    failed->errorCycle = 5000;
    failed->errorDump = "[rob] occupancy=3/224 \"stalled\"\n"
                        "[mshr] C:\\path\ttab\x01 end\n";

    auto profOnly = std::make_shared<obs::ProfileSnapshot>();
    profOnly->intervals = {profileRow(50, 60, 0.25)};

    return {
        {"mysql/udp8k \"v2\"", snap, prof},
        {"skipped/none", nullptr, nullptr},
        {"clang/fdip32", failed, nullptr},
        {"verilator/uftq", nullptr, profOnly},
    };
}

/** pinnedJobs() as written: one record per line, job-ordered. */
const char* const kPinnedTrace = R"json({"displayTimeUnit":"ms","traceEvents":[
{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"mysql/udp8k \"v2\""}},
{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"pipeline"}},
{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"prefetch"}},
{"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"udp"}},
{"name":"thread_name","ph":"M","pid":1,"tid":3,"args":{"name":"counters"}},
{"name":"thread_name","ph":"M","pid":1,"tid":4,"args":{"name":"self_profile"}},
{"name":"host_us_per_phase","ph":"C","pid":1,"tid":4,"ts":0,"args":{"icache":0,"backend":500000,"fetch":1000000,"bpred":1500000,"prefetch":2000000,"other":2500000}},
{"name":"host_us_per_phase","ph":"C","pid":1,"tid":4,"ts":100,"args":{"icache":0,"backend":0.09999999999999999,"fetch":0.19999999999999998,"bpred":0.3,"prefetch":0.39999999999999997,"other":0.5}},
{"name":"icache_miss_stall","ph":"X","pid":1,"tid":0,"ts":10,"dur":5,"args":{"line":"0x1f40"}},
{"name":"decode_resteer","ph":"i","pid":1,"tid":0,"ts":12,"s":"t","args":{"addr":"0x400"}},
{"name":"udp_drop","ph":"i","pid":1,"tid":2,"ts":13,"s":"t","args":{"value":2.5}},
{"name":"useful_set_clear","ph":"i","pid":1,"tid":2,"ts":14,"s":"t","args":{"addr":"0xabc0","value":3}},
{"name":"ftq_flush","ph":"i","pid":1,"tid":0,"ts":15,"s":"t","args":{}},
{"name":"ipc","ph":"C","pid":1,"tid":3,"ts":16,"args":{"ipc":2}},
{"name":"icache_mpki","ph":"C","pid":1,"tid":3,"ts":16,"args":{"icache_mpki":0.1}},
{"name":"ftq_depth","ph":"C","pid":1,"tid":3,"ts":17,"args":{"ftq_depth":1e+20}},
{"name":"fdip","ph":"b","pid":1,"tid":1,"ts":1,"cat":"pf","id":"0xabc0"},
{"name":"fdip","ph":"e","pid":1,"tid":1,"ts":20,"cat":"pf","id":"0xabc0","args":{"outcome":"timely"}},
{"name":"fdip","ph":"e","pid":1,"tid":1,"ts":21,"cat":"pf","id":"0xdef40"},
{"name":"process_name","ph":"M","pid":3,"tid":0,"args":{"name":"clang/fdip32"}},
{"name":"thread_name","ph":"M","pid":3,"tid":0,"args":{"name":"pipeline"}},
{"name":"thread_name","ph":"M","pid":3,"tid":1,"args":{"name":"prefetch"}},
{"name":"thread_name","ph":"M","pid":3,"tid":2,"args":{"name":"udp"}},
{"name":"thread_name","ph":"M","pid":3,"tid":3,"args":{"name":"counters"}},
{"name":"decode_resteer","ph":"i","pid":3,"tid":0,"ts":30,"s":"t","args":{"addr":"0x800"}},
{"name":"sim_error","ph":"i","pid":3,"tid":0,"ts":5000,"s":"p","args":{"kind":"retire_stall","component":"back\\end","dump":"[rob] occupancy=3/224 \"stalled\"\n[mshr] C:\\path\ttab\u0001 end\n"}},
{"name":"process_name","ph":"M","pid":4,"tid":0,"args":{"name":"verilator/uftq"}},
{"name":"thread_name","ph":"M","pid":4,"tid":0,"args":{"name":"pipeline"}},
{"name":"thread_name","ph":"M","pid":4,"tid":1,"args":{"name":"prefetch"}},
{"name":"thread_name","ph":"M","pid":4,"tid":2,"args":{"name":"udp"}},
{"name":"thread_name","ph":"M","pid":4,"tid":3,"args":{"name":"counters"}},
{"name":"thread_name","ph":"M","pid":4,"tid":4,"args":{"name":"self_profile"}},
{"name":"host_us_per_phase","ph":"C","pid":4,"tid":4,"ts":50,"args":{"icache":0,"backend":250000,"fetch":500000,"bpred":750000,"prefetch":1000000,"other":1250000}}
]}
)json";

std::string
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(TraceFile, WritesThePinnedBytes)
{
    const std::string path = ::testing::TempDir() + "trace_pinned.json";
    ASSERT_TRUE(writeChromeTrace(path, pinnedJobs()));
    EXPECT_EQ(readFile(path), kPinnedTrace);
    EXPECT_EQ(chromeTraceJson(pinnedJobs()), kPinnedTrace);
    std::remove(path.c_str());
}

/** One job whose trace is far larger than a 64 KiB file buffer. */
std::vector<TraceJob>
largeJobs()
{
    auto snap = std::make_shared<TelemetrySnapshot>();
    for (Cycle c = 1; c <= 4000; ++c) {
        snap->events.push_back(event(TraceEvent::Kind::Span, kTrackPrefetch,
                                     TraceName::Fdip, c, c % 3 == 0 ? 0 : c,
                                     0x40 * c, 0.0, kLate));
        snap->events.push_back(event(TraceEvent::Kind::Counter,
                                     kTrackCounters, TraceName::Ipc, c, 0, 0,
                                     1.0 / static_cast<double>(c)));
    }
    return {{"big/trace", snap, nullptr}};
}

TEST(TraceFile, LargeTraceFileEqualsInMemoryRender)
{
    const std::string path = ::testing::TempDir() + "trace_large.json";
    ASSERT_TRUE(writeChromeTrace(path, largeJobs()));
    const std::string expected = chromeTraceJson(largeJobs());
    EXPECT_GT(expected.size(), 64u * 1024u);
    EXPECT_EQ(readFile(path), expected);
    std::remove(path.c_str());
}

TEST(TraceFile, FailedWriteLeavesNoTmpAndKeepsTheTarget)
{
    namespace fs = std::filesystem;
    if (!fs::exists("/dev/full")) {
        GTEST_SKIP() << "no /dev/full to fail the write";
    }
    const std::string path = ::testing::TempDir() + "trace_full.json";
    const std::string tmp = path + ".tmp";
    // A small trace fails when the file is closed, a large one while it
    // is being written.
    for (const std::vector<TraceJob>& jobs : {pinnedJobs(), largeJobs()}) {
        std::ofstream(path) << "previous trace\n";
        fs::remove(tmp);
        fs::create_symlink("/dev/full", tmp);
        EXPECT_FALSE(writeChromeTrace(path, jobs));
        EXPECT_FALSE(fs::exists(fs::symlink_status(tmp)));
        EXPECT_EQ(readFile(path), "previous trace\n");
    }
    fs::remove(tmp);
    fs::remove(path);
}

} // namespace
} // namespace udp
