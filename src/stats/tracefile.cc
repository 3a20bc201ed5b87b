#include "stats/tracefile.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>

#include "stats/sink.h"

namespace udp {

namespace {

/**
 * Room for one record without a job string: its fixed text (under 200
 * bytes), at most nine numbers of at most kNumberChars each, and the
 * model's static event, track and phase names, which are short literals.
 * Job names have no bound and go to the file past it.
 */
constexpr std::size_t kRecordChars = 1024;

/** stdio buffer of the file being written. */
constexpr std::size_t kFileBufferBytes = 64 * 1024;

const char*
trackName(std::uint8_t track)
{
    switch (track) {
    case kTrackPipeline:
        return "pipeline";
    case kTrackPrefetch:
        return "prefetch";
    case kTrackUdp:
        return "udp";
    case kTrackCounters:
        return "counters";
    }
    return "other";
}

/** Copies the static text @p s to @p p; returns the end. */
char*
put(char* p, const char* s)
{
    const std::size_t n = std::strlen(s);
    std::memcpy(p, s, n);
    return p + n;
}

char*
putUint(char* p, std::uint64_t v)
{
    return std::to_chars(p, p + 20, v).ptr;
}

/** "0x" and @p a in lowercase hex, as printf("0x%llx") renders it. */
char*
putHex(char* p, Addr a)
{
    p = put(p, "0x");
    return std::to_chars(p, p + 16, a, 16).ptr;
}

/** Starts a record in @p buf: ",\n" goes before every record but the
 *  first, so the array never ends in a comma. */
char*
beginRecord(char* buf, bool& first)
{
    if (first) {
        first = false;
        return buf;
    }
    return put(buf, ",\n");
}

/** Hands the text [buf, end) to @p f's stdio buffer. */
void
emit(std::FILE* f, const char* buf, const char* end)
{
    std::fwrite(buf, 1, static_cast<std::size_t>(end - buf), f);
}

/** Writes jsonEscape(@p s), of any length, straight to @p f. */
void
writeEscaped(std::FILE* f, const std::string& s)
{
    const std::string escaped = jsonEscape(s);
    std::fwrite(escaped.data(), 1, escaped.size(), f);
}

char*
putCommon(char* p, const char* name, const char* ph, unsigned pid,
          unsigned tid, Cycle ts)
{
    p = put(p, "{\"name\":\"");
    p = put(p, name);
    p = put(p, "\",\"ph\":\"");
    p = put(p, ph);
    p = put(p, "\",\"pid\":");
    p = putUint(p, pid);
    p = put(p, ",\"tid\":");
    p = putUint(p, tid);
    p = put(p, ",\"ts\":");
    return putUint(p, ts);
}

void
writeThreadName(std::FILE* f, bool& first, unsigned pid, unsigned tid,
                const char* name)
{
    char buf[kRecordChars];
    char* p = beginRecord(buf, first);
    p = put(p, "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":");
    p = putUint(p, pid);
    p = put(p, ",\"tid\":");
    p = putUint(p, tid);
    p = put(p, ",\"args\":{\"name\":\"");
    p = put(p, name);
    emit(f, buf, put(p, "\"}}"));
}

/** The job's process_name record, then one thread_name per track. */
void
writeMetadata(std::FILE* f, bool& first, unsigned pid,
              const std::string& process_name)
{
    char buf[kRecordChars];
    char* p = beginRecord(buf, first);
    p = put(p, "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":");
    p = putUint(p, pid);
    emit(f, buf, put(p, ",\"tid\":0,\"args\":{\"name\":\""));
    writeEscaped(f, process_name);
    std::fputs("\"}}", f);
    for (unsigned tid = 0; tid <= kTrackCounters; ++tid) {
        writeThreadName(f, first, pid, tid, trackName(tid));
    }
}

/** One self-profile sample: host microseconds per phase, stacked. */
void
writeProfileRow(std::FILE* f, bool& first, unsigned pid, unsigned tid,
                const obs::ProfileIntervalRow& row)
{
    char buf[kRecordChars];
    char* p = beginRecord(buf, first);
    p = putCommon(p, "host_us_per_phase", "C", pid, tid, row.cycleStart);
    p = put(p, ",\"args\":{");
    for (std::size_t i = 0; i < obs::kNumProfPhases; ++i) {
        p = put(p, i == 0 ? "\"" : ",\"");
        p = put(p, obs::profPhaseName(static_cast<obs::ProfPhase>(i)));
        p = put(p, "\":");
        p = formatNumber(p, row.phaseSec[i] * 1e6);
    }
    emit(f, buf, put(p, "}}"));
}

void
writeEvent(std::FILE* f, bool& first, const TraceEvent& ev, unsigned pid)
{
    char buf[kRecordChars];
    char* p = beginRecord(buf, first);
    const char* name = traceEventName(ev.name);
    switch (ev.kind) {
    case TraceEvent::Kind::Slice:
        p = putCommon(p, name, "X", pid, ev.track, ev.ts);
        p = put(p, ",\"dur\":");
        p = putUint(p, ev.dur);
        p = put(p, ",\"args\":{\"line\":\"");
        p = putHex(p, ev.addr);
        p = put(p, "\"}}");
        break;
    case TraceEvent::Kind::Instant:
        p = putCommon(p, name, "i", pid, ev.track, ev.ts);
        p = put(p, ",\"s\":\"t\",\"args\":{");
        if (ev.addr != 0) {
            p = put(p, "\"addr\":\"");
            p = putHex(p, ev.addr);
            p = put(p, ev.value != 0.0 ? "\"," : "\"");
        }
        if (ev.value != 0.0) {
            p = put(p, "\"value\":");
            p = formatNumber(p, ev.value);
        }
        p = put(p, "}}");
        break;
    case TraceEvent::Kind::Counter:
        p = putCommon(p, name, "C", pid, ev.track, ev.ts);
        p = put(p, ",\"args\":{\"");
        p = put(p, name);
        p = put(p, "\":");
        p = formatNumber(p, ev.value);
        p = put(p, "}}");
        break;
    case TraceEvent::Kind::Span:
        // Async begin (dur == 0) / end (dur != 0) pair keyed by the line
        // address, so overlapping in-flight prefetches render separately.
        p = putCommon(p, name, ev.dur == 0 ? "b" : "e", pid, ev.track,
                      ev.ts);
        p = put(p, ",\"cat\":\"pf\",\"id\":\"");
        p = putHex(p, ev.addr);
        p = put(p, "\"");
        if (ev.dur != 0 && ev.detail != TraceEvent::kNoDetail) {
            p = put(p, ",\"args\":{\"outcome\":\"");
            p = put(p, pfOutcomeName(static_cast<PfOutcome>(ev.detail)));
            p = put(p, "\"}");
        }
        p = put(p, "}");
        break;
    }
    emit(f, buf, p);
}

/** Releases the text open_memstream() allocated. */
struct FreeChars
{
    void operator()(char* p) const { std::free(p); }
};

/** The whole trace, record by record; a write error sticks to @p f. */
void
writeTrace(std::FILE* f, const std::vector<TraceJob>& jobs)
{
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
    bool first = true;
    unsigned pid = 0;
    for (const TraceJob& job : jobs) {
        ++pid;
        if (!job.snap && !job.prof) {
            continue;
        }
        writeMetadata(f, first, pid, job.name);
        if (job.prof) {
            // Self-profiler track: one ph "C" sample per interval.
            const unsigned tid = kTrackCounters + 1;
            writeThreadName(f, first, pid, tid, "self_profile");
            for (const obs::ProfileIntervalRow& row : job.prof->intervals) {
                writeProfileRow(f, first, pid, tid, row);
            }
        }
        if (!job.snap) {
            continue;
        }
        for (const TraceEvent& ev : job.snap->events) {
            writeEvent(f, first, ev, pid);
        }
    }
    std::fputs(first ? "]}\n" : "\n]}\n", f);
}

} // namespace

std::string
chromeTraceJson(const std::vector<TraceJob>& jobs)
{
    char* data = nullptr;
    std::size_t size = 0;
    std::FILE* f = open_memstream(&data, &size);
    if (!f) {
        throw std::bad_alloc();
    }
    writeTrace(f, jobs);
    bool ok = std::ferror(f) == 0;
    ok = std::fclose(f) == 0 && ok;
    const std::unique_ptr<char, FreeChars> owned(data);
    if (!ok) {
        // A memory stream fails only when memory runs out.
        throw std::bad_alloc();
    }
    return std::string(data, size);
}

bool
writeChromeTrace(const std::string& path, const std::vector<TraceJob>& jobs)
{
    std::string tmp = path + ".tmp";
    // Declared before the file, so it outlives fclose().
    auto buffer = std::make_unique<char[]>(kFileBufferBytes);
    std::FILE* f = std::fopen(tmp.c_str(), "w");
    if (!f) {
        return false;
    }
    std::setvbuf(f, buffer.get(), _IOFBF, kFileBufferBytes);
    writeTrace(f, jobs);
    bool ok = std::ferror(f) == 0;
    ok = std::fclose(f) == 0 && ok;
    if (!ok) {
        std::remove(tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

} // namespace udp
