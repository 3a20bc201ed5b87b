/**
 * @file
 * Leveled structured event log (docs/OBSERVABILITY.md).
 *
 * Replaces ad-hoc fprintf(stderr, ...) in the sweep engine with one
 * process-wide writer that renders each event twice:
 *
 *  - a human line on stderr ("[sweep] progress done=5 total=50 ..."),
 *    assembled completely and emitted as ONE write so concurrent pool
 *    workers sharing a terminal never interleave mid-line;
 *  - a schema-stable JSONL record ({"ts_ms":...,"level":"info",
 *    "source":...,"event":..., <fields>}) to an optional file sink
 *    (UDP_EVENT_LOG=<path> or EventLog::openSink).
 *
 * Every emitted event also lands in a bounded in-memory ring. When an
 * Error-level event fires, the ring — including Debug events that were
 * below the sink threshold — is flushed to the sink first, so the file
 * always holds the context that led up to a failure.
 *
 * Rate limiting is per (source, event) key: Event::every(sec) drops
 * repeats inside the window (progress ticks); Event::force() bypasses it
 * (the final 100% line).
 */

#ifndef UDP_OBS_EVENTLOG_H
#define UDP_OBS_EVENTLOG_H

#include <cstdint>
#include <deque>
#include <fstream>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace udp::obs {

enum class LogLevel : std::uint8_t
{
    Debug = 0,
    Info = 1,
    Warn = 2,
    Error = 3,
};

const char* logLevelName(LogLevel level);

class EventLog
{
  public:
    /** The process-wide log. First use applies UDP_EVENT_LOG and
     *  UDP_LOG_LEVEL from the environment. */
    static EventLog& global();

    /** Minimum level echoed to stderr (default Info). */
    void setStderrLevel(LogLevel level);

    /** Minimum level written to the file sink (default Info; ring flush
     *  on error ignores this so pre-error Debug context survives). */
    void setSinkLevel(LogLevel level);

    /** Opens (appends to) @p path as the JSONL sink; returns success. */
    bool openSink(const std::string& path);
    void closeSink();

    struct Field
    {
        enum class Type : std::uint8_t
        {
            Str,
            U64,
            I64,
            F64,
        };
        std::string key;
        Type type = Type::Str;
        std::string str;
        std::uint64_t u64 = 0;
        std::int64_t i64 = 0;
        double f64 = 0.0;
    };

    /**
     * Emits one event. @p rateLimitSec > 0 drops the event when the same
     * (source, event) pair fired less than that many seconds ago, unless
     * @p force. Thread-safe; one mutex serializes formatting and both
     * writers.
     */
    void emit(LogLevel level, const std::string& source,
              const std::string& event, const std::vector<Field>& fields,
              double rateLimitSec = 0.0, bool force = false);

    /** Copy of the ring's JSON lines, oldest first (tests, diagnostics). */
    std::vector<std::string> recentLines() const;

    /** Events dropped by rate limiting since process start. */
    std::uint64_t rateLimitedDrops() const;

  private:
    struct RingEntry
    {
        std::string jsonLine;
        LogLevel level;
        bool sunk; ///< already written to the file sink
    };

    void flushRingLocked();

    static constexpr std::size_t kRingCapacity = 256;

    mutable std::mutex mtx_;
    std::ofstream sink_;
    std::deque<RingEntry> ring_;
    std::unordered_map<std::string, double> lastEmit_; ///< key -> monotonic s
    LogLevel stderrLevel_ = LogLevel::Info;
    LogLevel sinkLevel_ = LogLevel::Info;
    std::uint64_t rateDrops_ = 0;
};

/**
 * Fluent event builder:
 *
 *   obs::Event(obs::LogLevel::Info, "sweep", "progress")
 *       .u64("done", done).u64("total", total).f64("eta_sec", eta)
 *       .every(0.25)
 *       .emit();
 */
class Event
{
  public:
    Event(LogLevel level, std::string source, std::string event)
        : level_(level), source_(std::move(source)), event_(std::move(event))
    {
    }

    Event& str(const std::string& key, std::string value)
    {
        EventLog::Field f;
        f.key = key;
        f.type = EventLog::Field::Type::Str;
        f.str = std::move(value);
        fields_.push_back(std::move(f));
        return *this;
    }

    Event& u64(const std::string& key, std::uint64_t value)
    {
        EventLog::Field f;
        f.key = key;
        f.type = EventLog::Field::Type::U64;
        f.u64 = value;
        fields_.push_back(std::move(f));
        return *this;
    }

    Event& i64(const std::string& key, std::int64_t value)
    {
        EventLog::Field f;
        f.key = key;
        f.type = EventLog::Field::Type::I64;
        f.i64 = value;
        fields_.push_back(std::move(f));
        return *this;
    }

    Event& f64(const std::string& key, double value)
    {
        EventLog::Field f;
        f.key = key;
        f.type = EventLog::Field::Type::F64;
        f.f64 = value;
        fields_.push_back(std::move(f));
        return *this;
    }

    /** Rate-limit repeats of this (source, event) to one per @p sec. */
    Event& every(double sec)
    {
        rateLimitSec_ = sec;
        return *this;
    }

    /** Bypass the rate limit for this emission (final progress line). */
    Event& force()
    {
        force_ = true;
        return *this;
    }

    void emit()
    {
        EventLog::global().emit(level_, source_, event_, fields_,
                                rateLimitSec_, force_);
    }

  private:
    LogLevel level_;
    std::string source_;
    std::string event_;
    std::vector<EventLog::Field> fields_;
    double rateLimitSec_ = 0.0;
    bool force_ = false;
};

} // namespace udp::obs

#endif // UDP_OBS_EVENTLOG_H
