#include "sim/sweepd.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "obs/eventlog.h"
#include "obs/metrics.h"
#include "obs/status.h"
#include "sim/manifest.h"
#include "sim/simconfig.h"
#include "stats/sink.h"
#include "workload/profile.h"

namespace udp {

namespace {

double
nowSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::uint64_t
wallMs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
}

void
sleepSec(double sec)
{
    std::this_thread::sleep_for(std::chrono::duration<double>(sec));
}

// --- minimal JSON scanning (spec files only) -------------------------------

/**
 * Position just past "key": (whitespace around the colon tolerated —
 * spec files are hand-written), or npos.
 */
std::size_t
specValuePos(const std::string& json, const std::string& key)
{
    std::string needle = "\"" + key + "\"";
    std::size_t pos = json.find(needle);
    if (pos == std::string::npos) {
        return std::string::npos;
    }
    pos += needle.size();
    while (pos < json.size() && std::isspace(
                                    static_cast<unsigned char>(json[pos]))) {
        ++pos;
    }
    if (pos >= json.size() || json[pos] != ':') {
        return std::string::npos;
    }
    ++pos;
    while (pos < json.size() && std::isspace(
                                    static_cast<unsigned char>(json[pos]))) {
        ++pos;
    }
    return pos;
}

/** Extracts "key":"string" (order-free; escapes honored). */
bool
specString(const std::string& json, const std::string& key, std::string* out)
{
    std::size_t pos = specValuePos(json, key);
    if (pos == std::string::npos || pos >= json.size() ||
        json[pos] != '"') {
        return false;
    }
    ++pos;
    std::string raw;
    while (pos < json.size() && json[pos] != '"') {
        if (json[pos] == '\\' && pos + 1 < json.size()) {
            raw += json[pos++];
        }
        raw += json[pos++];
    }
    if (pos >= json.size()) {
        return false;
    }
    return jsonUnescape(raw, out);
}

bool
specU64(const std::string& json, const std::string& key, std::uint64_t* out)
{
    std::size_t pos = specValuePos(json, key);
    if (pos == std::string::npos) {
        return false;
    }
    std::uint64_t v = 0;
    bool any = false;
    while (pos < json.size() && json[pos] >= '0' && json[pos] <= '9') {
        v = v * 10 + static_cast<std::uint64_t>(json[pos++] - '0');
        any = true;
    }
    if (!any) {
        return false;
    }
    *out = v;
    return true;
}

/** Extracts the body of "key":[ ... ] with bracket/string awareness. */
bool
specArray(const std::string& json, const std::string& key, std::string* out)
{
    std::size_t pos = specValuePos(json, key);
    if (pos == std::string::npos || pos >= json.size() ||
        json[pos] != '[') {
        return false;
    }
    ++pos;
    int depth = 1;
    bool inStr = false;
    std::size_t start = pos;
    while (pos < json.size()) {
        char c = json[pos];
        if (inStr) {
            if (c == '\\') {
                ++pos;
            } else if (c == '"') {
                inStr = false;
            }
        } else if (c == '"') {
            inStr = true;
        } else if (c == '[' || c == '{') {
            ++depth;
        } else if (c == ']' || c == '}') {
            if (--depth == 0) {
                *out = json.substr(start, pos - start);
                return true;
            }
        }
        ++pos;
    }
    return false;
}

/** Splits a JSON array body into its top-level elements (trimmed). */
std::vector<std::string>
specElements(const std::string& body)
{
    std::vector<std::string> out;
    int depth = 0;
    bool inStr = false;
    std::size_t start = 0;
    auto emit = [&](std::size_t end) {
        std::size_t a = start;
        std::size_t b = end;
        while (a < b && std::isspace(static_cast<unsigned char>(body[a]))) {
            ++a;
        }
        while (b > a &&
               std::isspace(static_cast<unsigned char>(body[b - 1]))) {
            --b;
        }
        if (b > a) {
            out.push_back(body.substr(a, b - a));
        }
    };
    for (std::size_t pos = 0; pos < body.size(); ++pos) {
        char c = body[pos];
        if (inStr) {
            if (c == '\\') {
                ++pos;
            } else if (c == '"') {
                inStr = false;
            }
        } else if (c == '"') {
            inStr = true;
        } else if (c == '[' || c == '{') {
            ++depth;
        } else if (c == ']' || c == '}') {
            --depth;
        } else if (c == ',' && depth == 0) {
            emit(pos);
            start = pos + 1;
        }
    }
    emit(body.size());
    return out;
}

bool
presetByName(const std::string& preset, unsigned ftq, SimConfig* out,
             std::string* err)
{
    if (preset == "fdip" || preset == "baseline") {
        *out = ftq != 0 ? presets::fdipWithFtq(ftq)
                        : presets::fdipBaseline();
        return true;
    }
    if (ftq != 0) {
        *err = "preset \"" + preset + "\" does not take an ftq override";
        return false;
    }
    if (preset == "perfect_icache") {
        *out = presets::perfectIcache();
    } else if (preset == "no_prefetch") {
        *out = presets::noPrefetch();
    } else if (preset == "udp8k") {
        *out = presets::udp8k();
    } else if (preset == "udp_infinite") {
        *out = presets::udpInfinite();
    } else if (preset == "big_icache40k") {
        *out = presets::bigIcache40k();
    } else if (preset == "eip8k") {
        *out = presets::eip8k();
    } else {
        *err = "unknown preset \"" + preset + "\"";
        return false;
    }
    return true;
}

std::string
sanitizeName(const std::string& name)
{
    std::string out;
    for (char c : name) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                  c == '.';
        out += ok ? c : '_';
    }
    return out.empty() ? std::string("worker") : out;
}

} // namespace

// --- sweep spec ------------------------------------------------------------

std::string
sweepSpecToJson(const SweepSpec& spec)
{
    std::string out = "{\"name\":\"" + jsonEscape(spec.name) +
                      "\",\"warmup_instrs\":" +
                      std::to_string(spec.warmupInstrs) +
                      ",\"measure_instrs\":" +
                      std::to_string(spec.measureInstrs) +
                      ",\"workloads\":[";
    for (std::size_t i = 0; i < spec.workloads.size(); ++i) {
        if (i != 0) {
            out += ',';
        }
        out += "\"" + jsonEscape(spec.workloads[i]) + "\"";
    }
    out += "],\"configs\":[";
    for (std::size_t i = 0; i < spec.configs.size(); ++i) {
        const SpecConfig& c = spec.configs[i];
        if (i != 0) {
            out += ',';
        }
        out += "{\"label\":\"" + jsonEscape(c.label) + "\",\"preset\":\"" +
               jsonEscape(c.preset) +
               "\",\"ftq\":" + std::to_string(c.ftq) + "}";
    }
    out += "]}";
    return out;
}

bool
sweepSpecFromJson(const std::string& json, SweepSpec* out, std::string* err)
{
    SweepSpec spec;
    specString(json, "name", &spec.name);
    if (!specU64(json, "warmup_instrs", &spec.warmupInstrs) ||
        !specU64(json, "measure_instrs", &spec.measureInstrs)) {
        *err = "spec needs numeric warmup_instrs and measure_instrs";
        return false;
    }
    std::string body;
    if (specArray(json, "workloads", &body)) {
        for (const std::string& el : specElements(body)) {
            std::string w;
            if (!specString("{\"v\":" + el + "}", "v", &w)) {
                *err = "workloads must be an array of strings";
                return false;
            }
            spec.workloads.push_back(std::move(w));
        }
    }
    if (!specArray(json, "configs", &body)) {
        *err = "spec needs a configs array";
        return false;
    }
    for (const std::string& el : specElements(body)) {
        SpecConfig c;
        if (!specString(el, "label", &c.label) ||
            !specString(el, "preset", &c.preset)) {
            *err = "every config needs label and preset";
            return false;
        }
        std::uint64_t ftq = 0;
        if (specU64(el, "ftq", &ftq)) {
            c.ftq = static_cast<unsigned>(ftq);
        }
        spec.configs.push_back(std::move(c));
    }
    if (spec.configs.empty()) {
        *err = "spec has no configs";
        return false;
    }
    *out = std::move(spec);
    return true;
}

bool
expandSweepSpec(const SweepSpec& spec, std::vector<SweepJob>* out,
                std::string* err)
{
    std::vector<std::string> names = spec.workloads;
    bool all = names.empty();
    for (const std::string& n : names) {
        if (n == "all") {
            all = true;
        }
    }
    if (all) {
        names.clear();
        for (const Profile& p : datacenterProfiles()) {
            names.push_back(p.name);
        }
    }
    RunOptions ro;
    ro.warmupInstrs = spec.warmupInstrs;
    ro.measureInstrs = spec.measureInstrs;
    out->clear();
    for (const std::string& w : names) {
        const Profile* prof;
        try {
            prof = &profileByName(w);
        } catch (const std::out_of_range&) {
            *err = "unknown workload \"" + w + "\"";
            return false;
        }
        for (const SpecConfig& c : spec.configs) {
            SweepJob job;
            if (!presetByName(c.preset, c.ftq, &job.config, err)) {
                return false;
            }
            job.profile = *prof;
            job.opts = ro;
            job.label = c.label;
            out->push_back(std::move(job));
        }
    }
    if (out->empty()) {
        *err = "spec expands to zero jobs";
        return false;
    }
    return true;
}

// --- worker ----------------------------------------------------------------

WorkerSummary
runSweepWorker(FsWorkQueue& queue, const std::vector<SweepJob>& jobs,
               const WorkerOptions& opts)
{
    WorkerSummary sum;
    std::vector<std::uint64_t> hashes(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        hashes[i] = sweepJobHash(jobs[i], i);
    }

    std::string shardPath;
    if (!opts.shardDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(opts.shardDir, ec);
        shardPath = opts.shardDir + "/" + sanitizeName(opts.name) +
                    ".shard.jsonl";
    }
    auto flushLocal = [&](const ManifestEntry& e) {
        if (shardPath.empty()) {
            return;
        }
        std::ofstream out(shardPath, std::ios::out | std::ios::app);
        if (!out.is_open()) {
            return;
        }
        out << manifestEntryToJsonLine(e) << '\n';
        out.flush();
        ++sum.flushedLocal;
    };

    for (;;) {
        if (opts.maxJobs != 0 && sum.executed >= opts.maxJobs) {
            break;
        }
        JobLease lease;
        ClaimOutcome co = queue.claim(opts.name, &lease);
        if (co == ClaimOutcome::Drained) {
            break;
        }
        if (co == ClaimOutcome::Lost) {
            sum.queueLost = true;
            break;
        }
        if (co == ClaimOutcome::NoWork) {
            sleepSec(opts.pollSec > 0.0 ? opts.pollSec
                                        : queue.noWorkRetrySec());
            continue;
        }

        ManifestEntry entry;
        entry.hash = lease.hash;
        entry.index = lease.index;
        entry.worker = opts.name;

        // The lease is only (hash, index): verify our own deterministic
        // expansion agrees before running anything. A divergent worker
        // (stale binary, different spec) must not push a wrong Report
        // under a valid hash.
        if (lease.index >= jobs.size() ||
            hashes[lease.index] != lease.hash) {
            entry.ok = false;
            entry.errorKind = "spec_mismatch";
            if (lease.index < jobs.size()) {
                entry.workload = jobs[lease.index].profile.name;
                entry.label = jobs[lease.index].label;
            }
            ++sum.mismatches;
            obs::counter("sweep_worker.spec_mismatches").add(1);
            if (!opts.quiet) {
                obs::Event(obs::LogLevel::Warn, opts.name, "spec_mismatch")
                    .u64("job", lease.index)
                    .emit();
            }
            if (queue.push(lease, entry) == PushOutcome::Lost) {
                sum.queueLost = true;
                break;
            }
            continue;
        }

        // Heartbeat at ttl/3 while the job runs, stopped (and joined)
        // before push so queue access is serialized per worker.
        std::atomic<bool> stopHb{false};
        double interval = std::max(0.05, lease.ttlSec / 3.0);
        std::thread hb([&] {
            double slept = 0.0;
            while (!stopHb.load()) {
                sleepSec(0.02);
                slept += 0.02;
                if (slept >= interval) {
                    slept = 0.0;
                    queue.renew(lease);
                }
            }
        });

        if (opts.jobDelayMs != 0) {
            sleepSec(static_cast<double>(opts.jobDelayMs) / 1000.0);
        }
        ++sum.executed;
        obs::counter("sweep_worker.jobs_executed").add(1);
        JobResult jr = runJobChecked(jobs[lease.index], lease.index,
                                     opts.exec);
        stopHb.store(true);
        hb.join();

        entry.workload = jobs[lease.index].profile.name;
        entry.label = jobs[lease.index].label;
        entry.ok = jr.ok;
        if (jr.ok) {
            entry.reportJson = reportToJsonLine(jr.report);
        } else {
            entry.errorKind = jr.error.kind;
        }

        switch (queue.push(lease, entry)) {
        case PushOutcome::Recorded:
            jr.ok ? ++sum.completed : ++sum.failures;
            break;
        case PushOutcome::Duplicate:
            ++sum.duplicates;
            break;
        case PushOutcome::Lost:
            // Queue unwritable mid-push: the result is not wasted — the
            // local shard manifest is absorbed on coordinator restart.
            sum.queueLost = true;
            if (entry.ok) {
                flushLocal(entry);
            }
            obs::counter("sweep_worker.queue_lost").add(1);
            if (!opts.quiet) {
                obs::Event(obs::LogLevel::Warn, opts.name, "queue_lost")
                    .u64("job", lease.index)
                    .str("result", entry.ok ? "flushed_local" : "dropped")
                    .emit();
            }
            break;
        }
        if (sum.queueLost) {
            break;
        }
    }
    return sum;
}

// --- coordinator -----------------------------------------------------------

struct SweepCoordinator::Impl
{
    std::vector<SweepJob> jobs;
    CoordinatorOptions opts;

    std::vector<std::uint64_t> hashes;
    std::unordered_map<std::uint64_t, std::size_t> hashToIndex;

    std::vector<ManifestEntry> finals;
    std::vector<char> haveFinal;
    std::size_t finalCount = 0;
    std::size_t failedCount = 0;
    std::size_t resumedCount = 0;

    SweepManifest manifest;
    std::atomic<bool> stop{false};
    bool started = false;
    double startTime = 0.0;

    std::unique_ptr<FsWorkQueue> queue;

    // --- live status surface (obs/status.h) --------------------------
    // The coordinator reconstructs per-worker counters by diffing
    // lease-directory snapshots each tick. Rows store ABSOLUTE
    // last-contact times (monotonic seconds); buildStatus() converts to
    // ages on export.
    std::unordered_map<std::string, obs::WorkerStatusRow> workers;
    struct SeenLease
    {
        std::string worker;
        std::uint64_t hash = 0;
        std::uint64_t expiryMs = 0;
    };
    std::unordered_map<std::uint64_t, SeenLease> seenLeases; ///< by token
    std::vector<FsLeaseInfo> leaseSnapshot;
    double lastStatusSec = 0.0;

    obs::WorkerStatusRow& workerRow(const std::string& name)
    {
        obs::WorkerStatusRow& row = workers[name];
        if (row.name.empty()) {
            row.name = name;
            row.lastSeenSec = nowSec();
        }
        return row;
    }

    /**
     * Folds one lease-directory snapshot into the per-worker rows: a new
     * token is a claim (attempt >= 2 marks a retry; a second live lease
     * on the same hash marks a straggler grant), a larger expiry on a
     * known token is a heartbeat renewal, and a vanished token whose
     * lease was already past expiry counts as an expiration (a push
     * removes its lease file too, so in-date disappearances are normal
     * completions and are not charged).
     */
    void updateWorkers(std::vector<FsLeaseInfo> leases)
    {
        double now = nowSec();
        std::uint64_t nowMs = wallMs();
        std::unordered_map<std::uint64_t, std::size_t> liveByHash;
        for (const FsLeaseInfo& l : leases) {
            ++liveByHash[l.hash];
        }
        std::unordered_map<std::uint64_t, SeenLease> seen;
        for (const FsLeaseInfo& l : leases) {
            obs::WorkerStatusRow& row = workerRow(l.worker);
            auto it = seenLeases.find(l.token);
            if (it == seenLeases.end()) {
                ++row.claims;
                if (l.attempt >= 2) {
                    ++row.retries;
                }
                if (liveByHash[l.hash] > 1) {
                    ++row.stragglers;
                }
                row.lastSeenSec = now;
            } else if (l.expiryMs > it->second.expiryMs) {
                ++row.renewals;
                row.lastSeenSec = now;
            }
            seen[l.token] = SeenLease{l.worker, l.hash, l.expiryMs};
        }
        for (const auto& [token, old] : seenLeases) {
            if (seen.find(token) != seen.end()) {
                continue;
            }
            if (old.expiryMs <= nowMs) {
                // lastSeenSec left alone: the silence should show.
                ++workerRow(old.worker).expirations;
            }
        }
        seenLeases = std::move(seen);
        leaseSnapshot = std::move(leases);
    }

    /** One status document (obs/status.h JSON) from live state. */
    std::string buildStatus()
    {
        double now = nowSec();
        obs::SweepStatus st;
        st.name = opts.name;
        st.transport = "fs";
        st.tsMs = wallMs();
        st.total = jobs.size();
        st.done = finalCount - failedCount;
        st.failed = failedCount;
        st.resumed = resumedCount;
        st.elapsedSec = started ? now - startTime : 0.0;
        st.jobStates.assign(jobs.size(), obs::kJobPending);
        std::unordered_map<std::uint64_t, char> leasedHash;
        for (const FsLeaseInfo& l : leaseSnapshot) {
            leasedHash[l.hash] = 1;
        }
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            if (haveFinal[i]) {
                st.jobStates[i] =
                    finals[i].ok ? obs::kJobDone : obs::kJobFailed;
            } else if (leasedHash.find(hashes[i]) != leasedHash.end()) {
                st.jobStates[i] = obs::kJobLeased;
            }
        }
        for (auto& [name, row] : workers) {
            (void)name;
            row.activeLeases = 0;
        }
        for (const FsLeaseInfo& l : leaseSnapshot) {
            ++workerRow(l.worker).activeLeases;
        }
        for (const auto& [name, src] : workers) {
            (void)name;
            obs::WorkerStatusRow row = src;
            row.lastSeenSec =
                src.lastSeenSec >= 0.0 ? now - src.lastSeenSec : -1.0;
            st.workers.push_back(std::move(row));
        }
        std::sort(st.workers.begin(), st.workers.end(),
                  [](const obs::WorkerStatusRow& a,
                     const obs::WorkerStatusRow& b) {
                      return a.name < b.name;
                  });
        for (char c : st.jobStates) {
            if (c == obs::kJobPending) {
                ++st.pending;
            } else if (c == obs::kJobLeased) {
                ++st.leased;
            }
        }
        std::size_t fresh =
            finalCount > resumedCount ? finalCount - resumedCount : 0;
        st.etaSec = fresh == 0
                        ? -1.0
                        : st.elapsedSec / static_cast<double>(fresh) *
                              static_cast<double>(jobs.size() - finalCount);
        st.metricsJson = obs::Registry::global().snapshotJson();
        return sweepStatusToJson(st);
    }

    /** Refreshes "<dir>/status.json" (rate-limited unless @p force —
     *  the post-drain publication must always land). */
    void publishStatus(bool force)
    {
        double now = nowSec();
        if (!force && now - lastStatusSec < std::max(opts.pollSec, 0.25)) {
            return;
        }
        lastStatusSec = now;
        queue->writeStatusFile(buildStatus());
    }

    /** Records a job's final outcome exactly once. */
    void recordFinal(std::size_t idx, ManifestEntry e, bool toManifest)
    {
        if (haveFinal[idx]) {
            return;
        }
        haveFinal[idx] = 1;
        ++finalCount;
        obs::counter("sweepd.jobs_final").add(1);
        if (!e.ok) {
            ++failedCount;
            obs::counter("sweepd.jobs_failed").add(1);
        }
        if (toManifest && manifest.isOpen()) {
            manifest.record(e);
        }
        finals[idx] = std::move(e);
    }

    void postProgress()
    {
        SweepProgress p;
        p.done = finalCount;
        p.total = jobs.size();
        p.failed = failedCount;
        p.resumed = resumedCount;
        p.elapsedSec = nowSec() - startTime;
        std::size_t fresh = p.done > p.resumed ? p.done - p.resumed : 0;
        p.etaSec = fresh == 0 ? 0.0
                              : p.elapsedSec / static_cast<double>(fresh) *
                                    static_cast<double>(p.total - p.done);
        if (opts.onProgress) {
            opts.onProgress(p);
        } else if (!opts.quiet) {
            obs::Event ev(obs::LogLevel::Info, "sweepd", "progress");
            ev.u64("done", p.done)
                .u64("total", p.total)
                .u64("failed", p.failed)
                .f64("elapsed_sec", p.elapsedSec)
                .f64("eta_sec", p.etaSec)
                .every(0.25);
            if (p.done == p.total) {
                ev.force(); // the 100% line always lands
            }
            ev.emit();
        }
    }

    /** Absorbs worker shard files: completed entries a worker flushed
     *  locally when it could not write to the queue. */
    void absorbShards()
    {
        if (opts.shardDir.empty()) {
            return;
        }
        std::error_code ec;
        std::filesystem::directory_iterator it(opts.shardDir, ec);
        if (ec) {
            return;
        }
        for (const auto& de : it) {
            std::string name = de.path().filename().string();
            if (name.size() < 12 ||
                name.compare(name.size() - 12, 12, ".shard.jsonl") != 0) {
                continue;
            }
            for (ManifestEntry& e : readManifestFile(de.path().string())) {
                auto hit = hashToIndex.find(e.hash);
                if (hit == hashToIndex.end() || !e.ok) {
                    continue; // failures re-run under the lease policy
                }
                std::size_t idx = hit->second;
                if (haveFinal[idx]) {
                    continue;
                }
                queue->injectDone(e);
                recordFinal(idx, std::move(e), true);
            }
        }
    }

    void tick()
    {
        queue->reclaimExpired();
        updateWorkers(queue->scanLeases());
        for (ManifestEntry& e : queue->collectDone()) {
            auto hit = hashToIndex.find(e.hash);
            if (hit == hashToIndex.end() || haveFinal[hit->second]) {
                continue;
            }
            if (e.ok && !manifestEntryIsConsistent(e)) {
                continue; // torn/spliced done entry: leave it to reclaim
            }
            // Attribute the final to its producer before the entry is
            // consumed (reclaim-published failures carry no worker).
            if (!e.worker.empty()) {
                obs::WorkerStatusRow& row = workerRow(e.worker);
                e.ok ? ++row.completed : ++row.failed;
                row.lastSeenSec = nowSec();
            }
            recordFinal(hit->second, std::move(e), true);
        }
        publishStatus(false);
        sleepSec(opts.pollSec);
    }
};

SweepCoordinator::SweepCoordinator(std::vector<SweepJob> jobs,
                                   CoordinatorOptions opts)
    : impl(std::make_unique<Impl>())
{
    impl->jobs = std::move(jobs);
    impl->opts = std::move(opts);
}

SweepCoordinator::~SweepCoordinator() = default;

bool
SweepCoordinator::start(std::string* err)
{
    Impl& im = *impl;
    im.hashes.resize(im.jobs.size());
    im.finals.resize(im.jobs.size());
    im.haveFinal.assign(im.jobs.size(), 0);
    for (std::size_t i = 0; i < im.jobs.size(); ++i) {
        im.hashes[i] = sweepJobHash(im.jobs[i], i);
        im.hashToIndex[im.hashes[i]] = i;
    }

    // Checkpoint manifest first: resumed completions never hit the queue.
    if (!im.opts.manifestPath.empty()) {
        if (!im.manifest.open(im.opts.manifestPath, im.opts.resume)) {
            *err = "cannot open manifest " + im.opts.manifestPath;
            return false;
        }
        if (im.opts.resume) {
            for (std::size_t i = 0; i < im.jobs.size(); ++i) {
                const ManifestEntry* e =
                    im.manifest.findCompleted(im.hashes[i]);
                // The workload/label binding must match the job the
                // hash names: a spliced manifest line can attach a
                // valid hash to another record's fields, and such an
                // entry is re-run, never replayed.
                if (e != nullptr &&
                    e->workload == im.jobs[i].profile.name &&
                    e->label == im.jobs[i].label) {
                    ++im.resumedCount;
                    im.recordFinal(i, *e, false); // already on disk
                }
            }
            if (!im.opts.quiet && im.resumedCount != 0) {
                obs::Event(obs::LogLevel::Info, "sweepd", "resumed")
                    .u64("resumed", im.resumedCount)
                    .u64("total", im.jobs.size())
                    .str("manifest", im.opts.manifestPath)
                    .emit();
            }
        }
    }

    im.queue = std::make_unique<FsWorkQueue>(im.opts.endpoint);
    std::vector<ManifestEntry> skeleton;
    skeleton.reserve(im.jobs.size());
    for (std::size_t i = 0; i < im.jobs.size(); ++i) {
        ManifestEntry e;
        e.hash = im.hashes[i];
        e.index = i;
        e.workload = im.jobs[i].profile.name;
        e.label = im.jobs[i].label;
        skeleton.push_back(std::move(e));
    }
    // Inject resumed completions into done/ BEFORE seeding tickets, so
    // seed() skips them and no worker re-runs a resumed job.
    for (std::size_t i = 0; i < im.jobs.size(); ++i) {
        if (im.haveFinal[i] && im.finals[i].ok) {
            im.queue->injectDone(im.finals[i]);
        }
    }
    im.absorbShards();
    if (!im.queue->seed(skeleton, im.opts.specJson, im.opts.policy, err)) {
        return false;
    }
    im.startTime = nowSec();
    im.started = true;
    im.publishStatus(true); // status visible before the first tick
    return true;
}

std::string
SweepCoordinator::endpoint() const
{
    return impl->opts.endpoint;
}

std::size_t
SweepCoordinator::totalJobs() const
{
    return impl->jobs.size();
}

void
SweepCoordinator::requestStop()
{
    impl->stop.store(true);
}

std::vector<JobResult>
SweepCoordinator::run()
{
    Impl& im = *impl;
    std::vector<JobResult> results(im.jobs.size());
    if (!im.started) {
        return results;
    }

    std::size_t lastProgress = im.finalCount;
    while (!im.stop.load() && im.finalCount < im.jobs.size()) {
        im.tick();
        if (im.finalCount != lastProgress) {
            lastProgress = im.finalCount;
            im.postProgress();
        }
    }
    im.absorbShards();
    im.manifest.close();
    // Final status so post-completion queries reconcile with the merged
    // manifest.
    im.publishStatus(true);

    for (std::size_t i = 0; i < im.jobs.size(); ++i) {
        JobResult& jr = results[i];
        if (!im.haveFinal[i]) {
            jr.skipped = true;
            jr.error.kind = "skipped";
            jr.error.message = "coordinator stopped before completion";
            continue;
        }
        const ManifestEntry& e = im.finals[i];
        if (e.ok) {
            Report r;
            if (reportFromJsonLine(e.reportJson, &r)) {
                jr.report = std::move(r);
                jr.ok = true;
                jr.attempts = 1;
                continue;
            }
            jr.error.kind = "protocol";
            jr.error.message = "recorded report failed to parse";
            continue;
        }
        jr.error.kind = e.errorKind;
        jr.error.message = "distributed job failed (" + e.errorKind + ")";
        jr.attempts = im.opts.policy.maxAttempts;
    }
    // Resumed flags after the loop so moved-from state is not consulted.
    if (im.resumedCount != 0) {
        for (std::size_t i = 0; i < im.jobs.size(); ++i) {
            const ManifestEntry* e =
                im.manifest.findCompleted(im.hashes[i]);
            if (results[i].ok && e != nullptr &&
                e->workload == im.jobs[i].profile.name &&
                e->label == im.jobs[i].label) {
                results[i].resumed = true;
                results[i].attempts = 0;
            }
        }
    }
    return results;
}

} // namespace udp
