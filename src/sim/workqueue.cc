#include "sim/workqueue.h"

#ifndef _WIN32
#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "stats/sink.h"

namespace udp {

namespace {

/** FNV-1a over (hash, attempt): the deterministic jitter seed. */
std::uint64_t
jitterSeed(std::uint64_t hash, unsigned attempt)
{
    std::uint64_t h = 0xCBF29CE484222325ull;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 0x00000100000001B3ull;
        }
    };
    mix(hash);
    mix(attempt);
    return h;
}

} // namespace

double
backoffDelaySec(const LeasePolicy& policy, unsigned attempt,
                std::uint64_t hash)
{
    if (attempt <= 1) {
        return 0.0;
    }
    double delay = policy.backoffBaseSec *
                   std::ldexp(1.0, static_cast<int>(
                                       std::min(attempt - 2, 62u)));
    delay = std::min(delay, policy.backoffCapSec);
    if (policy.backoffJitterFrac > 0.0) {
        // Deterministic uniform [0, 1) from the top 53 bits of the seed.
        double u = static_cast<double>(jitterSeed(hash, attempt) >> 11) *
                   0x1.0p-53;
        delay += policy.backoffJitterFrac * delay * u;
    }
    return delay;
}

bool
queryQueueStatus(const std::string& dir, std::string* statusJson,
                 std::string* err)
{
    std::ifstream in(dir + "/status.json");
    if (!in.is_open()) {
        if (err != nullptr) {
            *err = "no status published yet at " + dir + "/status.json";
        }
        return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    std::string raw = ss.str();
    while (!raw.empty() && (raw.back() == '\n' || raw.back() == '\r')) {
        raw.pop_back();
    }
    *statusJson = std::move(raw);
    return true;
}

#ifdef _WIN32

// Distributed sweeps need POSIX directory primitives; on other platforms
// every operation reports the queue as unreachable.

struct FsWorkQueue::Impl
{
};
FsWorkQueue::FsWorkQueue(std::string) {}
bool
FsWorkQueue::seed(const std::vector<ManifestEntry>&, const std::string&,
                  const LeasePolicy&, std::string* err)
{
    *err = "distributed sweeps are not supported on this platform";
    return false;
}
void
FsWorkQueue::reclaimExpired()
{
}
bool
FsWorkQueue::injectDone(const ManifestEntry&)
{
    return false;
}
std::size_t
FsWorkQueue::doneCount()
{
    return 0;
}
std::vector<ManifestEntry>
FsWorkQueue::collectDone()
{
    return {};
}
std::vector<FsLeaseInfo>
FsWorkQueue::scanLeases()
{
    return {};
}
std::size_t
FsWorkQueue::todoCount()
{
    return 0;
}
std::uint64_t
FsWorkQueue::stragglerTicketsIssued() const
{
    return 0;
}
std::uint64_t
FsWorkQueue::leasesReclaimed() const
{
    return 0;
}
bool
FsWorkQueue::writeStatusFile(const std::string&)
{
    return false;
}
bool
FsWorkQueue::connect(std::string* err)
{
    *err = "distributed sweeps are not supported on this platform";
    return false;
}
std::string
FsWorkQueue::specJson()
{
    return "";
}
std::size_t
FsWorkQueue::totalJobs()
{
    return 0;
}
ClaimOutcome
FsWorkQueue::claim(const std::string&, JobLease*)
{
    return ClaimOutcome::Lost;
}
bool
FsWorkQueue::renew(const JobLease&)
{
    return false;
}
PushOutcome
FsWorkQueue::push(const JobLease&, const ManifestEntry&)
{
    return PushOutcome::Lost;
}
double
FsWorkQueue::noWorkRetrySec()
{
    return 0.2;
}

#else // POSIX

namespace {

/** Wall-clock ms since epoch: comparable across queue participants. */
std::uint64_t
nowWallMs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
}

// --- filesystem primitives -------------------------------------------------

bool
ensureDir(const std::string& path)
{
    if (::mkdir(path.c_str(), 0777) == 0 || errno == EEXIST) {
        return true;
    }
    return false;
}

void
fsyncDir(const std::string& path)
{
    int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd >= 0) {
        ::fsync(fd);
        ::close(fd);
    }
}

bool
readWholeFile(const std::string& path, std::string* out)
{
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        return false;
    }
    out->clear();
    char buf[4096];
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
        out->append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return n == 0;
}

/** Writes @p content to @p tmpPath (fsync'd), then renames over
 *  @p finalPath. The rename is atomic; readers never see a torn file. */
bool
writeFileAtomic(const std::string& tmpPath, const std::string& finalPath,
                const std::string& content)
{
    int fd = ::open(tmpPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0666);
    if (fd < 0) {
        return false;
    }
    std::size_t off = 0;
    while (off < content.size()) {
        ssize_t w = ::write(fd, content.data() + off, content.size() - off);
        if (w < 0) {
            if (errno == EINTR) {
                continue;
            }
            ::close(fd);
            ::unlink(tmpPath.c_str());
            return false;
        }
        off += static_cast<std::size_t>(w);
    }
    ::fsync(fd);
    ::close(fd);
    if (::rename(tmpPath.c_str(), finalPath.c_str()) != 0) {
        ::unlink(tmpPath.c_str());
        return false;
    }
    return true;
}

/**
 * First-completion-wins publication: link(2) @p tmpPath to @p finalPath.
 * Exactly one publisher succeeds; the rest see EEXIST.
 */
enum class LinkResult
{
    Linked,
    Exists,
    Error
};

LinkResult
publishFirstWins(const std::string& tmpPath, const std::string& finalPath)
{
    if (::link(tmpPath.c_str(), finalPath.c_str()) == 0) {
        ::unlink(tmpPath.c_str());
        return LinkResult::Linked;
    }
    int e = errno;
    ::unlink(tmpPath.c_str());
    return e == EEXIST ? LinkResult::Exists : LinkResult::Error;
}

std::vector<std::string>
listDir(const std::string& path)
{
    std::vector<std::string> names;
    DIR* d = ::opendir(path.c_str());
    if (d == nullptr) {
        return names;
    }
    while (struct dirent* e = ::readdir(d)) {
        if (e->d_name[0] == '.') {
            continue;
        }
        names.emplace_back(e->d_name);
    }
    ::closedir(d);
    std::sort(names.begin(), names.end());
    return names;
}

bool
fileExists(const std::string& path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

// --- queue file formats ----------------------------------------------------

/** A claimable ticket / an active lease (supersets share one parser). */
struct TicketInfo
{
    std::uint64_t hash = 0;
    std::uint64_t index = 0;
    unsigned attempt = 1;
    std::uint64_t notBeforeMs = 0;
    std::string workload;
    std::string label;
    // lease-only fields
    std::string worker;
    std::uint64_t token = 0;
    std::uint64_t expiryMs = 0;
};

std::string
ticketJson(const TicketInfo& t)
{
    std::string out = "{\"hash\":\"" + hexOf(t.hash) +
                      "\",\"index\":" + std::to_string(t.index) +
                      ",\"attempt\":" + std::to_string(t.attempt) +
                      ",\"not_before_ms\":" + std::to_string(t.notBeforeMs) +
                      ",\"workload\":\"" + jsonEscape(t.workload) +
                      "\",\"config\":\"" + jsonEscape(t.label) + "\"";
    if (t.token != 0) {
        out += ",\"worker\":\"" + jsonEscape(t.worker) + "\",\"token\":\"" +
               hexOf(t.token) +
               "\",\"expiry_ms\":" + std::to_string(t.expiryMs);
    }
    out += '}';
    return out;
}

bool
parseTicket(const std::string& json, TicketInfo* out)
{
    TicketInfo t;
    std::string hashHex;
    if (!extractString(json, "hash", &hashHex) ||
        !hexTo(hashHex, &t.hash) ||
        !extractU64(json, "index", &t.index) ||
        !extractString(json, "workload", &t.workload) ||
        !extractString(json, "config", &t.label)) {
        return false;
    }
    std::uint64_t attempt = 1;
    extractU64(json, "attempt", &attempt);
    t.attempt = static_cast<unsigned>(attempt);
    extractU64(json, "not_before_ms", &t.notBeforeMs);
    std::string tokenHex;
    if (extractString(json, "token", &tokenHex)) {
        hexTo(tokenHex, &t.token);
        extractString(json, "worker", &t.worker);
        extractU64(json, "expiry_ms", &t.expiryMs);
    }
    *out = std::move(t);
    return true;
}

std::string
queueMetaJson(std::size_t total, const LeasePolicy& p)
{
    auto ms = [](double sec) {
        return std::to_string(
            static_cast<std::uint64_t>(sec * 1000.0 + 0.5));
    };
    return "{\"total\":" + std::to_string(total) +
           ",\"lease_ttl_ms\":" + ms(p.leaseTtlSec) +
           ",\"max_attempts\":" + std::to_string(p.maxAttempts) +
           ",\"backoff_base_ms\":" + ms(p.backoffBaseSec) +
           ",\"backoff_cap_ms\":" + ms(p.backoffCapSec) +
           ",\"backoff_jitter_millifrac\":" +
           std::to_string(static_cast<std::uint64_t>(
               p.backoffJitterFrac * 1000.0 + 0.5)) +
           ",\"straggler_after_ms\":" + ms(p.stragglerAfterSec) +
           ",\"max_duplicates\":" + std::to_string(p.maxDuplicates) +
           ",\"no_work_retry_ms\":" + ms(p.noWorkRetrySec) + "}";
}

bool
parseQueueMeta(const std::string& json, std::size_t* total, LeasePolicy* p)
{
    std::uint64_t v = 0;
    if (!extractU64(json, "total", &v)) {
        return false;
    }
    *total = v;
    auto sec = [&](const char* key, double* out) {
        std::uint64_t msv = 0;
        if (extractU64(json, key, &msv)) {
            *out = static_cast<double>(msv) / 1000.0;
        }
    };
    sec("lease_ttl_ms", &p->leaseTtlSec);
    if (extractU64(json, "max_attempts", &v)) {
        p->maxAttempts = static_cast<unsigned>(v);
    }
    sec("backoff_base_ms", &p->backoffBaseSec);
    sec("backoff_cap_ms", &p->backoffCapSec);
    if (extractU64(json, "backoff_jitter_millifrac", &v)) {
        p->backoffJitterFrac = static_cast<double>(v) / 1000.0;
    }
    sec("straggler_after_ms", &p->stragglerAfterSec);
    if (extractU64(json, "max_duplicates", &v)) {
        p->maxDuplicates = static_cast<unsigned>(v);
    }
    sec("no_work_retry_ms", &p->noWorkRetrySec);
    return true;
}

std::uint64_t
processUniqueToken()
{
    static std::atomic<std::uint64_t> counter{1};
    std::uint64_t c = counter.fetch_add(1);
    std::uint64_t pid = static_cast<std::uint64_t>(::getpid());
    // Mixed so tokens are unique across hosts sharing a filesystem with
    // overwhelming probability (pid + wall time + in-process counter).
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (std::uint64_t v : {pid, nowWallMs(), c}) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 0x00000100000001B3ull;
        }
    }
    return h == 0 ? 1 : h;
}

} // namespace

// --- FsWorkQueue -----------------------------------------------------------

struct FsWorkQueue::Impl
{
    std::string root;
    std::string todoDir;
    std::string leasedDir;
    std::string doneDir;
    std::string tmpDir;
    std::mutex mtx;

    LeasePolicy policy;
    std::size_t total = 0;
    std::string spec;
    bool metaLoaded = false;
    bool coordinator = false; ///< seeded here: straggler duty is ours

    // Health counters for the status surface (this process's share of
    // the decentralized queue work).
    std::atomic<std::uint64_t> stragglerDups{0};
    std::atomic<std::uint64_t> reclaims{0};

    std::string donePath(std::uint64_t hash) const
    {
        return doneDir + "/" + hexOf(hash) + ".json";
    }

    std::string tmpPath(const char* what)
    {
        return tmpDir + "/" + what + "-" + hexOf(processUniqueToken());
    }

    bool loadMeta()
    {
        if (metaLoaded) {
            return true;
        }
        std::string meta;
        if (!readWholeFile(root + "/queue.json", &meta) ||
            !parseQueueMeta(meta, &total, &policy)) {
            return false;
        }
        readWholeFile(root + "/spec.json", &spec); // optional
        metaLoaded = true;
        return true;
    }

    std::size_t doneCountLocked() { return listDir(doneDir).size(); }

    /** Creates the queue directory layout (idempotent). */
    bool ensureLayoutLocked(std::string* err)
    {
        for (const std::string& d :
             {root, todoDir, leasedDir, doneDir, tmpDir}) {
            if (!ensureDir(d)) {
                if (err != nullptr) {
                    *err = "cannot create queue directory " + d + ": " +
                           std::strerror(errno);
                }
                return false;
            }
        }
        return true;
    }

    /** Writes a final failure entry for a job whose attempts ran out. */
    void publishFinalFailure(const TicketInfo& t, const std::string& kind)
    {
        ManifestEntry e;
        e.hash = t.hash;
        e.index = t.index;
        e.workload = t.workload;
        e.label = t.label;
        e.ok = false;
        e.errorKind = kind;
        std::string tmp = tmpPath("fail");
        if (writeFileAtomic(tmp, tmp, manifestEntryToJsonLine(e) + "\n")) {
            publishFirstWins(tmp, donePath(t.hash));
            fsyncDir(doneDir);
        }
    }

    /** Requeues @p t for its next attempt with backoff. */
    void requeueTicket(TicketInfo t)
    {
        t.attempt += 1;
        t.notBeforeMs =
            nowWallMs() + static_cast<std::uint64_t>(
                              backoffDelaySec(policy, t.attempt, t.hash) *
                                  1000.0 +
                              0.5);
        t.worker.clear();
        t.token = 0;
        t.expiryMs = 0;
        std::string tmp = tmpPath("req");
        std::string ticketPath = todoDir + "/" + hexOf(t.hash) + "." +
                                 hexOf(processUniqueToken()) + ".json";
        writeFileAtomic(tmp, ticketPath, ticketJson(t));
        fsyncDir(todoDir);
    }

    void reclaimExpiredLocked()
    {
        std::uint64_t now = nowWallMs();
        for (const std::string& name : listDir(leasedDir)) {
            std::string path = leasedDir + "/" + name;
            std::string json;
            TicketInfo t;
            if (!readWholeFile(path, &json) || !parseTicket(json, &t)) {
                continue;
            }
            if (fileExists(donePath(t.hash))) {
                // The job finished (possibly via a duplicate): clean up.
                std::string tmp = tmpPath("gc");
                if (::rename(path.c_str(), tmp.c_str()) == 0) {
                    ::unlink(tmp.c_str());
                }
                continue;
            }
            if (t.expiryMs > now) {
                continue;
            }
            // Expired: whoever wins the rename owns the reclaim.
            std::string tmp = tmpPath("reclaim");
            if (::rename(path.c_str(), tmp.c_str()) != 0) {
                continue;
            }
            ::unlink(tmp.c_str());
            reclaims.fetch_add(1, std::memory_order_relaxed);
            if (t.attempt >= policy.maxAttempts) {
                publishFinalFailure(t, "worker_lost");
            } else {
                requeueTicket(t);
            }
        }
        // Stale tickets of completed jobs (straggler duplicates).
        for (const std::string& name : listDir(todoDir)) {
            std::string path = todoDir + "/" + name;
            std::string json;
            TicketInfo t;
            if (!readWholeFile(path, &json) || !parseTicket(json, &t)) {
                continue;
            }
            if (fileExists(donePath(t.hash))) {
                std::string tmp = tmpPath("gc");
                if (::rename(path.c_str(), tmp.c_str()) == 0) {
                    ::unlink(tmp.c_str());
                }
            }
        }
        if (coordinator) {
            redispatchStragglersLocked(now);
        }
    }

    /**
     * Near the tail — nothing left in todo/ — duplicate the oldest
     * sufficiently old lease so an idle worker can race the straggler.
     * Only the seeding coordinator runs this, bounding the duplicate
     * count per job to LeasePolicy::maxDuplicates.
     */
    void redispatchStragglersLocked(std::uint64_t now)
    {
        if (policy.maxDuplicates == 0 || !listDir(todoDir).empty()) {
            return;
        }
        // Count active leases per hash; find the oldest.
        struct PerJob
        {
            TicketInfo t;
            std::size_t count = 0;
            std::uint64_t oldestGrantMs = ~0ull;
        };
        std::unordered_map<std::uint64_t, PerJob> perJob;
        for (const std::string& name : listDir(leasedDir)) {
            std::string json;
            TicketInfo t;
            if (!readWholeFile(leasedDir + "/" + name, &json) ||
                !parseTicket(json, &t) || fileExists(donePath(t.hash))) {
                continue;
            }
            PerJob& pj = perJob[t.hash];
            pj.t = t;
            pj.count += 1;
            // Grant time is not stored; expiry - ttl approximates it.
            std::uint64_t ttlMs = static_cast<std::uint64_t>(
                policy.leaseTtlSec * 1000.0 + 0.5);
            std::uint64_t granted =
                t.expiryMs > ttlMs ? t.expiryMs - ttlMs : 0;
            pj.oldestGrantMs = std::min(pj.oldestGrantMs, granted);
        }
        std::uint64_t stragglerMs = static_cast<std::uint64_t>(
            policy.stragglerAfterSec * 1000.0 + 0.5);
        const PerJob* best = nullptr;
        for (const auto& [hash, pj] : perJob) {
            (void)hash;
            if (pj.count > policy.maxDuplicates ||
                now < pj.oldestGrantMs + stragglerMs) {
                continue;
            }
            if (best == nullptr ||
                pj.oldestGrantMs < best->oldestGrantMs) {
                best = &pj;
            }
        }
        if (best != nullptr) {
            TicketInfo dup = best->t;
            dup.notBeforeMs = now;
            dup.worker.clear();
            dup.token = 0;
            dup.expiryMs = 0;
            std::string tmp = tmpPath("dup");
            std::string ticketPath = todoDir + "/" + hexOf(dup.hash) +
                                     "." + hexOf(processUniqueToken()) +
                                     ".json";
            if (writeFileAtomic(tmp, ticketPath, ticketJson(dup))) {
                stragglerDups.fetch_add(1, std::memory_order_relaxed);
            }
            fsyncDir(todoDir);
        }
    }
};

FsWorkQueue::FsWorkQueue(std::string dir)
    : impl(std::make_shared<Impl>())
{
    impl->root = std::move(dir);
    impl->todoDir = impl->root + "/todo";
    impl->leasedDir = impl->root + "/leased";
    impl->doneDir = impl->root + "/done";
    impl->tmpDir = impl->root + "/tmp";
}

bool
FsWorkQueue::seed(const std::vector<ManifestEntry>& jobs,
                  const std::string& specJson, const LeasePolicy& policy,
                  std::string* err)
{
    std::lock_guard<std::mutex> lock(impl->mtx);
    if (!impl->ensureLayoutLocked(err)) {
        return false;
    }
    if (!writeFileAtomic(impl->tmpDir + "/queue.json.tmp",
                         impl->root + "/queue.json",
                         queueMetaJson(jobs.size(), policy))) {
        *err = "cannot write queue.json";
        return false;
    }
    if (!specJson.empty() &&
        !writeFileAtomic(impl->tmpDir + "/spec.json.tmp",
                         impl->root + "/spec.json", specJson)) {
        *err = "cannot write spec.json";
        return false;
    }
    std::uint64_t now = nowWallMs();
    for (const ManifestEntry& job : jobs) {
        if (fileExists(impl->donePath(job.hash))) {
            continue; // resume: already recorded by a previous run
        }
        TicketInfo t;
        t.hash = job.hash;
        t.index = job.index;
        t.attempt = 1;
        t.notBeforeMs = now;
        t.workload = job.workload;
        t.label = job.label;
        // Skip if any ticket/lease for this hash already exists (resume
        // onto a live queue): the hash prefix makes this a name scan.
        bool live = false;
        std::string prefix = hexOf(job.hash) + ".";
        for (const std::string& dir : {impl->todoDir, impl->leasedDir}) {
            for (const std::string& name : listDir(dir)) {
                if (name.rfind(prefix, 0) == 0) {
                    live = true;
                    break;
                }
            }
        }
        if (live) {
            continue;
        }
        std::string ticketPath = impl->todoDir + "/" + hexOf(t.hash) +
                                 "." + hexOf(processUniqueToken()) +
                                 ".json";
        if (!writeFileAtomic(impl->tmpPath("seed"), ticketPath,
                             ticketJson(t))) {
            *err = "cannot write ticket for job " + std::to_string(t.index);
            return false;
        }
    }
    fsyncDir(impl->todoDir);
    fsyncDir(impl->root);
    impl->metaLoaded = false;
    impl->coordinator = true;
    return impl->loadMeta();
}

void
FsWorkQueue::reclaimExpired()
{
    std::lock_guard<std::mutex> lock(impl->mtx);
    if (impl->loadMeta()) {
        impl->reclaimExpiredLocked();
    }
}

bool
FsWorkQueue::injectDone(const ManifestEntry& entry)
{
    std::lock_guard<std::mutex> lock(impl->mtx);
    // Resume injections happen before seed() lays out the directory.
    if (!impl->ensureLayoutLocked(nullptr)) {
        return false;
    }
    std::string tmp = impl->tmpPath("inject");
    if (!writeFileAtomic(tmp, tmp, manifestEntryToJsonLine(entry) + "\n")) {
        return false;
    }
    LinkResult lr = publishFirstWins(tmp, impl->donePath(entry.hash));
    fsyncDir(impl->doneDir);
    return lr != LinkResult::Error;
}

std::size_t
FsWorkQueue::doneCount()
{
    std::lock_guard<std::mutex> lock(impl->mtx);
    return impl->doneCountLocked();
}

std::vector<ManifestEntry>
FsWorkQueue::collectDone()
{
    std::lock_guard<std::mutex> lock(impl->mtx);
    std::vector<ManifestEntry> out;
    for (const std::string& name : listDir(impl->doneDir)) {
        std::string line;
        if (!readWholeFile(impl->doneDir + "/" + name, &line)) {
            continue;
        }
        while (!line.empty() &&
               (line.back() == '\n' || line.back() == '\r')) {
            line.pop_back();
        }
        ManifestEntry e;
        if (manifestEntryFromJsonLine(line, &e)) {
            out.push_back(std::move(e));
        }
    }
    return out;
}

std::vector<FsLeaseInfo>
FsWorkQueue::scanLeases()
{
    std::lock_guard<std::mutex> lock(impl->mtx);
    std::vector<FsLeaseInfo> out;
    for (const std::string& name : listDir(impl->leasedDir)) {
        std::string json;
        TicketInfo t;
        if (!readWholeFile(impl->leasedDir + "/" + name, &json) ||
            !parseTicket(json, &t) || t.token == 0) {
            continue;
        }
        FsLeaseInfo li;
        li.hash = t.hash;
        li.index = t.index;
        li.attempt = t.attempt;
        li.worker = t.worker;
        li.token = t.token;
        li.expiryMs = t.expiryMs;
        out.push_back(std::move(li));
    }
    return out;
}

std::size_t
FsWorkQueue::todoCount()
{
    std::lock_guard<std::mutex> lock(impl->mtx);
    return listDir(impl->todoDir).size();
}

std::uint64_t
FsWorkQueue::stragglerTicketsIssued() const
{
    return impl->stragglerDups.load(std::memory_order_relaxed);
}

std::uint64_t
FsWorkQueue::leasesReclaimed() const
{
    return impl->reclaims.load(std::memory_order_relaxed);
}

bool
FsWorkQueue::writeStatusFile(const std::string& statusJson)
{
    std::lock_guard<std::mutex> lock(impl->mtx);
    return writeFileAtomic(impl->tmpPath("status"),
                           impl->root + "/status.json", statusJson + "\n");
}

bool
FsWorkQueue::connect(std::string* err)
{
    std::lock_guard<std::mutex> lock(impl->mtx);
    if (!impl->loadMeta()) {
        *err = "not a queue directory (missing/unreadable queue.json): " +
               impl->root;
        return false;
    }
    return true;
}

std::string
FsWorkQueue::specJson()
{
    std::lock_guard<std::mutex> lock(impl->mtx);
    impl->loadMeta();
    return impl->spec;
}

std::size_t
FsWorkQueue::totalJobs()
{
    std::lock_guard<std::mutex> lock(impl->mtx);
    impl->loadMeta();
    return impl->total;
}

ClaimOutcome
FsWorkQueue::claim(const std::string& worker, JobLease* out)
{
    std::lock_guard<std::mutex> lock(impl->mtx);
    if (!impl->loadMeta()) {
        return ClaimOutcome::Lost;
    }
    // Two passes: scan, then reclaim-expired + rescan. Reclaim is what
    // keeps the sweep draining when another worker died mid-job.
    for (int pass = 0; pass < 2; ++pass) {
        std::uint64_t now = nowWallMs();
        for (const std::string& name : listDir(impl->todoDir)) {
            std::string path = impl->todoDir + "/" + name;
            std::string json;
            TicketInfo t;
            if (!readWholeFile(path, &json) || !parseTicket(json, &t)) {
                continue;
            }
            if (fileExists(impl->donePath(t.hash))) {
                std::string tmp = impl->tmpPath("gc");
                if (::rename(path.c_str(), tmp.c_str()) == 0) {
                    ::unlink(tmp.c_str());
                }
                continue;
            }
            if (t.notBeforeMs > now) {
                continue;
            }
            std::uint64_t token = processUniqueToken();
            std::string leasePath = impl->leasedDir + "/" +
                                    hexOf(t.hash) + "." + hexOf(token) +
                                    ".json";
            if (::rename(path.c_str(), leasePath.c_str()) != 0) {
                continue; // lost the race — next ticket
            }
            // We own the job: flesh the file out into a lease.
            t.worker = worker;
            t.token = token;
            t.expiryMs = now + static_cast<std::uint64_t>(
                                   impl->policy.leaseTtlSec * 1000.0 + 0.5);
            writeFileAtomic(impl->tmpPath("lease"), leasePath,
                            ticketJson(t));
            fsyncDir(impl->leasedDir);
            out->hash = t.hash;
            out->index = t.index;
            out->token = token;
            out->attempt = t.attempt;
            out->ttlSec = impl->policy.leaseTtlSec;
            return ClaimOutcome::Granted;
        }
        if (pass == 0) {
            impl->reclaimExpiredLocked();
        }
    }
    if (impl->doneCountLocked() >= impl->total) {
        return ClaimOutcome::Drained;
    }
    return ClaimOutcome::NoWork;
}

bool
FsWorkQueue::renew(const JobLease& lease)
{
    std::lock_guard<std::mutex> lock(impl->mtx);
    if (!impl->loadMeta()) {
        return false;
    }
    std::string path = impl->leasedDir + "/" + hexOf(lease.hash) + "." +
                       hexOf(lease.token) + ".json";
    std::string json;
    TicketInfo t;
    if (!readWholeFile(path, &json) || !parseTicket(json, &t)) {
        return false; // reclaimed from under us
    }
    t.expiryMs = nowWallMs() + static_cast<std::uint64_t>(
                                   impl->policy.leaseTtlSec * 1000.0 + 0.5);
    return writeFileAtomic(impl->tmpPath("renew"), path, ticketJson(t));
}

PushOutcome
FsWorkQueue::push(const JobLease& lease, const ManifestEntry& entry)
{
    std::lock_guard<std::mutex> lock(impl->mtx);
    if (!impl->loadMeta()) {
        return PushOutcome::Lost;
    }
    std::string leasePath = impl->leasedDir + "/" + hexOf(lease.hash) +
                            "." + hexOf(lease.token) + ".json";
    PushOutcome outcome = PushOutcome::Recorded;
    if (entry.ok) {
        std::string tmp = impl->tmpPath("done");
        if (!writeFileAtomic(tmp, tmp,
                             manifestEntryToJsonLine(entry) + "\n")) {
            return PushOutcome::Lost;
        }
        LinkResult lr = publishFirstWins(tmp, impl->donePath(lease.hash));
        fsyncDir(impl->doneDir);
        if (lr == LinkResult::Exists) {
            outcome = PushOutcome::Duplicate;
        } else if (lr == LinkResult::Error) {
            return PushOutcome::Lost;
        }
    } else if (fileExists(impl->donePath(lease.hash))) {
        outcome = PushOutcome::Duplicate;
    } else if (lease.attempt >= impl->policy.maxAttempts) {
        TicketInfo t;
        t.hash = lease.hash;
        t.index = lease.index;
        t.workload = entry.workload;
        t.label = entry.label;
        impl->publishFinalFailure(t, entry.errorKind);
    } else {
        TicketInfo t;
        t.hash = lease.hash;
        t.index = lease.index;
        t.attempt = lease.attempt; // requeueTicket bumps it
        t.workload = entry.workload;
        t.label = entry.label;
        impl->requeueTicket(t);
    }
    // Release the lease either way.
    std::string tmp = impl->tmpPath("rel");
    if (::rename(leasePath.c_str(), tmp.c_str()) == 0) {
        ::unlink(tmp.c_str());
    }
    return outcome;
}

double
FsWorkQueue::noWorkRetrySec()
{
    std::lock_guard<std::mutex> lock(impl->mtx);
    impl->loadMeta();
    return impl->policy.noWorkRetrySec;
}

#endif // POSIX

} // namespace udp
