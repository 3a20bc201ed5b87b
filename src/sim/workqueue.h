/**
 * @file
 * The distributed sweep work queue (docs/ROBUSTNESS.md §10): a
 * shared-filesystem queue directory that the coordinator seeds and any
 * number of workers drain. Claims are atomic rename(2) of ticket files,
 * completions are link(2) (first-completion-wins), lease heartbeats
 * rewrite the lease file via tmp + rename, and everything durable is
 * fsync'd. The queue is decentralized: any participant (worker or
 * coordinator) reclaims expired leases, so workers keep draining the
 * sweep even if the coordinator dies.
 *
 * A sweep's jobs — identified by their deterministic FNV-1a hash
 * (sim/manifest.h) — are handed out as time-limited leases:
 *
 *   pending --claim--> leased --complete--> done
 *      ^                  |  \--fail-------> pending (backoff) | failed
 *      \---expiry/reclaim-/
 *
 *   - lease expiry + reclaim: a worker that stops heartbeating loses its
 *     lease and the job is re-issued;
 *   - bounded retries with exponential backoff + deterministic jitter
 *     (seeded by the job hash, so the schedule is reproducible);
 *   - straggler re-dispatch: once no pending work remains, long-running
 *     leases are duplicated to idle workers — safe because jobs are
 *     deterministic — and the first completion wins;
 *   - idempotent completion: duplicate results (from stragglers or
 *     expired-then-finished workers) are recorded once and the rest
 *     discarded.
 */

#ifndef UDP_SIM_WORKQUEUE_H
#define UDP_SIM_WORKQUEUE_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/manifest.h"

namespace udp {

/** One granted lease: the worker-side handle for a claimed job. */
struct JobLease
{
    /** sweepJobHash() of the job — the idempotency key. */
    std::uint64_t hash = 0;
    /** Job index within the shared, deterministically expanded batch. */
    std::size_t index = 0;
    /** Unique lease token; names the lease file renew/push refer to. */
    std::uint64_t token = 0;
    /** 1-based attempt number this execution represents. */
    unsigned attempt = 1;
    /** Granted time-to-live; the worker heartbeats well within it. */
    double ttlSec = 30.0;
};

/** Queue policy knobs, fixed at seed time in queue.json. */
struct LeasePolicy
{
    /** Lease time-to-live; a worker silent for this long is presumed
     *  dead and its lease reclaimed. */
    double leaseTtlSec = 30.0;
    /** Total execution attempts per job — each one ending in a failed
     *  push or an expired lease — before the job is recorded as a final
     *  failure. */
    unsigned maxAttempts = 3;
    /** Retry backoff: delay before attempt k+1 is
     *  min(cap, base * 2^(k-1)) plus jitter. */
    double backoffBaseSec = 0.5;
    double backoffCapSec = 30.0;
    /** Deterministic jitter: uniform in [0, frac * delay), seeded by
     *  (job hash, attempt) so the schedule is reproducible. */
    double backoffJitterFrac = 0.25;
    /** Straggler re-dispatch: once nothing is pending, a lease older
     *  than this is eligible for a duplicate issue. */
    double stragglerAfterSec = 10.0;
    /** Extra concurrent leases allowed per job near the tail. */
    unsigned maxDuplicates = 1;
    /** Client retry hint when no work is currently claimable. */
    double noWorkRetrySec = 0.2;
};

/**
 * Backoff before attempt @p attempt (>= 2) of the job hashed @p hash:
 * min(cap, base * 2^(attempt-2)) plus deterministic jitter in
 * [0, jitterFrac * delay). Attempt 1 has no delay.
 */
double backoffDelaySec(const LeasePolicy& policy, unsigned attempt,
                       std::uint64_t hash);

/** Outcome of a claim attempt. */
enum class ClaimOutcome
{
    Granted, ///< lease issued
    NoWork,  ///< nothing claimable right now (backoff window / all leased)
    Drained, ///< every job is done or finally failed
    Lost,    ///< the queue directory is unreadable
};

/** Outcome of delivering a job result to the queue. */
enum class PushOutcome
{
    Recorded,  ///< accepted (completion recorded, or failure processed)
    Duplicate, ///< someone else completed the job first — discarded
    Lost,      ///< the queue directory is unwritable — flush locally
};

/**
 * Reads the live sweep status JSON (obs/status.h schema) that the
 * coordinator publishes as "<dir>/status.json". Used by tools/udp_top.
 * Returns false with @p err set when no status has been published yet.
 */
bool queryQueueStatus(const std::string& dir, std::string* statusJson,
                      std::string* err);

/** One active lease as read off the queue directory (status snapshot). */
struct FsLeaseInfo
{
    std::uint64_t hash = 0;
    std::uint64_t index = 0;
    unsigned attempt = 1;
    std::string worker;
    std::uint64_t token = 0;
    std::uint64_t expiryMs = 0; ///< wall-clock expiry
};

/**
 * The shared-directory queue. Layout under the queue root:
 *
 *   queue.json           total jobs + lease policy (written at seed time)
 *   spec.json            the sweep spec served to udp_worker ("" = none)
 *   status.json          live status, republished by the coordinator
 *   todo/<hash>.<n>.json claimable tickets {hash,index,attempt,not_before}
 *   leased/<hash>.<token>.json  active leases {... worker, expiry}
 *   done/<hash>.json     final ManifestEntry line (ok or failed)
 *   tmp/                 staging for atomic rename/link
 *
 * All transitions are single atomic directory operations, so any number
 * of workers race safely: rename(2) from todo/ decides claims, link(2)
 * into done/ decides completions (EEXIST = duplicate), and rename into
 * tmp/ decides who reclaims an expired lease. Internally synchronized
 * for the worker's heartbeat thread (renew may race a concurrent
 * claim/push).
 */
class FsWorkQueue
{
  public:
    explicit FsWorkQueue(std::string dir);

    /**
     * Coordinator: creates the directory layout and seeds one ticket
     * per job not already recorded in done/ (restarting on an existing
     * queue directory is the resume path — state lives in the
     * directory). @p jobs are ManifestEntry skeletons (hash, index,
     * workload, label — no report); the workload/label ride along on
     * tickets so a reclaim that exhausts attempts can record a complete
     * failure entry. Existing done entries whose hash matches are kept.
     */
    bool seed(const std::vector<ManifestEntry>& jobs,
              const std::string& specJson, const LeasePolicy& policy,
              std::string* err);

    /**
     * Requeues expired leases (or records their final failure once
     * attempts are exhausted) and sweeps stale tickets/leases of jobs
     * that already completed. Run by the coordinator every poll tick
     * and by workers whenever they find nothing to claim — reclaim
     * does not depend on the coordinator being alive. Only the seeding
     * queue issues straggler duplicates.
     */
    void reclaimExpired();

    /** Coordinator resume: records @p entry directly into done/ (used
     *  to absorb a checkpoint manifest or worker shard files). First
     *  writer wins, like any completion. */
    bool injectDone(const ManifestEntry& entry);

    /** Completed-or-finally-failed count (scan of done/). */
    std::size_t doneCount();

    /** Loads every done/ entry, keyed by job hash. */
    std::vector<ManifestEntry> collectDone();

    /** Snapshot of every active lease file (live status surface). */
    std::vector<FsLeaseInfo> scanLeases();

    /** Claimable tickets currently in todo/. */
    std::size_t todoCount();

    /** Straggler duplicate tickets this process has issued. */
    std::uint64_t stragglerTicketsIssued() const;

    /** Expired leases this process has reclaimed. */
    std::uint64_t leasesReclaimed() const;

    /**
     * Publishes @p statusJson atomically as "<dir>/status.json" — the
     * live status surface, refreshed by the coordinator each poll tick
     * and once more after drain so post-completion queries reconcile
     * with the final manifest.
     */
    bool writeStatusFile(const std::string& statusJson);

    /** Worker: validates the queue directory (queue.json readable). */
    bool connect(std::string* err);

    /** The sweep spec JSON this queue serves ("" for bench pairing,
     *  where both sides construct the job list from their own argv). */
    std::string specJson();

    /** Total jobs in the sweep (drain detection). */
    std::size_t totalJobs();

    /** Tries to claim one job lease. */
    ClaimOutcome claim(const std::string& worker, JobLease* out);

    /** Heartbeat on a held lease; false when the lease is gone (the job
     *  may have been reclaimed — completion is still safe to attempt). */
    bool renew(const JobLease& lease);

    /**
     * Delivers the result of a leased job. @p entry carries the full
     * manifest record: ok entries hold the serialized Report (byte-exact
     * round trip), failed entries the error kind. Failures are requeued
     * with backoff until LeasePolicy::maxAttempts, then recorded as
     * final; completions are idempotent.
     */
    PushOutcome push(const JobLease& lease, const ManifestEntry& entry);

    /** Retry hint after NoWork, seconds. */
    double noWorkRetrySec();

  private:
    struct Impl;
    std::shared_ptr<Impl> impl;
};

} // namespace udp

#endif // UDP_SIM_WORKQUEUE_H
