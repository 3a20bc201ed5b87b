/**
 * @file
 * Sweep checkpoint manifest: a JSONL journal of finished sweep jobs,
 * keyed by a deterministic job hash, that makes an interrupted campaign
 * resumable (SweepOptions::manifestPath / resume, docs/ROBUSTNESS.md).
 *
 * A line is the job's hash plus its row (stats/sink.h):
 * {"hash":"<16 hex>","report":<reportToJsonLine>} for a completed job,
 * {"hash":"<16 hex>","failure":<failureToJsonLine>} for a failed one.
 * Each line is appended line-atomically and flushed the moment its job
 * finishes, so even a SIGKILLed sweep leaves a manifest whose complete
 * lines all parse; a truncated final line is skipped on load. A resumed
 * sweep replays the journaled Reports without re-running them, so the
 * merged artifacts are byte-identical to an uninterrupted run. One
 * runSweepChecked call writes each manifest; keys the loader does not
 * know (the envelope keys and "worker" of older files) are ignored, so
 * such files still resume.
 */

#ifndef UDP_SIM_MANIFEST_H
#define UDP_SIM_MANIFEST_H

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <tuple>

#include "sim/sweep.h"

namespace udp {

/**
 * Deterministic identity hash of one sweep job (FNV-1a 64). Covers the
 * batch index, label, profile identity (name/seed/footprint), run window
 * and the configuration knobs the presets and benches vary. It is a
 * fingerprint, not an exhaustive config serialization: two jobs that
 * differ only in a field outside the fingerprint must use distinct
 * labels (every in-tree bench does).
 */
std::uint64_t sweepJobHash(const SweepJob& job, std::size_t index);

/**
 * The journal. Not internally synchronized: the sweep runner serializes
 * record() calls under its own lock.
 */
class SweepManifest
{
  public:
    SweepManifest() = default;

    /**
     * Opens @p path for appending. When @p resume is set, the journaled
     * Reports are loaded first; a line is skipped when it is malformed or
     * truncated, repeats its "hash" or "report" key, holds no Report
     * (a failed job), or holds a "report" that is not a reportToJsonLine()
     * line byte for byte. Otherwise the file is truncated. Returns
     * success.
     */
    bool open(const std::string& path, bool resume);

    /**
     * The Report journaled under sweepJobHash(@p job, @p index), or
     * nullptr. Only a Report whose own workload and config are the job's
     * replays: two writers interleaving on one file can splice a line
     * that parses, one record's hash joined to another's Report, and
     * such a line must never stand in for the job.
     */
    const Report* replay(const SweepJob& job, std::size_t index) const;

    /** Appends the outcome @p result of job @p index, @p job, as one
     *  flushed line: its Report, or its failure row. */
    void record(const SweepJob& job, std::size_t index,
                const JobResult& result);

    void close();

  private:
    /** Loaded Reports by (hash, workload, config); the latest line wins. */
    std::map<std::tuple<std::uint64_t, std::string, std::string>, Report>
        reports;
    std::ofstream out;
};

} // namespace udp

#endif // UDP_SIM_MANIFEST_H
