/**
 * @file
 * Sweep checkpoint manifest: a JSONL journal of finished sweep jobs,
 * keyed by a deterministic job hash, that makes an interrupted campaign
 * resumable (SweepOptions::manifestPath / resume, docs/ROBUSTNESS.md).
 *
 * Each line is appended line-atomically and flushed the moment its job
 * finishes, so even a SIGKILLed sweep leaves a manifest whose complete
 * lines all parse; a truncated final line is skipped on load. Completed
 * jobs store their full serialized Report, so a resumed sweep replays
 * them without re-running and the merged artifacts are byte-identical
 * to an uninterrupted run. One runSweepChecked call writes each
 * manifest; keys it does not know (such as the "worker" of older
 * distributed runs) are ignored on load, so such files still resume.
 */

#ifndef UDP_SIM_MANIFEST_H
#define UDP_SIM_MANIFEST_H

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <unordered_map>

#include "sim/sweep.h"

namespace udp {

/** One manifest line: the durable record of one finished job. */
struct ManifestEntry
{
    /** sweepJobHash() of the job this entry records. */
    std::uint64_t hash = 0;
    /** Job index within its batch (part of the hash; informational). */
    std::size_t index = 0;
    std::string workload;
    std::string label;
    /** Completed successfully; failed entries are re-run on resume. */
    bool ok = false;
    /** error_kind of a failed entry ("" when ok). */
    std::string errorKind;
    /** The Report of a completed entry (default when failed). */
    Report report;
};

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
     * Opens @p path for appending. When @p resume is set, existing
     * entries are loaded first (malformed or truncated lines are
     * skipped); otherwise the file is truncated. Returns success.
     */
    bool open(const std::string& path, bool resume);

    /** The loaded completed (ok) entry for @p hash, or nullptr. */
    const ManifestEntry* findCompleted(std::uint64_t hash) const;

    /** Appends @p e as one flushed line. */
    void record(const ManifestEntry& e);

    /** Completed (ok) entries loaded by open(). */
    std::size_t loadedCompleted() const { return completedLoaded; }

    bool isOpen() const { return out.is_open(); }

    void close();

  private:
    std::unordered_map<std::uint64_t, ManifestEntry> entries;
    std::size_t completedLoaded = 0;
    std::ofstream out;
};

/** Serializes @p e as one manifest JSON line (no trailing newline). */
std::string manifestEntryToJsonLine(const ManifestEntry& e);

/**
 * Parses one manifest line with walkJsonObject() (stats/sink.h); returns
 * false on malformed input. Each known key may appear once, wherever it
 * stands; unknown keys are ignored. An ok entry's "report" must be a
 * reportToJsonLine() line byte for byte; it is parsed into
 * ManifestEntry::report.
 */
bool manifestEntryFromJsonLine(const std::string& line, ManifestEntry* out);

/**
 * Consistency check for a parsed entry. Failed entries are always
 * consistent; an ok entry's report must carry the entry's own workload
 * and config label. This rejects the one corruption a line-level parser
 * cannot: two writers interleaving on the same file can splice a line
 * that *parses* — one record's prefix (hash, workload) joined to
 * another's report — and without this check such a line would
 * resurrect the wrong Report under a valid hash on resume.
 */
bool manifestEntryIsConsistent(const ManifestEntry& e);

} // namespace udp

#endif // UDP_SIM_MANIFEST_H
