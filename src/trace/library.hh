/**
 * @file
 * The content-addressed trace library (docs/replay_studies.md): a
 * directory of published PCTR epoch-trace captures keyed by the full
 * simulation-affecting identity of a sweep cell, so design studies
 * replay recorded epoch streams instead of re-simulating the GPU.
 *
 * The library is a cache, never a source of truth: entries are
 * standard `.pctrace` files (readable by every trace tool) published
 * with the store's write-temp + fsync + atomic-rename discipline, a
 * `.pckey` sidecar carries the canonical key text as an audit trail
 * and digest-collision guard, and anything that fails to decode - or
 * replays with decision mismatches against its own recording - is
 * moved into a `.corrupt/` quarantine and recaptured from a live
 * simulation, never ingested. The directory, its quarantine and its
 * counts are a store::EntryDir, the same type the results store
 * holds, so both caches set a bad entry aside the same way.
 *
 * Two key tiers share one directory:
 *
 *  - exact keys bind the full cell identity (workload + content
 *    digest, design label, run index, sim config fingerprint, PC
 *    warm-start); replaying an exact hit reproduces the live run
 *    bit-for-bit, which is what lets `--trace-cache` sweeps stay
 *    byte-identical to fresh simulations;
 *  - shared (what-if) keys blank the design/run-index slots, so every
 *    controller variation resolves to one recorded epoch stream -
 *    open-loop evaluation in the paper's own style, at replay speed.
 */

#ifndef PCSTALL_TRACE_LIBRARY_HH
#define PCSTALL_TRACE_LIBRARY_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "store/entry_dir.hh"

namespace pcstall::trace
{

/** Library key-schema version (bumped when key composition changes,
 *  so stale libraries miss instead of colliding). Version 2: the
 *  fingerprint digests the META run-config image. */
inline constexpr std::uint16_t libraryKeyVersion = 2;

/**
 * The identity a cached epoch stream is addressed by. The exact tier is
 * also a sweep cell's whole identity: bench::SweepRunner derives its
 * results-store key from it (plus the metrics-recorded and
 * regret-audited bits), so both caches always agree on what makes two
 * runs the same.
 */
struct LibraryKey
{
    /** Harness the capture belongs to (binary basename); custom
     *  controller factories make design labels harness-scoped. */
    std::string harness;
    std::string workload;
    /** Content digest of kernel-script workloads ("" for the named
     *  Table II workloads): a re-edited script must miss. */
    std::string workloadDigest;
    /** Design label of the captured cell. */
    std::string design;
    /** Repeat index among identical (workload, design, config) cells
     *  (distinct RNG streams => distinct epoch streams). */
    std::uint64_t runIndex = 0;
    /**
     * 32-hex digest of the run configuration
     * (bench::simConfigFingerprint): the RunConfig image the META
     * section of a capture records (encodeRunConfigImage), plus the
     * workload scale and seed. Observability toggles are not in that
     * image, so metrics on/off never forks the cache.
     */
    std::string fingerprint;
    /** PC-table warm-start path ("" = cold start): a warm start
     *  changes the decisions and with them the epoch stream. */
    std::string pcSnapshotIn;
    /**
     * Shared (what-if) tier: the design and run-index slots are
     * blanked so any controller variation addresses the same stream.
     * Only meaningful for sweeps that opted into open-loop evaluation
     * (--trace-what-if); see docs/replay_studies.md.
     */
    bool shared = false;

    /** Canonical text form (unit-separator joined; digest input and
     *  sidecar content). */
    std::string text() const;

    /** 32-hex content digest of text() (trace::digest128, shared
     *  with store::keyDigest). */
    std::string digest() const;
};

/**
 * A directory of published trace captures. Thread-safe the same way
 * the results store is: entries are immutable single files, writes
 * are atomic renames, readers only ever see fully published files,
 * and concurrent writers of one key stage identical bytes (cell
 * determinism), so last-writer-wins renames are safe.
 */
class TraceLibrary
{
  public:
    /**
     * Open (creating if needed) the library rooted at @p dir. On
     * failure ok() turns false and error() carries the diagnostic;
     * get() on a bad library is a harmless Miss.
     */
    explicit TraceLibrary(std::string dir);

    bool ok() const { return dir_.ok(); }
    const std::string &error() const { return dir_.error(); }
    const std::string &dir() const { return dir_.root(); }

    /** Outcome class of one get(). */
    enum class GetStatus
    {
        /** Trace and matching sidecar present; tracePath is filled.
         *  (Decode/replay validation happens at use; failures there
         *  are reported back via quarantine().) */
        Hit,
        /** No entry for this key (or an unrelated digest collision,
         *  guarded by the sidecar text). */
        Miss,
    };

    /** Result of one get(). */
    struct GetResult
    {
        GetStatus status = GetStatus::Miss;
        /** Path of the published `.pctrace` (Hit only). */
        std::string tracePath;
    };

    /** Look up @p key (file presence + sidecar guard only). */
    GetResult get(const LibraryKey &key) const;

    /** Absolute `.pctrace` path for @p key. Capture-on-miss streams a
     *  TraceWriter directly at this path: the writer's own temp +
     *  fsync + rename staging doubles as the atomic publication. */
    std::string entryPath(const LibraryKey &key) const;

    /** Absolute `.pckey` sidecar path for @p key. */
    std::string keyPath(const LibraryKey &key) const;

    /**
     * Publish the key sidecar for an entry whose trace file was just
     * committed at entryPath(). Written atomically, and strictly
     * after the trace: a crash between the two leaves an orphan trace
     * (a Miss, collected by gcOrphans()), never a sidecar pointing at
     * a missing or partial trace.
     *
     * @return Empty string on success, else a one-line diagnostic.
     */
    std::string publishKey(const LibraryKey &key) const;

    /**
     * Move @p key's entry (trace + sidecar) into the `.corrupt/`
     * quarantine, suffixed with the pid and a process-wide sequence
     * number so repeated quarantines never collide. Called when a cached trace fails to decode or replays
     * with decision mismatches against its own recording - the entry
     * is preserved for post-mortems and the caller recaptures live.
     */
    void quarantine(const LibraryKey &key, const std::string &why) const;

    /** quarantine() by digest, without the warning (tools that
     *  report bad entries themselves). */
    void quarantineEntry(const std::string &digest) const;

    /** Number of published entries (`*.pctrace` files). */
    std::size_t entryCount() const;

    /** Number of quarantined files under `.corrupt/`. */
    std::size_t quarantinedCount() const;

    /** One published entry, as listed by entries(). */
    struct Entry
    {
        /** 32-hex digest (the file stem). */
        std::string digest;
        /** Sidecar key text ("" for orphan traces). */
        std::string keyText;
        /** Trace file size in bytes. */
        std::uintmax_t bytes = 0;
    };

    /** Every published entry, sorted by digest (deterministic for
     *  tools and tests). Orphan traces appear with empty keyText. */
    std::vector<Entry> entries() const;

    /**
     * Remove unusable files: traces without a sidecar, sidecars
     * without a trace, and stale staging temps. Returns the number of
     * files removed. Safe to run concurrently with readers - a
     * concurrent publisher re-creates anything it needs.
     */
    std::size_t gcOrphans() const;

  private:
    store::EntryDir dir_;
};

} // namespace pcstall::trace

#endif // PCSTALL_TRACE_LIBRARY_HH
