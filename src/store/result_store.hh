/**
 * @file
 * Content-addressed, crash-safe results store for sweep cells
 * (docs/sweep_farm.md).
 *
 * Every completed sweep cell (and every shared static baseline) can
 * be checkpointed as one file whose name is a digest of the cell's
 * identity (a CellKey), so a killed sweep restarted with the same
 * flags, or a sibling shard worker, finds the finished cells instead of
 * recomputing them. Cell results are deterministic (PR 3's split-seed
 * contract), so any two writers of one key produce identical
 * payloads and last-writer-wins renames are safe.
 *
 * Entry format: a sealed container (trace/sealed.hh) with magic
 * "PCRS" and exactly three sections:
 *
 *   KEY  (tag 1)    the key text (audit trail + digest-collision guard)
 *   CELL (tag 2)    the payload (opaque to the store; see cell_codec.hh)
 *   END  (tag 0xFF) the FNV-1a checksum over all prior bytes
 *
 * Writes stage through write-temp + fsync + atomic-rename
 * (atomic_file.hh), so readers only ever see whole entries. Corrupt
 * or truncated entries, and entries of any other format version, are
 * detected on read, moved into the directory's `.corrupt/` quarantine
 * (entry_dir.hh) for post-mortems, and reported as such so the caller
 * recomputes the cell rather than trusting the bytes.
 */

#ifndef PCSTALL_STORE_RESULT_STORE_HH
#define PCSTALL_STORE_RESULT_STORE_HH

#include <cstdint>
#include <string>

#include "store/entry_dir.hh"

namespace pcstall::store
{

/** Store entry-format version (bumped on any wire change). Version 3:
 *  the sealed KEY, CELL, END layout. */
inline constexpr std::uint16_t storeFormatVersion = 3;

/** The identity a stored result is addressed by. */
struct CellKey
{
    /** Harness the cell belongs to (binary basename). */
    std::string harness;
    std::string workload;
    /** Design label (or a pseudo-design like "__static_baseline__"). */
    std::string design;
    /** Controller configuration string (the part after ':' in a
     *  "NAME:k=v" design). Kept as its own key slot - not folded into
     *  the design label - so differently-configured controllers can
     *  never collide even when a harness normalizes its labels. */
    std::string controllerConfig;
    /** Serialized run identity. bench::SweepRunner puts the cell's
     *  whole identity here (its exact-tier trace::LibraryKey text
     *  plus the metrics-recorded, regret-audited and what-if bits;
     *  docs/sweep_farm.md) and leaves the other slots empty. */
    std::string fingerprint;
    /** Repeat index among identical (workload, design, config) cells. */
    std::uint64_t runIndex = 0;

    /** Canonical text form (unit-separator joined; digest input). */
    std::string text() const;
};

/**
 * Content digest of @p key: 32 hex chars from two independent FNV-1a
 * passes over the canonical text. Stable across processes and
 * platforms; the stored key text guards the (astronomically unlikely)
 * collision case.
 *
 * @param key  The cell identity to digest.
 * @return The 32-character lowercase hex digest.
 */
std::string keyDigest(const CellKey &key);

/**
 * A directory of checkpointed cell results. Thread-safe: entries are
 * single immutable files, writes are atomic renames, and reads open
 * only fully published files.
 */
class ResultStore
{
  public:
    /**
     * Open (creating if needed) the store rooted at @p dir. On
     * failure ok() turns false and error() carries the diagnostic;
     * get()/put() on a bad store are harmless no-ops (Miss / error).
     *
     * @param dir  Store root directory.
     */
    explicit ResultStore(std::string dir);

    bool ok() const { return error_.empty(); }
    const std::string &error() const { return error_; }
    const std::string &dir() const { return dir_.root(); }

    /** Outcome class of one get(). */
    enum class GetStatus
    {
        /** Entry present and valid; payload is filled. */
        Hit,
        /** No entry for this key (or an unrelated digest collision). */
        Miss,
        /** Entry present but corrupt/truncated; quarantined. */
        Corrupt,
    };

    /** Result of one get(). */
    struct GetResult
    {
        GetStatus status = GetStatus::Miss;
        /** The stored payload (Hit only). */
        std::string payload;
        /** Diagnostic for Corrupt entries. */
        std::string error;
    };

    /**
     * Look up @p key. Corrupt or truncated entries are moved to the
     * `.corrupt/` sidecar (suffixed with the pid and a process-wide
     * sequence number so repeated quarantines never collide) and
     * reported as Corrupt so the caller recomputes - a bad checkpoint
     * is never trusted.
     *
     * @param key  Cell identity to look up.
     * @return Hit with the payload, Miss, or Corrupt.
     */
    GetResult get(const CellKey &key) const;

    /**
     * Checkpoint @p payload under @p key via write-temp + fsync +
     * atomic-rename. Concurrent writers of one key are safe: cell
     * results are deterministic, so both stage identical bytes and
     * the last rename wins.
     *
     * @param key      Cell identity to store under.
     * @param payload  Opaque serialized result (see cell_codec.hh).
     * @return Empty string on success, else a one-line diagnostic.
     */
    std::string put(const CellKey &key, const std::string &payload) const;

    /** @return Number of valid-looking entries ("*.pcres" files). */
    std::size_t entryCount() const;

    /** @return Number of quarantined files under `.corrupt/`. */
    std::size_t quarantinedCount() const;

    /** @return Absolute entry path for @p key (test hook). */
    std::string entryPath(const CellKey &key) const;

  private:
    EntryDir dir_;
    std::string error_;
};

} // namespace pcstall::store

#endif // PCSTALL_STORE_RESULT_STORE_HH
