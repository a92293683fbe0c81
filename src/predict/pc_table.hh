/**
 * @file
 * The PC-indexed sensitivity table at the heart of PCSTALL (paper
 * Section 4.4, Figure 12).
 *
 * Microarchitecture being modelled:
 *  - 128 entries, direct-mapped, no tags (Table I charges 1 byte per
 *    entry, so aliasing is accepted by design);
 *  - indexed by (pc_byte_address >> offsetBits) % entries, with
 *    offsetBits = 4 (~4 instructions per entry) at the knee found in
 *    Figure 11(b);
 *  - each entry holds an 8-bit quantized sensitivity;
 *  - updated at epoch end with each wavefront's estimated sensitivity
 *    and looked up with each wavefront's next PC before the epoch
 *    starts.
 */

#ifndef PCSTALL_PREDICT_PC_TABLE_HH
#define PCSTALL_PREDICT_PC_TABLE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hh"
#include "obs/metrics.hh"

namespace pcstall::predict
{

/** Geometry and quantization of the PC table. */
struct PcTableConfig
{
    /** Number of entries (the paper settles on 128). */
    std::uint32_t entries = 128;
    /** Low PC-address bits dropped before indexing (paper: 4). */
    std::uint32_t offsetBits = 4;
    /** Store entries as 8-bit quantized values (Table I: 1 B/entry). */
    bool quantize = true;
    /**
     * Largest representable sensitivity when quantizing; values are
     * stored in 256 steps of maxSensitivity/255. Scales with epoch
     * length (longer epochs commit proportionally more instructions).
     */
    double maxSensitivity = 64.0;
    /**
     * Quantization range of the level (I0) field; instruction counts
     * per wave-epoch, so it scales with the epoch length too.
     */
    double maxLevel = 256.0;
    /**
     * Store a per-entry level (I0) alongside the sensitivity so the
     * predicted instruction count is fully PC-based instead of being
     * anchored at the last epoch's count (one extra byte per entry;
     * ablation toggle - false reproduces a slope-only table).
     */
    bool storeLevel = true;
    /**
     * Exponential blending weight for updates that hit a valid entry
     * (1.0 = overwrite, the hardware-faithful default).
     */
    double updateBlend = 1.0;
    /**
     * Keep a parity bit per entry and scrub (invalidate) entries whose
     * parity no longer matches at lookup time. Turns a storage bit
     * flip into a predictable table miss instead of a silently wrong
     * prediction. Off by default (Table I charges no parity storage).
     */
    bool parityProtected = false;
};

/** One table entry: the linear phase model I(f) = level + sens * f. */
struct PcEntry
{
    /** d(instructions)/d(f_GHz) of an epoch starting at this PC. */
    double sensitivity = 0.0;
    /** Frequency-independent instruction floor I0 of that epoch. */
    double level = 0.0;
};

/**
 * Serializable image of one table entry, including whether it has ever
 * been written (snapshot/restore support, see src/trace/snapshot.hh).
 */
struct PcEntrySnapshot
{
    bool valid = false;
    double sensitivity = 0.0;
    double level = 0.0;
};

/** One PC-indexed sensitivity table instance. */
class PcSensitivityTable
{
  public:
    explicit PcSensitivityTable(const PcTableConfig &config);

    /** Record an estimated phase model for the epoch at @p pc_addr. */
    void update(std::uint64_t pc_addr, double sensitivity,
                double level = 0.0);

    /**
     * Predict the phase model of the epoch starting at @p pc_addr.
     * Empty when the entry has never been written.
     */
    std::optional<PcEntry> lookup(std::uint64_t pc_addr);

    /** Fraction of lookups that found a valid entry. */
    double hitRatio() const;

    std::uint64_t lookupCount() const { return lookups; }
    std::uint64_t lookupHitCount() const { return lookupHits; }

    /**
     * Introspection counters kept as plain members (lookup/update are
     * the predictor's hot path; the harness flushes these into the run
     * context's registry once per run). Eviction and alias tracking
     * use a shadow "owner key" per entry - the (pc_addr >> offsetBits)
     * of the last writer - which the modelled hardware does not store
     * (the table is untagged by design), so it adds no storage charge;
     * it exists purely to make aliasing observable.
     */
    struct Telemetry
    {
        std::uint64_t lookups = 0;
        /** Lookups that returned a valid entry. */
        std::uint64_t hits = 0;
        std::uint64_t updates = 0;
        /** Updates that overwrote a live entry written by another PC. */
        std::uint64_t evictions = 0;
        /** Hits whose entry was last written by a *different* PC - the
         *  prediction served is another phase's model. */
        std::uint64_t aliasHits = 0;
        /** Entries invalidated by parity-mismatch scrubs. */
        std::uint64_t scrubs = 0;
    };

    Telemetry telemetry() const;

    /** Storage cost of the entry array in bytes (Table I). */
    std::uint64_t storageBytes() const;

    /** Invalidate all entries (kernel switch in shared-table mode). */
    void reset();

    const PcTableConfig &config() const { return cfg; }

    /** Quantization round-trip of @p sensitivity (test hook). */
    double quantized(double sensitivity) const;

    /** True when entry @p idx holds a written value. */
    bool entryValid(std::size_t idx) const;

    /**
     * Flip one bit of the 8-bit stored code of entry @p idx (the
     * storage-fault seam). @p level_field selects the level (I0) byte
     * instead of the sensitivity byte. The stored parity bit is left
     * untouched - that mismatch is exactly what the scrub detects.
     * Returns false (no flip) when the entry was never written or the
     * selected field is not stored.
     */
    bool injectBitFlip(std::size_t idx, bool level_field,
                       std::uint32_t bit);

    /** Entries invalidated by parity-mismatch scrubs so far. */
    std::uint64_t scrubCount() const { return scrubs; }

    /** Serializable image of every entry, in index order. */
    std::vector<PcEntrySnapshot> exportEntries() const;

    /**
     * Restore entries from a snapshot (warm start). Values are
     * re-quantized onto this table's grid and parity is recomputed, so
     * a snapshot of an identically-configured table round-trips
     * exactly. Returns false (and changes nothing) when the snapshot's
     * entry count does not match this table's geometry.
     */
    bool importEntries(const std::vector<PcEntrySnapshot> &entries);

  private:
    std::size_t indexOf(std::uint64_t pc_addr) const;

    /** Even parity over both stored 8-bit codes of entry @p idx. */
    std::uint8_t parityOf(std::size_t idx) const;

    PcTableConfig cfg;
    std::vector<double> values;
    std::vector<double> levels;
    std::vector<bool> valid;
    std::vector<std::uint8_t> parity;
    /** Shadow tag: (pc_addr >> offsetBits) of each entry's last
     *  writer. Observability only - never affects predictions. */
    std::vector<std::uint64_t> ownerKey;
    std::uint64_t lookups = 0;
    std::uint64_t lookupHits = 0;
    std::uint64_t scrubs = 0;
    std::uint64_t updates = 0;
    std::uint64_t evictions = 0;
    std::uint64_t aliasHits = 0;
    /** Absolute sensitivity quantization error per update (resolved
     *  from the run context's registry at construction). */
    obs::Histogram *quantErrMetric;
};

} // namespace pcstall::predict

#endif // PCSTALL_PREDICT_PC_TABLE_HH
