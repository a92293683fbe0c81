#include "trace/snapshot.hh"

#include <cmath>

#include "store/atomic_file.hh"
#include "trace/sealed.hh"

namespace pcstall::trace
{

namespace
{

/** Section tags of a standalone `.pcsnap` file (version 1 was not a
 *  sealed container, so this one is version 2). */
constexpr std::uint8_t tagSnapshot = 1;
constexpr std::uint8_t tagEnd = 0xFF;
constexpr SealedFormat snapshotFormat{"PCSN", 2, tagEnd};

/** Largest plausible table geometry a file may declare. */
constexpr std::uint64_t maxTables = 1 << 16;
constexpr std::uint64_t maxEntries = 1 << 20;

bool
configsMatch(const predict::PcTableConfig &a,
             const predict::PcTableConfig &b)
{
    return a.entries == b.entries && a.offsetBits == b.offsetBits &&
        a.quantize == b.quantize && a.storeLevel == b.storeLevel &&
        a.maxSensitivity == b.maxSensitivity &&
        a.maxLevel == b.maxLevel;
}

} // namespace

PcTableSnapshot
snapshotPcTables(const std::vector<predict::PcSensitivityTable> &tables)
{
    PcTableSnapshot snap;
    if (tables.empty())
        return snap;
    snap.config = tables.front().config();
    snap.tables.reserve(tables.size());
    for (const auto &table : tables)
        snap.tables.push_back(table.exportEntries());
    return snap;
}

std::string
restorePcTables(const PcTableSnapshot &snap,
                std::vector<predict::PcSensitivityTable> &tables)
{
    if (snap.tables.size() != tables.size()) {
        return "snapshot holds " + std::to_string(snap.tables.size()) +
            " table instance(s) but the controller has " +
            std::to_string(tables.size());
    }
    if (!tables.empty() &&
        !configsMatch(snap.config, tables.front().config())) {
        return "snapshot table geometry/quantization does not match "
               "the controller's configuration";
    }
    for (const auto &entries : snap.tables) {
        if (entries.size() != snap.config.entries)
            return "snapshot entry count does not match its header";
    }
    for (std::size_t t = 0; t < tables.size(); ++t) {
        if (!tables[t].importEntries(snap.tables[t]))
            return "snapshot entry count rejected by table import";
    }
    return "";
}

std::string
encodePcSnapshot(const PcTableSnapshot &snap)
{
    std::string out;
    const predict::PcTableConfig &cfg = snap.config;
    putVarint(out, cfg.entries);
    putVarint(out, cfg.offsetBits);
    putBool(out, cfg.quantize);
    putDouble(out, cfg.maxSensitivity);
    putDouble(out, cfg.maxLevel);
    putBool(out, cfg.storeLevel);
    putDouble(out, cfg.updateBlend);
    putBool(out, cfg.parityProtected);
    putVarint(out, snap.tables.size());
    for (const auto &entries : snap.tables) {
        putVarint(out, entries.size());
        for (const auto &e : entries) {
            putBool(out, e.valid);
            if (e.valid) {
                putDouble(out, e.sensitivity);
                putDouble(out, e.level);
            }
        }
    }
    return out;
}

std::string
decodePcSnapshot(const std::string &payload, PcTableSnapshot &snap)
{
    Cursor cur(payload);
    predict::PcTableConfig cfg;
    cfg.entries = static_cast<std::uint32_t>(cur.varint());
    cfg.offsetBits = static_cast<std::uint32_t>(cur.varint());
    cfg.quantize = cur.getBool();
    cfg.maxSensitivity = cur.getDouble();
    cfg.maxLevel = cur.getDouble();
    cfg.storeLevel = cur.getBool();
    cfg.updateBlend = cur.getDouble();
    cfg.parityProtected = cur.getBool();
    const std::uint64_t num_tables = cur.varint();
    if (cur.failed() || cfg.entries == 0 || cfg.entries > maxEntries ||
        num_tables > maxTables) {
        return "corrupt PC snapshot header";
    }
    if (cfg.maxSensitivity <= 0.0 || cfg.maxLevel <= 0.0 ||
        !std::isfinite(cfg.maxSensitivity) ||
        !std::isfinite(cfg.maxLevel)) {
        return "corrupt PC snapshot quantization range";
    }
    PcTableSnapshot out;
    out.config = cfg;
    out.tables.reserve(num_tables);
    for (std::uint64_t t = 0; t < num_tables; ++t) {
        const std::uint64_t entries = cur.varint();
        if (cur.failed() || entries != cfg.entries)
            return "corrupt PC snapshot table " + std::to_string(t);
        std::vector<predict::PcEntrySnapshot> vec(entries);
        for (std::uint64_t i = 0; i < entries; ++i) {
            vec[i].valid = cur.getBool();
            if (vec[i].valid) {
                vec[i].sensitivity = cur.getDouble();
                vec[i].level = cur.getDouble();
            }
        }
        if (cur.failed())
            return "truncated PC snapshot table " + std::to_string(t);
        out.tables.push_back(std::move(vec));
    }
    if (cur.failed() || !cur.atEnd())
        return "PC snapshot has trailing or missing bytes";
    snap = std::move(out);
    return "";
}

bool
writePcSnapshotFile(const std::string &path, const PcTableSnapshot &snap)
{
    SealedWriter sealer(snapshotFormat);
    std::string out = sealer.header();
    sealer.append(out, tagSnapshot, encodePcSnapshot(snap));
    out += sealer.end("");
    // Atomic publish: a killed run leaves either the previous snapshot
    // or none, never a truncated file a warm-start would reject.
    return store::writeFileAtomic(path, out).empty();
}

PcSnapshotReadResult
readPcSnapshotFile(const std::string &path)
{
    PcSnapshotReadResult result;
    std::string buf;
    if (!readFile(path, buf)) {
        result.error = "cannot open '" + path + "'";
        return result;
    }
    const Unsealed file = unseal(buf, snapshotFormat);
    if (!file.ok()) {
        result.error = "'" + path + "': " + file.error;
        return result;
    }
    if (file.sections.size() != 1 ||
        file.sections.front().tag != tagSnapshot ||
        file.trailer.size != 0) {
        result.error = "'" + path + "': unexpected PCSN sections";
        return result;
    }
    PcTableSnapshot snap;
    result.error = decodePcSnapshot(file.sections.front().bytes(), snap);
    if (result.error.empty())
        result.snapshot = std::move(snap);
    return result;
}

} // namespace pcstall::trace
