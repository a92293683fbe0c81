#include "trace/snapshot.hh"

#include <cmath>

#include "store/atomic_file.hh"
#include "trace/sealed.hh"

namespace pcstall::trace
{

namespace
{

/** Standalone snapshot file magic: "PCSN" little-endian. */
constexpr std::uint32_t snapMagic = 0x4E534350;
constexpr std::uint16_t snapVersion = 1;

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
    const std::string payload = encodePcSnapshot(snap);
    std::string out;
    putFixed64(out, (static_cast<std::uint64_t>(snapVersion) << 32) |
                        snapMagic);
    putVarint(out, payload.size());
    out += payload;
    putFixed64(out, fnv1a(fnvSeed, payload.data(), payload.size()));
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
    Cursor cur(buf);
    const std::uint64_t head = cur.fixed64();
    if (cur.failed() ||
        static_cast<std::uint32_t>(head & 0xFFFFFFFF) != snapMagic) {
        result.error = "'" + path + "' is not a PC snapshot file";
        return result;
    }
    if (static_cast<std::uint16_t>(head >> 32) != snapVersion) {
        result.error = "unsupported PC snapshot version " +
            std::to_string(head >> 32);
        return result;
    }
    const std::uint64_t payload_len = cur.varint();
    if (cur.failed() || payload_len > cur.remaining()) {
        result.error = "truncated PC snapshot file";
        return result;
    }
    const std::size_t off = buf.size() - cur.remaining();
    const std::string payload = buf.substr(off, payload_len);
    Cursor tail(buf.data() + off + payload_len,
                buf.size() - off - payload_len);
    const std::uint64_t checksum = tail.fixed64();
    if (tail.failed()) {
        result.error = "truncated PC snapshot file";
        return result;
    }
    if (checksum != fnv1a(fnvSeed, payload.data(), payload.size())) {
        result.error = "PC snapshot checksum mismatch (corrupt file)";
        return result;
    }
    PcTableSnapshot snap;
    const std::string err = decodePcSnapshot(payload, snap);
    if (!err.empty()) {
        result.error = err;
        return result;
    }
    result.snapshot = std::move(snap);
    return result;
}

} // namespace pcstall::trace
