#include "trace/library.hh"

#include <algorithm>
#include <filesystem>
#include <system_error>

#include "common/logging.hh"
#include "store/atomic_file.hh"
#include "trace/sealed.hh"

namespace pcstall::trace
{

namespace
{

namespace fs = std::filesystem;

/** Field separator of the canonical key text (same unit separator the
 *  results store uses; never appears in workload/design names). */
constexpr char keySep = '\x1f';

} // namespace

std::string
LibraryKey::text() const
{
    // The version slot makes a key-schema change an automatic miss
    // (and an automatic sidecar mismatch) instead of a collision.
    std::string out = "pctl" + std::to_string(libraryKeyVersion);
    out += keySep;
    out += harness;
    out += keySep;
    out += workload;
    out += keySep;
    out += workloadDigest;
    out += keySep;
    // The shared tier addresses the stream, not the cell: the design
    // and run-index slots are blanked so every controller variation
    // resolves to one capture.
    out += shared ? "*" : design;
    out += keySep;
    out += shared ? "*" : std::to_string(runIndex);
    out += keySep;
    out += fingerprint;
    out += keySep;
    out += pcSnapshotIn;
    return out;
}

std::string
LibraryKey::digest() const
{
    return digest128(text());
}

TraceLibrary::TraceLibrary(std::string dir)
    : dir_(std::move(dir), "trace library")
{}

std::string
TraceLibrary::entryPath(const LibraryKey &key) const
{
    return dir_.path(key.digest() + ".pctrace");
}

std::string
TraceLibrary::keyPath(const LibraryKey &key) const
{
    return dir_.path(key.digest() + ".pckey");
}

TraceLibrary::GetResult
TraceLibrary::get(const LibraryKey &key) const
{
    GetResult out;
    if (!ok())
        return out;
    const std::string trace_path = entryPath(key);
    std::error_code ec;
    if (!fs::exists(trace_path, ec) || ec)
        return out;
    std::string sidecar;
    if (!readFile(keyPath(key), sidecar) || sidecar.empty())
        return out; // orphan trace: publication never completed
    if (sidecar != key.text()) {
        // A real digest collision. Astronomically unlikely; treated
        // as a miss so the colliding cell simply simulates live.
        warnLimited("trace-library-collision",
                    "trace library: digest collision on '" +
                        key.digest() + "' (simulating live)");
        return out;
    }
    out.status = GetStatus::Hit;
    out.tracePath = trace_path;
    return out;
}

std::string
TraceLibrary::publishKey(const LibraryKey &key) const
{
    if (!ok())
        return error();
    return store::writeFileAtomic(keyPath(key), key.text());
}

void
TraceLibrary::quarantine(const LibraryKey &key,
                         const std::string &why) const
{
    if (!ok())
        return;
    quarantineEntry(key.digest());
    warn("trace library: quarantined entry " + key.digest() + " (" +
         why + "); recapturing live");
}

void
TraceLibrary::quarantineEntry(const std::string &digest) const
{
    dir_.quarantine(dir_.path(digest + ".pctrace"));
    dir_.quarantine(dir_.path(digest + ".pckey"));
}

std::size_t
TraceLibrary::entryCount() const
{
    return ok() ? dir_.count(".pctrace") : 0;
}

std::size_t
TraceLibrary::quarantinedCount() const
{
    return ok() ? dir_.quarantinedCount() : 0;
}

std::vector<TraceLibrary::Entry>
TraceLibrary::entries() const
{
    std::vector<Entry> out;
    if (!ok())
        return out;
    std::error_code ec;
    for (const auto &de : fs::directory_iterator(dir(), ec)) {
        if (de.path().extension() != ".pctrace")
            continue;
        Entry e;
        e.digest = de.path().stem().string();
        readFile(dir_.path(e.digest + ".pckey"), e.keyText);
        e.bytes = fs::file_size(de.path(), ec);
        if (ec)
            e.bytes = 0;
        out.push_back(std::move(e));
    }
    std::sort(out.begin(), out.end(),
              [](const Entry &a, const Entry &b) {
                  return a.digest < b.digest;
              });
    return out;
}

std::size_t
TraceLibrary::gcOrphans() const
{
    if (!ok())
        return 0;
    std::size_t removed = 0;
    std::error_code ec;
    std::vector<fs::path> doomed;
    for (const auto &de : fs::directory_iterator(dir(), ec)) {
        const fs::path &p = de.path();
        const std::string ext = p.extension().string();
        const fs::path stemmed = p.parent_path() / p.stem();
        if (ext == ".pctrace") {
            if (!fs::exists(stemmed.string() + ".pckey", ec))
                doomed.push_back(p);
        } else if (ext == ".pckey") {
            if (!fs::exists(stemmed.string() + ".pctrace", ec))
                doomed.push_back(p);
        } else if (p.filename().string().find(".tmp.") !=
                   std::string::npos) {
            // A crashed capture's staging file; no live writer holds
            // it by the time a gc runs.
            doomed.push_back(p);
        }
    }
    for (const fs::path &p : doomed) {
        if (fs::remove(p, ec) && !ec)
            ++removed;
    }
    return removed;
}

} // namespace pcstall::trace
