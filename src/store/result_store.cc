#include "result_store.hh"

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <mutex>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "atomic_file.hh"
#include "common/logging.hh"
#include "trace/wire.hh"

namespace pcstall::store
{

namespace fs = std::filesystem;

namespace
{

constexpr char keySep = '\x1f';
constexpr const char *corruptDirName = ".corrupt";

/**
 * Test hook: PCSTALL_TEST_CRASH_AFTER_PUTS=K SIGKILLs the process
 * right after the K-th successful checkpoint, giving the
 * kill-and-resume tests a deterministic mid-sweep crash point (a real
 * SIGKILL: no handlers, no unwinding, exactly like an OOM kill).
 *
 * When the hook is armed, entry publication serializes on
 * crashHookMutex() (put() locks it around the atomic rename): without
 * that, a concurrent worker thread could commit its rename between
 * the K-th counter increment and the SIGKILL landing, leaving K+1
 * entries on disk and flaking the exact-count asserts in
 * tests/test_store.cc and the CI sweep-farm job. Unarmed runs (the
 * only kind outside tests) never take the lock.
 */
std::mutex &
crashHookMutex()
{
    static std::mutex m;
    return m;
}

long
crashAfterPuts()
{
    // Re-read the environment every call (puts are per-cell, so this
    // is cold): a forked test child that sets the variable after the
    // parent already checkpointed must still see it armed.
    const char *env = std::getenv("PCSTALL_TEST_CRASH_AFTER_PUTS");
    return env != nullptr ? std::atol(env) : 0L;
}

void
maybeCrashAfterPut()
{
    static std::atomic<long> puts{0};
    if (puts.fetch_add(1) + 1 >= crashAfterPuts())
        ::raise(SIGKILL);
}

} // namespace

std::string
CellKey::text() const
{
    std::string out;
    out.reserve(harness.size() + workload.size() + design.size() +
                controllerConfig.size() + fingerprint.size() + 25);
    out += harness;
    out += keySep;
    out += workload;
    out += keySep;
    out += design;
    out += keySep;
    out += controllerConfig;
    out += keySep;
    out += fingerprint;
    out += keySep;
    out += std::to_string(runIndex);
    return out;
}

std::string
keyDigest(const CellKey &key)
{
    return trace::digest128(key.text());
}

ResultStore::ResultStore(std::string dir) : dir_(std::move(dir))
{
    if (dir_.empty()) {
        error_ = "results store: empty directory path";
        return;
    }
    std::error_code ec;
    fs::create_directories(fs::path(dir_) / corruptDirName, ec);
    if (ec) {
        error_ = "results store: cannot create '" + dir_ +
                 "': " + ec.message();
        return;
    }
    // Probe writability up front so a read-only directory surfaces as
    // one diagnostic at configuration time, not a warning per cell.
    const std::string probe =
        (fs::path(dir_) / ".probe").string();
    const std::string err = writeFileAtomic(probe, "pcstall");
    if (!err.empty()) {
        error_ = "results store: '" + dir_ + "' is not writable (" +
                 err + ")";
        return;
    }
    fs::remove(probe, ec);
}

std::string
ResultStore::entryPath(const CellKey &key) const
{
    return (fs::path(dir_) / (keyDigest(key) + ".pcres")).string();
}

void
ResultStore::quarantine(const std::string &path) const
{
    const fs::path src(path);
    const fs::path dst = fs::path(dir_) / corruptDirName /
        (src.filename().string() + "." + std::to_string(::getpid()));
    std::error_code ec;
    fs::rename(src, dst, ec);
    if (ec) {
        // Renaming failed (e.g. a concurrent quarantine won): remove
        // so the recompute's fresh put is not blocked by bad bytes.
        fs::remove(src, ec);
    }
}

ResultStore::GetResult
ResultStore::get(const CellKey &key) const
{
    GetResult out;
    if (!ok())
        return out;
    const std::string path = entryPath(key);
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return out; // Miss
    std::string buf((std::istreambuf_iterator<char>(is)),
                    std::istreambuf_iterator<char>());
    is.close();

    const auto corrupt = [&](const std::string &why) {
        quarantine(path);
        out.status = GetStatus::Corrupt;
        out.error = "store entry '" + path + "': " + why;
        return out;
    };

    if (buf.size() < 8 + 8 || buf.compare(0, 4, "PCRS") != 0)
        return corrupt("bad magic or truncated header");
    trace::Cursor cur(buf.data() + 4, buf.size() - 4 - 8);
    const std::uint16_t version =
        static_cast<std::uint16_t>(cur.u8()) |
        static_cast<std::uint16_t>(cur.u8()) << 8;
    cur.u8();
    cur.u8(); // reserved
    if (version != storeFormatVersion) {
        return corrupt("unsupported version " +
                       std::to_string(version));
    }
    const std::string key_text = cur.getString(1 << 12);
    const std::string payload =
        cur.getString(std::size_t{1} << 30);
    if (cur.failed() || !cur.atEnd())
        return corrupt("truncated or oversized entry body");
    const std::uint64_t want = trace::fnv1a(
        trace::fnvSeed, buf.data(), buf.size() - 8);
    trace::Cursor tail(buf.data() + buf.size() - 8, 8);
    if (tail.fixed64() != want)
        return corrupt("checksum mismatch");
    if (key_text != key.text()) {
        // A genuine digest collision: someone else's (valid) entry
        // lives at our path. Treat as a miss; never quarantine it.
        debug("results store: digest collision at '" + path + "'");
        return out;
    }
    out.status = GetStatus::Hit;
    out.payload = std::move(payload);
    return out;
}

std::string
ResultStore::put(const CellKey &key, const std::string &payload) const
{
    if (!ok())
        return error_;
    std::string bytes;
    bytes.reserve(payload.size() + key.text().size() + 32);
    bytes += "PCRS";
    bytes.push_back(static_cast<char>(storeFormatVersion & 0xFF));
    bytes.push_back(static_cast<char>(storeFormatVersion >> 8));
    bytes.push_back('\0');
    bytes.push_back('\0');
    trace::putString(bytes, key.text());
    trace::putString(bytes, payload);
    trace::putFixed64(
        bytes, trace::fnv1a(trace::fnvSeed, bytes.data(), bytes.size()));
    if (crashAfterPuts() > 0) {
        const std::lock_guard<std::mutex> lock(crashHookMutex());
        const std::string err = writeFileAtomic(entryPath(key), bytes);
        if (err.empty())
            maybeCrashAfterPut();
        return err;
    }
    return writeFileAtomic(entryPath(key), bytes);
}

std::size_t
ResultStore::entryCount() const
{
    if (!ok())
        return 0;
    std::size_t count = 0;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir_, ec)) {
        if (entry.is_regular_file() &&
            entry.path().extension() == ".pcres") {
            ++count;
        }
    }
    return count;
}

std::size_t
ResultStore::quarantinedCount() const
{
    if (!ok())
        return 0;
    std::size_t count = 0;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(
             fs::path(dir_) / corruptDirName, ec)) {
        if (entry.is_regular_file())
            ++count;
    }
    return count;
}

} // namespace pcstall::store
