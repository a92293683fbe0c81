#include "result_store.hh"

#include <signal.h>

#include <atomic>
#include <mutex>
#include <cstdlib>
#include <filesystem>
#include <system_error>

#include "atomic_file.hh"
#include "common/logging.hh"
#include "trace/sealed.hh"

namespace pcstall::store
{

namespace fs = std::filesystem;

namespace
{

constexpr char keySep = '\x1f';

/** PCRS section tags: the key text, then the cell payload. */
constexpr std::uint8_t tagKey = 1;
constexpr std::uint8_t tagCell = 2;
constexpr std::uint8_t tagEnd = 0xFF;

constexpr trace::SealedFormat entryFormat{"PCRS", storeFormatVersion,
                                          tagEnd};

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

ResultStore::ResultStore(std::string dir)
    : dir_(std::move(dir), "results store"), error_(dir_.error())
{
    if (!ok())
        return;
    // Probe writability up front so a read-only directory surfaces as
    // one diagnostic at configuration time, not a warning per cell.
    const std::string probe = dir_.path(".probe");
    const std::string err = writeFileAtomic(probe, "pcstall");
    if (!err.empty()) {
        error_ = "results store: '" + dir_.root() +
            "' is not writable (" + err + ")";
        return;
    }
    std::error_code ec;
    fs::remove(probe, ec);
}

std::string
ResultStore::entryPath(const CellKey &key) const
{
    return dir_.path(keyDigest(key) + ".pcres");
}

ResultStore::GetResult
ResultStore::get(const CellKey &key) const
{
    GetResult out;
    if (!ok())
        return out;
    const std::string path = entryPath(key);
    std::string buf;
    if (!trace::readFile(path, buf))
        return out; // Miss

    const trace::Unsealed entry = trace::unseal(buf, entryFormat);
    std::string why = entry.error;
    if (why.empty() &&
        (entry.sections.size() != 2 || entry.sections[0].tag != tagKey ||
         entry.sections[1].tag != tagCell || entry.trailer.size != 0)) {
        why = "not a KEY, CELL, END entry";
    }
    if (!why.empty()) {
        dir_.quarantine(path);
        out.status = GetStatus::Corrupt;
        out.error = "store entry '" + path + "': " + why;
        return out;
    }
    if (entry.sections[0].bytes() != key.text()) {
        // A genuine digest collision: someone else's (valid) entry
        // lives at our path. Treat as a miss; never quarantine it.
        debug("results store: digest collision at '" + path + "'");
        return out;
    }
    out.status = GetStatus::Hit;
    out.payload = entry.sections[1].bytes();
    return out;
}

std::string
ResultStore::put(const CellKey &key, const std::string &payload) const
{
    if (!ok())
        return error_;
    const std::string key_text = key.text();
    trace::SealedWriter sealer(entryFormat);
    std::string bytes = sealer.header();
    bytes.reserve(key_text.size() + payload.size() + 32);
    sealer.append(bytes, tagKey, key_text);
    sealer.append(bytes, tagCell, payload);
    bytes += sealer.end("");
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
    return ok() ? dir_.count(".pcres") : 0;
}

std::size_t
ResultStore::quarantinedCount() const
{
    return ok() ? dir_.quarantinedCount() : 0;
}

} // namespace pcstall::store
