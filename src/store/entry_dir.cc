#include "entry_dir.hh"

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <system_error>

namespace pcstall::store
{

namespace fs = std::filesystem;

namespace
{

constexpr const char *corruptDirName = ".corrupt";

/** Quarantines made by this process so far (the suffix sequence). */
std::atomic<std::uint64_t> quarantineSeq{0};

} // namespace

std::size_t
countFiles(const std::string &dir, const std::string &ext)
{
    std::size_t n = 0;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        if (entry.is_regular_file(ec) &&
            (ext.empty() || entry.path().extension() == ext)) {
            ++n;
        }
    }
    return n;
}

EntryDir::EntryDir(std::string root, const std::string &what)
    : root_(std::move(root))
{
    if (root_.empty()) {
        error_ = what + ": empty directory path";
        return;
    }
    std::error_code ec;
    fs::create_directories(root_, ec);
    if (ec)
        error_ = what + ": cannot create '" + root_ + "': " + ec.message();
    else if (!fs::is_directory(root_, ec))
        error_ = what + ": '" + root_ + "' is not a directory";
}

std::string
EntryDir::path(const std::string &name) const
{
    return (fs::path(root_) / name).string();
}

void
EntryDir::quarantine(const std::string &path) const
{
    const fs::path src(path);
    const fs::path pen = fs::path(root_) / corruptDirName;
    std::error_code ec;
    if (!fs::exists(src, ec))
        return;
    fs::create_directories(pen, ec);
    fs::rename(src, pen / (src.filename().string() + "." +
                           std::to_string(::getpid()) + "." +
                           std::to_string(quarantineSeq++)), ec);
    if (ec)
        fs::remove(src, ec);
}

std::size_t
EntryDir::count(const std::string &ext) const
{
    return countFiles(root_, ext);
}

std::size_t
EntryDir::quarantinedCount() const
{
    return countFiles((fs::path(root_) / corruptDirName).string(), "");
}

} // namespace pcstall::store
