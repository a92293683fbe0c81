/**
 * @file
 * The directory under each content-addressed cache (the results store
 * and the trace library): a flat directory of single-file entries
 * with a `.corrupt/` quarantine beside them, opened, quarantined into
 * and counted the same way for both.
 */

#ifndef PCSTALL_STORE_ENTRY_DIR_HH
#define PCSTALL_STORE_ENTRY_DIR_HH

#include <cstddef>
#include <string>

namespace pcstall::store
{

class EntryDir
{
  public:
    /** Open (creating if needed) @p root; on failure ok() turns false
     *  and error() carries a diagnostic led by @p what. */
    EntryDir(std::string root, const std::string &what);

    bool ok() const { return error_.empty(); }
    const std::string &error() const { return error_; }
    const std::string &root() const { return root_; }

    /** Path of the file @p name in the directory. */
    std::string path(const std::string &name) const;

    /**
     * Move the file at @p path into `.corrupt/` (created on first
     * use), suffixed with the pid so quarantines from different
     * processes never collide. If the rename fails (a concurrent
     * quarantine won) the file is removed, so bad bytes never block a
     * fresh entry. A missing file is left alone.
     */
    void quarantine(const std::string &path) const;

    /** Regular files in the directory with extension @p ext. */
    std::size_t count(const std::string &ext) const;

    /** Regular files under `.corrupt/`. */
    std::size_t quarantinedCount() const;

  private:
    std::string root_;
    std::string error_;
};

} // namespace pcstall::store

#endif // PCSTALL_STORE_ENTRY_DIR_HH
