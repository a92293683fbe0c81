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

/** Regular files in @p dir with extension @p ext (any if empty); 0
 *  when @p dir does not exist. Creates nothing, so status tools can
 *  count a store they must not initialize. */
std::size_t countFiles(const std::string &dir, const std::string &ext);

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
     * use), suffixed with the pid and a process-wide sequence number
     * so repeated quarantines of one entry, in one process or many,
     * never collide. If the rename fails (a concurrent quarantine
     * won) the file is removed, so bad bytes never block a fresh
     * entry. A missing file is left alone.
     */
    void quarantine(const std::string &path) const;

    /** countFiles() of the directory with extension @p ext. */
    std::size_t count(const std::string &ext) const;

    /** Regular files under `.corrupt/`. */
    std::size_t quarantinedCount() const;

  private:
    std::string root_;
    std::string error_;
};

} // namespace pcstall::store

#endif // PCSTALL_STORE_ENTRY_DIR_HH
