/**
 * @file
 * sweep_farm: multi-process farm driver for the crash-resumable sweep
 * layer (docs/sweep_farm.md).
 *
 *   sweep_farm --workers N --store DIR [--max-restarts K]
 *              [--log-dir DIR] -- <harness> [harness flags...]
 *   sweep_farm --status --store DIR [--log-dir DIR]
 *
 * Spawns N copies of the given figure harness, worker i running with
 * `--store DIR --shard i/N` appended to its command line so each
 * computes a disjoint slice of the sweep grid and checkpoints every
 * finished cell into the shared content-addressed store. Workers that
 * die - crash, OOM kill, or a non-zero exit - are restarted (at most
 * --max-restarts times each); a restarted worker recomputes only the
 * cells its predecessor had not yet stored. Worker output goes to
 * <log-dir>/worker-<i>.log.
 *
 * When every shard has finished, the harness runs once more with
 * --store DIR and no --shard, inheriting the farm's stdout: it reads
 * every cell back from the store (computing any a worker never
 * reached) and emits the merged tables/CSV through the normal
 * submission-order aggregation path - byte-identical to a
 * single-process run of the same command.
 *
 * While workers run, the farm refreshes one heartbeat file per worker
 * (<log-dir>/worker-<i>.hb, atomically replaced about once a second)
 * recording shard, pid, state, restart count and timestamps. A second
 * invocation with --status reads the heartbeats back and prints a
 * live summary - per-worker state, heartbeat age, log growth, and the
 * shared store's checkpointed-cell count - without touching the
 * running farm.
 */

#include <sys/types.h>
#include <sys/wait.h>

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "harness.hh"
#include "store/atomic_file.hh"
#include "store/entry_dir.hh"

using namespace pcstall;

namespace
{

struct FarmOptions
{
    unsigned workers = 2;
    unsigned maxRestarts = 2;
    std::string storeDir;
    std::string logDir;
    /** The harness command (argv after "--"). */
    std::vector<std::string> command;
};

/** One worker slot: a shard index plus its process bookkeeping. */
struct Worker
{
    unsigned shard = 0;
    pid_t pid = -1;
    unsigned restarts = 0;
    bool done = false;
    int exitCode = 0;
    std::time_t started = 0;
};

std::string
usage()
{
    return "usage: sweep_farm --workers N --store DIR "
           "[--max-restarts K] [--log-dir DIR] -- <harness> "
           "[args...]\n"
           "       sweep_farm --status --store DIR [--log-dir DIR]";
}

std::string
heartbeatPath(const std::string &log_dir, unsigned shard)
{
    return log_dir + "/worker-" + std::to_string(shard) + ".hb";
}

/**
 * Atomically replace a worker's heartbeat file. key=value lines so
 * --status (and shell scripts) can read it with no parser; the write
 * goes through the store's atomic publication, so a concurrent
 * --status never sees a torn heartbeat.
 */
void
writeHeartbeat(const FarmOptions &opts, const Worker &w)
{
    const char *state = w.done ? (w.exitCode == 0 ? "done" : "failed")
                               : "running";
    std::string body = "schema=pcstall-farm-heartbeat-v1\n";
    body += "shard=" + std::to_string(w.shard) + "\n";
    body += "workers=" + std::to_string(opts.workers) + "\n";
    body += "pid=" + std::to_string(w.pid) + "\n";
    body += std::string("state=") + state + "\n";
    body += "restarts=" + std::to_string(w.restarts) + "\n";
    body += "started_unix=" + std::to_string(w.started) + "\n";
    body += "updated_unix=" +
        std::to_string(std::time(nullptr)) + "\n";
    const std::string err = store::writeFileAtomic(
        heartbeatPath(opts.logDir, w.shard), body);
    if (!err.empty())
        warnLimited("farm-heartbeat", "heartbeat: " + err);
}

/**
 * Spawn one process running @p argv_strings, stdout+stderr appended
 * to @p log_path (empty = inherit the farm's). Returns the pid, or -1
 * with a warn() on failure.
 */
pid_t
spawn(const std::vector<std::string> &argv_strings,
      const std::string &log_path)
{
    std::vector<char *> argv;
    argv.reserve(argv_strings.size() + 1);
    for (const std::string &arg : argv_strings)
        argv.push_back(const_cast<char *>(arg.c_str()));
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0) {
        warn(std::string("fork: ") + std::strerror(errno));
        return -1;
    }
    if (pid > 0)
        return pid;

    // Child. Only async-signal-safe calls until execvp.
    if (!log_path.empty()) {
        const int fd = ::open(log_path.c_str(),
                              O_WRONLY | O_CREAT | O_APPEND, 0644);
        if (fd >= 0) {
            ::dup2(fd, STDOUT_FILENO);
            ::dup2(fd, STDERR_FILENO);
            if (fd > STDERR_FILENO)
                ::close(fd);
        }
    }
    ::execvp(argv[0], argv.data());
    // execvp only returns on failure; 127 is the conventional
    // command-not-found code the parent will report.
    const char msg[] = "sweep_farm: cannot exec harness\n";
    ::write(STDERR_FILENO, msg, sizeof(msg) - 1);
    ::_exit(127);
}

std::vector<std::string>
workerCommand(const FarmOptions &opts, unsigned shard)
{
    std::vector<std::string> cmd = opts.command;
    cmd.push_back("--store");
    cmd.push_back(opts.storeDir);
    cmd.push_back("--shard");
    cmd.push_back(std::to_string(shard) + "/" +
                  std::to_string(opts.workers));
    return cmd;
}

std::string
describeExit(int status)
{
    if (WIFSIGNALED(status)) {
        return std::string("killed by signal ") +
               std::to_string(WTERMSIG(status));
    }
    return "exit code " + std::to_string(WEXITSTATUS(status));
}

int
farmMain(const FarmOptions &opts)
{
    std::error_code ec;
    std::filesystem::create_directories(opts.logDir, ec);

    std::vector<Worker> workers(opts.workers);
    for (unsigned i = 0; i < opts.workers; ++i)
        workers[i].shard = i;

    const auto logPath = [&](const Worker &w) {
        return opts.logDir + "/worker-" + std::to_string(w.shard) +
               ".log";
    };
    const auto launch = [&](Worker &w) {
        w.started = std::time(nullptr);
        w.pid = spawn(workerCommand(opts, w.shard), logPath(w));
        if (w.pid < 0) {
            w.done = true;
            w.exitCode = 1;
            writeHeartbeat(opts, w);
            return;
        }
        inform("worker " + std::to_string(w.shard) + "/" +
               std::to_string(opts.workers) + " started (pid " +
               std::to_string(w.pid) + ", log " + logPath(w) + ")");
        writeHeartbeat(opts, w);
    };

    for (Worker &w : workers)
        launch(w);

    // Reap until every shard is done, restarting dead workers up to
    // the bound. Restarts are cheap by construction: the successor
    // resumes from the store, recomputing only unfinished cells. The
    // wait is non-blocking so the farm can refresh the worker
    // heartbeat files (read by `sweep_farm --status`) about once a
    // second while everything is alive.
    unsigned running = 0;
    for (const Worker &w : workers)
        running += !w.done;
    std::time_t last_beat = std::time(nullptr);
    while (running > 0) {
        int status = 0;
        const pid_t pid = ::waitpid(-1, &status, WNOHANG);
        if (pid < 0 && errno != EINTR && errno != ECHILD) {
            warn(std::string("waitpid: ") + std::strerror(errno));
            break;
        }
        if (pid <= 0) {
            const std::time_t now = std::time(nullptr);
            if (now != last_beat) {
                last_beat = now;
                for (const Worker &w : workers) {
                    if (!w.done)
                        writeHeartbeat(opts, w);
                }
            }
            ::usleep(100'000);
            continue;
        }
        for (Worker &w : workers) {
            if (w.done || w.pid != pid)
                continue;
            if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
                inform("worker " + std::to_string(w.shard) +
                       " finished");
                w.done = true;
                --running;
                writeHeartbeat(opts, w);
            } else if (w.restarts < opts.maxRestarts) {
                ++w.restarts;
                warn("worker " + std::to_string(w.shard) + " died (" +
                     describeExit(status) + "); restart " +
                     std::to_string(w.restarts) + "/" +
                     std::to_string(opts.maxRestarts));
                launch(w);
                if (w.done)
                    --running;
            } else {
                warn("worker " + std::to_string(w.shard) +
                     " gave up (" + describeExit(status) +
                     " after " + std::to_string(w.restarts) +
                     " restart(s))");
                w.done = true;
                w.exitCode = 1;
                --running;
                writeHeartbeat(opts, w);
            }
            break;
        }
    }

    // Merge pass: the same harness, unsharded, stdout inherited. It
    // replays every stored cell in submission order (and computes any
    // stragglers a failed shard left behind), so its output is
    // byte-identical to an uninterrupted single-process run.
    std::vector<std::string> merge = opts.command;
    merge.push_back("--store");
    merge.push_back(opts.storeDir);
    inform("merge pass");
    const pid_t merge_pid = spawn(merge, "");
    if (merge_pid < 0)
        return 1;
    int status = 0;
    while (::waitpid(merge_pid, &status, 0) < 0) {
        if (errno != EINTR) {
            warn(std::string("waitpid: ") + std::strerror(errno));
            return 1;
        }
    }
    int rc = WIFEXITED(status) ? WEXITSTATUS(status) : 1;
    for (const Worker &w : workers) {
        if (w.exitCode != 0 && rc == 0) {
            // The merge recomputed the lost shard's cells itself, but
            // a permanently failing worker still signals trouble.
            warn("a worker shard failed permanently; merge output is "
                 "complete but see worker logs");
        }
    }
    return rc;
}

/**
 * `sweep_farm --status`: summarize a farm (running or finished) from
 * its heartbeat files and the shared store, without disturbing it.
 */
int
statusMain(const FarmOptions &opts)
{
    struct Beat
    {
        std::map<std::string, std::string> kv;
    };
    std::map<unsigned, Beat> beats;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(opts.logDir, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("worker-", 0) != 0 ||
            entry.path().extension() != ".hb")
            continue;
        Beat beat;
        std::ifstream in(entry.path());
        std::string line;
        while (std::getline(in, line)) {
            const std::size_t eq = line.find('=');
            if (eq != std::string::npos)
                beat.kv[line.substr(0, eq)] = line.substr(eq + 1);
        }
        const unsigned shard = static_cast<unsigned>(std::strtoul(
            beat.kv["shard"].c_str(), nullptr, 10));
        beats[shard] = std::move(beat);
    }
    if (ec) {
        warn(opts.logDir + ": " + ec.message());
        return 1;
    }
    if (beats.empty()) {
        std::printf("no worker heartbeats under %s\n",
                    opts.logDir.c_str());
        return 1;
    }

    const std::time_t now = std::time(nullptr);
    std::printf("%-6s %-8s %-8s %-9s %-8s %-10s\n", "shard", "pid",
                "state", "restarts", "beat_age", "log_bytes");
    unsigned running = 0;
    unsigned failed = 0;
    for (const auto &[shard, beat] : beats) {
        const auto field = [&](const char *key) -> std::string {
            const auto it = beat.kv.find(key);
            return it == beat.kv.end() ? "?" : it->second;
        };
        const std::string state = field("state");
        running += state == "running" ? 1 : 0;
        failed += state == "failed" ? 1 : 0;
        const std::time_t updated = static_cast<std::time_t>(
            std::strtoll(field("updated_unix").c_str(), nullptr, 10));
        std::uintmax_t log_bytes = std::filesystem::file_size(
            opts.logDir + "/worker-" + std::to_string(shard) +
                ".log",
            ec);
        if (ec)
            log_bytes = 0;
        std::printf("%-6u %-8s %-8s %-9s %-8s %-10ju\n", shard,
                    field("pid").c_str(), state.c_str(),
                    field("restarts").c_str(),
                    (updated > 0
                         ? std::to_string(std::max<std::time_t>(
                               0, now - updated)) + "s"
                         : "?")
                        .c_str(),
                    log_bytes);
    }

    const std::size_t cells = store::countFiles(opts.storeDir, ".pcres");
    std::printf("%zu worker(s): %u running, %u failed; "
                "%zu cell(s) checkpointed in %s\n",
                beats.size(), running, failed, cells,
                opts.storeDir.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::guardedMain([&]() -> int {
        FarmOptions opts;
        bool status = false;
        int i = 1;
        for (; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--") {
                ++i;
                break;
            }
            const auto value = [&]() -> std::string {
                fatalIf(i + 1 >= argc, arg + " needs a value\n" +
                        usage());
                return argv[++i];
            };
            if (arg == "--workers") {
                opts.workers = static_cast<unsigned>(
                    std::strtoul(value().c_str(), nullptr, 10));
            } else if (arg == "--max-restarts") {
                opts.maxRestarts = static_cast<unsigned>(
                    std::strtoul(value().c_str(), nullptr, 10));
            } else if (arg == "--store") {
                opts.storeDir = value();
            } else if (arg == "--log-dir") {
                opts.logDir = value();
            } else if (arg == "--status") {
                status = true;
            } else if (arg == "--help" || arg == "-h") {
                inform(usage());
                return 0;
            } else {
                fatal("unknown option " + arg + "\n" + usage());
            }
        }
        for (; i < argc; ++i)
            opts.command.push_back(argv[i]);

        fatalIf(opts.storeDir.empty(),
                "--store DIR is required (workers share results "
                "through it)\n" + usage());
        if (opts.logDir.empty())
            opts.logDir = opts.storeDir;
        if (status) {
            fatalIf(!opts.command.empty(),
                    "--status takes no harness command\n" + usage());
            return statusMain(opts);
        }
        fatalIf(opts.command.empty(),
                "no harness command after --\n" + usage());
        fatalIf(opts.workers < 1, "--workers must be >= 1");
        return farmMain(opts);
    });
}
