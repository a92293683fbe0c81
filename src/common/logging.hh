/**
 * @file
 * Minimal gem5-style status/error reporting.
 *
 * panic()  - an internal invariant was violated (simulator bug); aborts.
 * fatal()  - the user asked for something impossible (bad config);
 *            throws FatalError so embedding code (sweep executors,
 *            servers, tests) can contain the failure to one run.
 * warn()   - something is questionable but simulation can continue.
 * inform() - neutral status output.
 *
 * Library code must never terminate the process on a user error: a
 * parallel sweep survives one bad cell only if the error travels as an
 * exception. Harness and tool main()s catch FatalError at top level
 * and turn it into exit code 1 (see bench::guardedMain).
 */

#ifndef PCSTALL_COMMON_LOGGING_HH
#define PCSTALL_COMMON_LOGGING_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace pcstall
{

/** Severity classes used by the logging helpers. */
enum class LogLevel { Debug, Info, Warn, Fatal, Panic };

namespace detail
{
/** Emit one formatted log line to stderr (stdout for Debug/Info). */
void logLine(LogLevel level, const std::string &msg);
} // namespace detail

/**
 * Minimum severity that gets printed (default Info, so debug() is
 * silent unless requested). Fatal and Panic are never suppressed:
 * filtering applies to the *output* only - fatal() still throws and
 * panic() still aborts at any level. Initialized lazily from the
 * PCSTALL_LOG environment variable; --log-level overrides it.
 */
LogLevel logLevel();

/** Set the minimum printed severity. */
void setLogLevel(LogLevel level);

/**
 * Set the level from its CLI/env spelling ("debug", "info", "warn",
 * "error"; "error" shows only fatal/panic). Returns false and leaves
 * the level unchanged when @p name is not one of those.
 */
bool setLogLevelByName(const std::string &name);

/**
 * Thrown by fatal(): an unrecoverable user/configuration error. The
 * message has already been logged when the exception is in flight, so
 * catch sites only decide *scope* (skip one sweep cell, or exit 1 from
 * main) and need not re-print what().
 */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &what_arg)
        : std::runtime_error(what_arg)
    {
    }
};

/** Report an unrecoverable internal error and abort. */
[[noreturn]] void panic(const std::string &msg);

/** Report an unrecoverable user/configuration error and throw
 *  FatalError. Never returns; never calls std::exit. */
[[noreturn]] void fatal(const std::string &msg);

/** Report a suspicious-but-survivable condition. */
void warn(const std::string &msg);

/**
 * Rate-limited warn: at most @p limit lines per (@p key, warn scope)
 * (use a fixed string literal per call site), then one "suppressing
 * further ..." notice. Fault-injection sweeps emit the same
 * transition-failure warning thousands of times; this keeps the first
 * occurrences and the count without drowning the terminal.
 *
 * Limits are scoped per *run*, not per process lifetime: each sweep
 * cell runs inside its own warn scope (obs::ScopedContext pushes one),
 * so a 500-cell sweep reports the first occurrences of a problem in
 * every affected cell rather than only in whichever cell happened to
 * warn first.
 */
void warnLimited(const std::string &key, const std::string &msg,
                 std::uint64_t limit = 10);

/** Number of warnLimited() calls suppressed for @p key in the current
 *  warn scope so far. */
std::uint64_t suppressedWarnCount(const std::string &key);

/**
 * Enter a fresh warn-rate-limit scope on this thread and return the
 * previous scope's id for popWarnScope(). Every run boundary
 * (obs::ScopedContext) pushes a scope so warnLimited() tallies are
 * per-(site, run); scope 0 is the process-wide default.
 */
std::uint64_t pushWarnScope();

/** Restore the warn scope @p previous (from pushWarnScope()). */
void popWarnScope(std::uint64_t previous);

/** Test hook: clear all warnLimited() per-(key, scope) tallies. */
void resetWarnLimits();

/** Report neutral status information. */
void inform(const std::string &msg);

/** Verbose diagnostic output; silent unless logLevel() is Debug. */
void debug(const std::string &msg);

/**
 * Abort with a message when @p cond is true - i.e. @p cond asserts
 * the *failure*, not the invariant (always on, unlike assert).
 */
inline void
panicIf(bool cond, const std::string &msg)
{
    if (cond)
        panic(msg);
}

/**
 * panicIf() for a literal message: builds the std::string only on
 * failure, so a passing check on a hot path allocates nothing (the
 * std::string overload constructs its argument on every call).
 */
inline void
panicIf(bool cond, const char *msg)
{
    if (cond)
        panic(msg);
}

/**
 * True in builds that compile in the simulator's self-checks (oracle
 * restore fingerprints, the timing model's derived-state shadow
 * checks): Debug builds and any build configured with
 * -DPCSTALL_VERIFY=ON.
 */
#if defined(PCSTALL_VERIFY) || !defined(NDEBUG)
inline constexpr bool verifyBuild = true;
#else
inline constexpr bool verifyBuild = false;
#endif

/** Throw FatalError with a message when @p cond is true (see panicIf). */
inline void
fatalIf(bool cond, const std::string &msg)
{
    if (cond)
        fatal(msg);
}

/** fatalIf() for a literal message (see the const char * panicIf). */
inline void
fatalIf(bool cond, const char *msg)
{
    if (cond)
        fatal(msg);
}

} // namespace pcstall

#endif // PCSTALL_COMMON_LOGGING_HH
