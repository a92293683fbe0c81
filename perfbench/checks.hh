/**
 * @file
 * The output checks behind the benchmark's fail_ratio and digest:
 * bit-exact RunResult identity, taken through the results store's cell
 * codec (which round-trips every field, doubles as IEEE-754 bits, the
 * per-epoch trace included), an order-sensitive digest over a sweep's
 * results, and the simulated CU-cycles of a run.
 */

#ifndef PERFBENCH_CHECKS_HH
#define PERFBENCH_CHECKS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/experiment.hh"

namespace pcstall::perfbench
{

/** Every field of @p result as bytes. */
std::string resultImage(const sim::RunResult &result);

/** Empty when @p got reproduces @p want bit for bit, else a reason. */
std::string mismatch(const sim::RunResult &want,
                     const sim::RunResult &got);

/** Why a delivered cell failed before any comparison (it threw, or it
 *  stopped at RunConfig::maxSimTime); empty when it did neither. */
std::string cellProblem(bool ok, const std::string &error,
                        const sim::RunResult &result);

/** FNV-1a 64 over result images, in the order added. */
class Digest
{
  public:
    void add(const sim::RunResult &result);
    std::string hex() const;

  private:
    std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

/** Simulated CU-cycles: @p num_cus x simulated seconds x the
 *  residency-weighted clock of the paper's V/f table. */
double cuCycles(const sim::RunResult &result, std::uint32_t num_cus);

/** Attempted and failed cells: the benchmark's fail_ratio. */
class FailTally
{
  public:
    /** Count one attempted cell; a non-empty @p why marks it failed. */
    void record(const std::string &label, const std::string &why);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    double ratio() const;

    /** The first few failures, as "label: why". */
    const std::vector<std::string> &failures() const { return failures_; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> failures_;
};

} // namespace pcstall::perfbench

#endif // PERFBENCH_CHECKS_HH
