#include "checks.hh"

#include <cstdio>

#include "power/vf_table.hh"
#include "store/cell_codec.hh"

namespace pcstall::perfbench
{

std::string
resultImage(const sim::RunResult &result)
{
    store::StoredCell cell;
    cell.run.result = result;
    cell.run.ok = true;
    return store::encodeStoredCell(cell);
}

std::string
mismatch(const sim::RunResult &want, const sim::RunResult &got)
{
    if (resultImage(want) == resultImage(got))
        return "";
    return "result differs from its reference (" +
        std::to_string(got.epochs) + " vs " +
        std::to_string(want.epochs) + " epochs, exec " +
        std::to_string(got.execTime) + " vs " +
        std::to_string(want.execTime) + " ps)";
}

std::string
cellProblem(bool ok, const std::string &error,
            const sim::RunResult &result)
{
    if (!ok)
        return error.empty() ? "cell failed" : error;
    if (!result.completed)
        return "hit the simulation wall (RunConfig::maxSimTime)";
    return "";
}

void
Digest::add(const sim::RunResult &result)
{
    for (const char c : resultImage(result)) {
        hash_ ^= static_cast<unsigned char>(c);
        hash_ *= 0x100000001B3ULL;
    }
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
}

double
cuCycles(const sim::RunResult &result, std::uint32_t num_cus)
{
    static const power::VfTable table = power::VfTable::paperTable();
    double clock_hz = 0.0;
    for (std::size_t s = 0;
         s < result.freqTimeShare.size() && s < table.numStates(); ++s) {
        clock_hz += result.freqTimeShare[s] *
            static_cast<double>(table.state(s).freq);
    }
    return num_cus * tickSeconds(result.execTime) * clock_hz;
}

void
FailTally::record(const std::string &label, const std::string &why)
{
    ++attempted_;
    if (why.empty())
        return;
    ++failed_;
    if (failures_.size() < 10)
        failures_.push_back(label + ": " + why);
}

double
FailTally::ratio() const
{
    return attempted_ == 0
        ? 0.0
        : static_cast<double>(failed_) / static_cast<double>(attempted_);
}

} // namespace pcstall::perfbench
