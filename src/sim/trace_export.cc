#include "sim/trace_export.hh"

#include <fstream>

namespace pcstall::sim
{

namespace
{

/** Emit the schema-version comment shared by every exported CSV. */
void
writeSchemaComment(std::ostream &os, const char *kind)
{
    os << "# pcstall-" << kind << "-csv v" << traceCsvSchemaVersion
       << '\n';
}

} // namespace

std::string
csvEscape(const std::string &value)
{
    const bool needs_quoting =
        value.find_first_of(",\"\n\r") != std::string::npos;
    if (!needs_quoting)
        return value;
    std::string out;
    out.reserve(value.size() + 2);
    out.push_back('"');
    for (const char c : value) {
        if (c == '"')
            out.push_back('"');
        out.push_back(c);
    }
    out.push_back('"');
    return out;
}

void
writeRunTraceCsv(std::ostream &os, const RunResult &result,
                 const power::VfTable &table)
{
    writeSchemaComment(os, "run-trace");
    os << "epoch_us,domain,state,freq_ghz,committed\n";
    for (const EpochTraceEntry &entry : result.trace) {
        const double epoch_us = static_cast<double>(entry.start) /
            static_cast<double>(tickUs);
        for (std::size_t d = 0; d < entry.domainState.size(); ++d) {
            const std::size_t state = entry.domainState[d];
            os << epoch_us << ',' << d << ',' << state << ','
               << freqGHzD(table.state(state).freq) << ','
               << entry.domainCommitted[d] << '\n';
        }
    }
}

void
writeProfileCsv(std::ostream &os, const ProfileResult &profile)
{
    writeSchemaComment(os, "profile");
    os << "epoch_us,domain,sensitivity,intercept,r2\n";
    for (const EpochProfile &ep : profile.epochs) {
        const double epoch_us = static_cast<double>(ep.start) /
            static_cast<double>(tickUs);
        for (std::size_t d = 0; d < ep.domains.size(); ++d) {
            os << epoch_us << ',' << d << ','
               << ep.domains[d].sensitivity << ','
               << ep.domains[d].intercept << ','
               << ep.domains[d].r2 << '\n';
        }
    }
}

void
writeWaveProfileCsv(std::ostream &os, const ProfileResult &profile)
{
    writeSchemaComment(os, "wave-profile");
    os << "epoch_us,cu,slot,start_pc_addr,sensitivity,level,age_rank\n";
    for (const EpochProfile &ep : profile.epochs) {
        const double epoch_us = static_cast<double>(ep.start) /
            static_cast<double>(tickUs);
        for (const auto &w : ep.waves) {
            os << epoch_us << ',' << w.cu << ',' << w.slot << ','
               << w.startPcAddr << ',' << w.sensitivity << ','
               << w.level << ',' << w.ageRank << '\n';
        }
    }
}

bool
writeRunTraceCsvFile(const std::string &path, const RunResult &result,
                     const power::VfTable &table)
{
    std::ofstream os(path);
    if (!os)
        return false;
    writeRunTraceCsv(os, result, table);
    return static_cast<bool>(os);
}

} // namespace pcstall::sim
