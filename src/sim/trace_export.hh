/**
 * @file
 * CSV export of run traces and sensitivity profiles, for plotting
 * pipelines (matplotlib/gnuplot) outside the simulator. Complements
 * the aligned-table output of the bench harnesses.
 */

#ifndef PCSTALL_SIM_TRACE_EXPORT_HH
#define PCSTALL_SIM_TRACE_EXPORT_HH

#include <ostream>
#include <string>

#include "power/vf_table.hh"
#include "sim/experiment.hh"
#include "sim/profiler.hh"

namespace pcstall::sim
{

/**
 * Schema version stamped into every exported CSV as a leading comment
 * line (`# pcstall-<kind>-csv v<N>`). Consumers that parse these files
 * (tools/plot_traces.py, external notebooks) should skip lines starting
 * with '#' and may use the comment to detect column-set changes.
 */
inline constexpr int traceCsvSchemaVersion = 1;

/**
 * Escape a value for use as a single CSV field. Fields containing the
 * separator (','), double quotes, or line breaks are wrapped in double
 * quotes with embedded quotes doubled (RFC 4180); anything else is
 * returned unchanged. Use for free-form string fields (workload or
 * controller names) so a stray comma cannot corrupt the column layout.
 */
std::string csvEscape(const std::string &value);

/**
 * Write a run's per-epoch trace as CSV:
 * epoch_us, domain, state, freq_ghz, committed.
 * Requires the run to have been collected with
 * RunConfig::collectTrace = true.
 */
void writeRunTraceCsv(std::ostream &os, const RunResult &result,
                      const power::VfTable &table);

/**
 * Write a sensitivity profile as CSV:
 * epoch_us, domain, sensitivity, intercept, r2.
 */
void writeProfileCsv(std::ostream &os, const ProfileResult &profile);

/**
 * Write the per-wavefront sensitivities of a profile as CSV:
 * epoch_us, cu, slot, start_pc_addr, sensitivity, level, age_rank.
 */
void writeWaveProfileCsv(std::ostream &os,
                         const ProfileResult &profile);

/** Convenience: write to a file path; returns false on I/O error. */
bool writeRunTraceCsvFile(const std::string &path,
                          const RunResult &result,
                          const power::VfTable &table);

} // namespace pcstall::sim

#endif // PCSTALL_SIM_TRACE_EXPORT_HH
