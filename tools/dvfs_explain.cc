/**
 * @file
 * dvfs_explain: decision-provenance inspector (docs/provenance.md).
 *
 *   dvfs_explain explain <file> [--epoch N] [--limit N] [--worst N]
 *                                        per-epoch "why this
 *                                        frequency" explanations
 *   dvfs_explain summary <file>          regret rollup, hit rates,
 *                                        per-state residency
 *                                        attribution, per-PC
 *                                        prediction-error breakdown
 *   dvfs_explain cdf     <file>          relative-oracle-regret CDF
 *   dvfs_explain csv     <file> [--out F] per-(epoch, domain) CSV
 *   dvfs_explain json    <file> [--out F] full JSON dump
 *   dvfs_explain verify  <pcpv> <trace>  re-derive the trace's
 *                                        provenance and byte-compare
 *                                        it against the sidecar
 *
 * <file> is either a PCPV provenance sidecar (--provenance-out) or a
 * PCTR epoch trace: a trace is replayed through trace::ReplayDriver
 * with a provenance sink armed, re-deriving the identical record
 * stream the live run would have produced (the property `verify`
 * checks bit-for-bit). Exit status: 0 on success / sidecar matches,
 * 1 otherwise.
 */

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/logging.hh"
#include "harness.hh"
#include "obs/provenance.hh"
#include "store/atomic_file.hh"
#include "trace/format.hh"
#include "trace/replay.hh"
#include "trace/sealed.hh"

using namespace pcstall;

namespace
{

int
usage()
{
    std::fprintf(
        stderr,
        "usage: dvfs_explain <command> <file> [options]\n"
        "  explain <file> [--epoch N] [--limit N] [--worst N]\n"
        "                             per-epoch decision explanations\n"
        "                             (default: first 20; --worst N\n"
        "                             ranks by oracle regret)\n"
        "  summary <file>             regret rollup, hit rates,\n"
        "                             residency and per-PC breakdown\n"
        "  cdf     <file>             relative oracle-regret CDF\n"
        "  csv     <file> [--out F]   per-(epoch, domain) CSV export\n"
        "  json    <file> [--out F]   full JSON dump\n"
        "  verify  <pcpv> <trace> [--controller C]\n"
        "                             re-derive provenance from the\n"
        "                             trace, byte-compare vs sidecar\n"
        "<file> may be a PCPV sidecar or a PCTR epoch trace (the\n"
        "trace is replayed to re-derive its provenance).\n");
    return 2;
}

/** True when @p path starts with the 4-byte PCPV magic. */
bool
isProvenanceFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    char magic[4] = {};
    in.read(magic, 4);
    return in.gcount() == 4 && std::memcmp(magic, "PCPV", 4) == 0;
}

/**
 * Re-derive a trace's provenance: rebuild the captured controller
 * (same reconstruction rules as `trace_inspect replay`, including the
 * recorded power-cap wrapper for "NAME+CAP" designs), replay the
 * trace with a provenance sink armed, and return the log. Identical
 * bytes to the live run's sidecar - the contract `verify` and
 * tests/test_provenance.cc pin down.
 */
obs::ProvenanceLog
deriveFromTrace(const std::string &path, std::string design)
{
    trace::TraceReadResult read = trace::readTraceFile(path);
    if (!read.ok())
        fatal(read.error);
    const trace::TraceData &data = *read.trace;
    if (design.empty())
        design = data.meta.controller;

    const bench::ReplayController rc =
        bench::makeReplayController(data.meta, design);

    obs::ProvenanceLog log;
    trace::ReplayDriver replayer(data);
    trace::ReplayOptions ropts;
    ropts.verifyDecisions = false;
    ropts.auditRegret = true;
    ropts.provenance = &log;
    const trace::ReplayOutcome outcome = replayer.run(*rc.use, ropts);
    if (!outcome.ok())
        fatal(outcome.error);
    return log;
}

/** Load @p path as provenance: PCPV directly, PCTR via replay. */
obs::ProvenanceLog
loadLog(const std::string &path, const std::string &design)
{
    if (isProvenanceFile(path)) {
        obs::ProvenanceReadResult read =
            obs::readProvenanceFile(path);
        if (!read.ok())
            fatal(path + ": " + read.error);
        return std::move(*read.log);
    }
    return deriveFromTrace(path, design);
}

std::string
freqStr(const obs::ProvenanceMeta &meta, std::size_t state)
{
    if (state >= meta.stateFreqMhz.size())
        return "state " + std::to_string(state);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f GHz",
                  static_cast<double>(meta.stateFreqMhz[state]) /
                      1000.0);
    return buf;
}

void
printRecord(const obs::ProvenanceMeta &meta,
            const obs::DecisionRecord &rec)
{
    const double t_us = static_cast<double>(rec.start) /
        static_cast<double>(tickUs);
    std::printf("epoch %" PRIu64 " @ %.3fus%s:", rec.epoch, t_us,
                rec.fallbackActive ? " [fallback]" : "");
    if (rec.realized) {
        std::printf(" regret %+.2f%% vs oracle, %+.2f%% vs static\n",
                    100.0 * rec.oracleRegretRel(),
                    100.0 * rec.staticRegretRel());
    } else {
        std::printf(" (unrealized: the decided epoch never"
                    " completed)\n");
    }
    for (std::size_t d = 0; d < rec.domains.size(); ++d) {
        const obs::DomainDecisionProv &dom = rec.domains[d];
        std::printf("  domain %zu: ", d);
        if (dom.pcKey != 0 || dom.lookups > 0) {
            std::printf("PC 0x%" PRIx64 " %s %u/%u", dom.pcKey,
                        dom.hits == dom.lookups && dom.lookups > 0
                            ? "hit" : "hits",
                        dom.hits, dom.lookups);
            if (dom.sameRegion > 0)
                std::printf(" (+%u same-region)", dom.sameRegion);
            if (dom.reactive > 0)
                std::printf(" (%u reactive)", dom.reactive);
            std::printf(", sens %.3f", dom.predictedSens);
        } else {
            std::printf("no table lookup (stall %" PRIu64
                        " ticks, %" PRIu64 " mem acc)",
                        dom.loadStallTicks, dom.memAccesses);
        }
        std::printf(", chose %s",
                    freqStr(meta, dom.chosenState).c_str());
        if (dom.appliedState != dom.chosenState) {
            std::printf(" (applied %s)",
                        freqStr(meta, dom.appliedState).c_str());
        }
        if (rec.realized) {
            std::printf(", best %s",
                        freqStr(meta, dom.bestState).c_str());
            if (dom.predictedInstr >= 0.0) {
                std::printf(", predicted %.0f instr got %" PRIu64,
                            dom.predictedInstr, dom.realizedInstr);
            } else {
                std::printf(", got %" PRIu64 " instr",
                            dom.realizedInstr);
            }
        }
        std::printf("\n");
    }
}

int
cmdExplain(const obs::ProvenanceLog &log, const CliOptions &cli)
{
    if (cli.has("epoch")) {
        const std::uint64_t want = static_cast<std::uint64_t>(
            cli.getInt("epoch", 0));
        for (const obs::DecisionRecord &rec : log.records) {
            if (rec.epoch == want) {
                printRecord(log.meta, rec);
                return 0;
            }
        }
        std::fprintf(stderr,
                     "epoch %" PRIu64 " has no decision record "
                     "(%zu recorded)\n",
                     want, log.records.size());
        return 1;
    }
    if (cli.has("worst")) {
        const std::size_t n = static_cast<std::size_t>(
            std::max<std::int64_t>(1, cli.getInt("worst", 10)));
        // Rank realized decisions by relative oracle regret; ties
        // break on epoch so the listing is deterministic.
        std::vector<const obs::DecisionRecord *> ranked;
        for (const obs::DecisionRecord &rec : log.records) {
            if (rec.realized)
                ranked.push_back(&rec);
        }
        std::sort(ranked.begin(), ranked.end(),
                  [](const obs::DecisionRecord *a,
                     const obs::DecisionRecord *b) {
                      const double ra = a->oracleRegretRel();
                      const double rb = b->oracleRegretRel();
                      if (ra != rb)
                          return ra > rb;
                      return a->epoch < b->epoch;
                  });
        if (ranked.size() > n)
            ranked.resize(n);
        std::printf("%zu highest-regret decisions of %s under %s:\n",
                    ranked.size(), log.meta.workload.c_str(),
                    log.meta.controller.c_str());
        for (const obs::DecisionRecord *rec : ranked)
            printRecord(log.meta, *rec);
        return 0;
    }
    const std::size_t limit = static_cast<std::size_t>(
        std::max<std::int64_t>(1, cli.getInt("limit", 20)));
    for (std::size_t i = 0; i < log.records.size() && i < limit; ++i)
        printRecord(log.meta, log.records[i]);
    if (log.records.size() > limit) {
        std::printf("... and %zu more (use --limit, --worst or "
                    "--epoch)\n",
                    log.records.size() - limit);
    }
    return 0;
}

int
cmdSummary(const obs::ProvenanceLog &log)
{
    const obs::ProvenanceMeta &meta = log.meta;
    std::printf("workload:    %s\n", meta.workload.c_str());
    std::printf("controller:  %s\n", meta.controller.c_str());
    std::printf("objective:   %s\n", meta.objective.c_str());
    std::printf("geometry:    %u domain(s), %u V/f states, nominal "
                "%s\n",
                meta.numDomains, meta.numStates,
                freqStr(meta, meta.nominalState).c_str());
    std::printf("epoch len:   %.3f us\n",
                static_cast<double>(meta.epochLen) /
                    static_cast<double>(tickUs));

    std::size_t realized = 0;
    std::size_t fallback = 0;
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t same_region = 0;
    std::uint64_t reactive = 0;
    for (const obs::DecisionRecord &rec : log.records) {
        realized += rec.realized ? 1 : 0;
        fallback += rec.fallbackActive ? 1 : 0;
        for (const obs::DomainDecisionProv &dom : rec.domains) {
            lookups += dom.lookups;
            hits += dom.hits;
            same_region += dom.sameRegion;
            reactive += dom.reactive;
        }
    }
    std::printf("decisions:   %zu recorded, %zu realized, %zu under "
                "fallback\n",
                log.records.size(), realized, fallback);
    if (lookups > 0) {
        std::printf("pc table:    %" PRIu64 " lookups, %.1f%% hit "
                    "(%" PRIu64 " same-region, %" PRIu64
                    " reactive)\n",
                    lookups,
                    100.0 * static_cast<double>(hits) /
                        static_cast<double>(lookups),
                    same_region, reactive);
    }
    const obs::RegretSummary &reg = log.regret;
    if (!reg.empty()) {
        std::printf("regret:      mean %+.3f%% / p95 %.3f%% / max "
                    "%.3f%% vs oracle; mean %+.3f%% vs static "
                    "(%" PRIu64 " decisions)\n",
                    100.0 * reg.meanOracle(),
                    100.0 * reg.percentile(0.95),
                    100.0 * reg.oracleMax, 100.0 * reg.meanStatic(),
                    reg.count);
    }

    // Per-state residency attribution over realized domain-epochs:
    // how often each state was chosen, how often it was the oracle's
    // pick, and the mean regret borne while running there.
    struct StateRow
    {
        std::uint64_t chosen = 0;
        std::uint64_t applied = 0;
        std::uint64_t best = 0;
        double regretSum = 0.0;
    };
    std::vector<StateRow> states(meta.numStates);
    std::uint64_t domain_epochs = 0;
    for (const obs::DecisionRecord &rec : log.records) {
        if (!rec.realized)
            continue;
        for (const obs::DomainDecisionProv &dom : rec.domains) {
            if (dom.chosenState >= states.size() ||
                dom.appliedState >= states.size() ||
                dom.bestState >= states.size())
                continue;
            ++domain_epochs;
            ++states[dom.chosenState].chosen;
            ++states[dom.appliedState].applied;
            ++states[dom.bestState].best;
            states[dom.appliedState].regretSum +=
                rec.oracleRegretRel();
        }
    }
    if (domain_epochs > 0) {
        std::printf("\nper-state residency attribution "
                    "(%% of realized domain-epochs):\n");
        std::printf("  %-10s %8s %8s %8s %12s\n", "state", "chosen",
                    "applied", "oracle", "mean_regret");
        for (std::size_t s = 0; s < states.size(); ++s) {
            const StateRow &row = states[s];
            if (row.chosen == 0 && row.applied == 0 && row.best == 0)
                continue;
            const double denom =
                static_cast<double>(domain_epochs);
            std::printf("  %-10s %7.1f%% %7.1f%% %7.1f%% %11.3f%%\n",
                        freqStr(meta, s).c_str(),
                        100.0 * static_cast<double>(row.chosen) /
                            denom,
                        100.0 * static_cast<double>(row.applied) /
                            denom,
                        100.0 * static_cast<double>(row.best) /
                            denom,
                        row.applied > 0
                            ? 100.0 * row.regretSum /
                                static_cast<double>(row.applied)
                            : 0.0);
        }
    }

    // Per-PC prediction-error breakdown: which table keys mispredict.
    struct PcRow
    {
        std::uint64_t decisions = 0;
        std::uint64_t lookups = 0;
        std::uint64_t hits = 0;
        std::uint64_t predicted = 0;
        double errSum = 0.0;
        double regretSum = 0.0;
    };
    std::map<std::uint64_t, PcRow> by_pc;
    for (const obs::DecisionRecord &rec : log.records) {
        for (const obs::DomainDecisionProv &dom : rec.domains) {
            if (dom.pcKey == 0)
                continue;
            PcRow &row = by_pc[dom.pcKey];
            ++row.decisions;
            row.lookups += dom.lookups;
            row.hits += dom.hits;
            if (rec.realized) {
                row.regretSum += rec.oracleRegretRel();
                if (dom.predictedInstr >= 0.0 &&
                    dom.realizedInstr > 0) {
                    ++row.predicted;
                    row.errSum +=
                        std::fabs(dom.predictedInstr -
                                  static_cast<double>(
                                      dom.realizedInstr)) /
                        static_cast<double>(dom.realizedInstr);
                }
            }
        }
    }
    if (!by_pc.empty()) {
        std::vector<std::pair<std::uint64_t, PcRow>> ranked(
            by_pc.begin(), by_pc.end());
        std::sort(ranked.begin(), ranked.end(),
                  [](const auto &a, const auto &b) {
                      if (a.second.decisions != b.second.decisions)
                          return a.second.decisions >
                              b.second.decisions;
                      return a.first < b.first;
                  });
        const std::size_t show = std::min<std::size_t>(
            ranked.size(), 10);
        std::printf("\nper-PC prediction error (top %zu of %zu "
                    "keys):\n",
                    show, ranked.size());
        std::printf("  %-18s %8s %8s %12s %12s\n", "pc", "epochs",
                    "hit%", "mean_err", "mean_regret");
        for (std::size_t i = 0; i < show; ++i) {
            const PcRow &row = ranked[i].second;
            char pc[24];
            std::snprintf(pc, sizeof(pc), "0x%" PRIx64,
                          ranked[i].first);
            std::printf(
                "  %-18s %8" PRIu64 " %7.1f%% %11.2f%% %11.3f%%\n",
                pc, row.decisions,
                row.lookups > 0
                    ? 100.0 * static_cast<double>(row.hits) /
                        static_cast<double>(row.lookups)
                    : 0.0,
                row.predicted > 0
                    ? 100.0 * row.errSum /
                        static_cast<double>(row.predicted)
                    : 0.0,
                row.decisions > 0
                    ? 100.0 * row.regretSum /
                        static_cast<double>(row.decisions)
                    : 0.0);
        }
    }
    return 0;
}

int
cmdCdf(const obs::ProvenanceLog &log)
{
    std::vector<double> regrets;
    for (const obs::DecisionRecord &rec : log.records) {
        if (rec.realized)
            regrets.push_back(rec.oracleRegretRel());
    }
    if (regrets.empty()) {
        std::printf("no realized decisions\n");
        return 0;
    }
    std::sort(regrets.begin(), regrets.end());
    std::printf("relative oracle regret CDF (%zu decisions):\n",
                regrets.size());
    std::printf("  %-6s %12s\n", "pct", "regret");
    for (const int pct : {5,  10, 25, 50, 75, 90, 95, 99, 100}) {
        const std::size_t idx = std::min(
            regrets.size() - 1,
            static_cast<std::size_t>(
                static_cast<double>(pct) / 100.0 *
                static_cast<double>(regrets.size())));
        std::printf("  p%-5d %11.4f%%\n", pct, 100.0 * regrets[idx]);
    }
    return 0;
}

/** Print to stdout or atomically publish to --out. */
int
emitDocument(const std::string &doc, const CliOptions &cli)
{
    const std::string out = cli.get("out", "");
    if (out.empty()) {
        std::fwrite(doc.data(), 1, doc.size(), stdout);
        return 0;
    }
    const std::string err = store::writeFileAtomic(out, doc);
    if (!err.empty())
        fatal("--out: " + err);
    return 0;
}

int
cmdCsv(const obs::ProvenanceLog &log, const CliOptions &cli)
{
    std::string doc = "# pcstall-provenance-csv v1\n"
        "epoch,t_us,domain,fallback,realized,pc_key,lookups,hits,"
        "same_region,reactive,pred_sens,pred_level,pred_instr,"
        "elapsed_instr,load_stall_ticks,mem_accesses,chosen_state,"
        "applied_state,realized_instr,chosen_score,best_score,"
        "best_state,nominal_score,oracle_regret_rel,"
        "static_regret_rel\n";
    char buf[512];
    for (const obs::DecisionRecord &rec : log.records) {
        // The regret columns are record-level (chip sums), repeated
        // on every domain row of the epoch.
        const double oracle =
            rec.realized ? rec.oracleRegretRel() : 0.0;
        const double stat =
            rec.realized ? rec.staticRegretRel() : 0.0;
        for (std::size_t d = 0; d < rec.domains.size(); ++d) {
            const obs::DomainDecisionProv &dom = rec.domains[d];
            std::snprintf(
                buf, sizeof(buf),
                "%" PRIu64 ",%.3f,%zu,%d,%d,0x%" PRIx64
                ",%u,%u,%u,%u,%.6f,%.6f,%.6f,%" PRIu64 ",%" PRIu64
                ",%" PRIu64 ",%u,%u,%" PRIu64
                ",%.9g,%.9g,%u,%.9g,%.9g,%.9g\n",
                rec.epoch,
                static_cast<double>(rec.start) /
                    static_cast<double>(tickUs),
                d, rec.fallbackActive ? 1 : 0, rec.realized ? 1 : 0,
                dom.pcKey, dom.lookups, dom.hits, dom.sameRegion,
                dom.reactive, dom.predictedSens, dom.predictedLevel,
                dom.predictedInstr, dom.elapsedInstr,
                dom.loadStallTicks, dom.memAccesses,
                static_cast<unsigned>(dom.chosenState),
                static_cast<unsigned>(dom.appliedState),
                dom.realizedInstr, dom.chosenScore, dom.bestScore,
                static_cast<unsigned>(dom.bestState),
                dom.nominalScore, oracle, stat);
            doc += buf;
        }
    }
    return emitDocument(doc, cli);
}

std::string
jsonNumber(double value, const char *fmt = "%.9g")
{
    if (!std::isfinite(value))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), fmt, value);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    out += '"';
    return out;
}

int
cmdJson(const obs::ProvenanceLog &log, const CliOptions &cli)
{
    const obs::ProvenanceMeta &meta = log.meta;
    std::string doc = "{\n  \"schema\": \"pcstall-provenance-v1\",\n";
    doc += "  \"meta\": {\"workload\": " + jsonString(meta.workload) +
        ", \"controller\": " + jsonString(meta.controller) +
        ", \"objective\": " + jsonString(meta.objective) +
        ", \"epoch_len_ticks\": " + std::to_string(meta.epochLen) +
        ", \"domains\": " + std::to_string(meta.numDomains) +
        ", \"nominal_state\": " + std::to_string(meta.nominalState) +
        ", \"state_freq_mhz\": [";
    for (std::size_t s = 0; s < meta.stateFreqMhz.size(); ++s) {
        doc += (s != 0 ? ", " : "") +
            std::to_string(meta.stateFreqMhz[s]);
    }
    doc += "]},\n";
    const obs::RegretSummary &reg = log.regret;
    doc += "  \"regret\": {\"decisions\": " +
        std::to_string(reg.count) +
        ", \"mean_oracle\": " + jsonNumber(reg.meanOracle()) +
        ", \"p95_oracle\": " + jsonNumber(reg.percentile(0.95)) +
        ", \"max_oracle\": " + jsonNumber(reg.oracleMax) +
        ", \"mean_static\": " + jsonNumber(reg.meanStatic()) +
        "},\n  \"records\": [\n";
    for (std::size_t i = 0; i < log.records.size(); ++i) {
        const obs::DecisionRecord &rec = log.records[i];
        doc += "    {\"epoch\": " + std::to_string(rec.epoch) +
            ", \"start\": " + std::to_string(rec.start) +
            ", \"fallback\": " +
            (rec.fallbackActive ? "true" : "false") +
            ", \"realized\": " + (rec.realized ? "true" : "false");
        if (rec.realized) {
            doc += ", \"oracle_regret_rel\": " +
                jsonNumber(rec.oracleRegretRel()) +
                ", \"static_regret_rel\": " +
                jsonNumber(rec.staticRegretRel());
        }
        doc += ", \"domains\": [";
        for (std::size_t d = 0; d < rec.domains.size(); ++d) {
            const obs::DomainDecisionProv &dom = rec.domains[d];
            char pc[24];
            std::snprintf(pc, sizeof(pc), "0x%" PRIx64, dom.pcKey);
            doc += std::string(d != 0 ? ", " : "") +
                "{\"pc\": \"" + pc +
                "\", \"lookups\": " + std::to_string(dom.lookups) +
                ", \"hits\": " + std::to_string(dom.hits) +
                ", \"same_region\": " +
                std::to_string(dom.sameRegion) +
                ", \"reactive\": " + std::to_string(dom.reactive) +
                ", \"pred_sens\": " + jsonNumber(dom.predictedSens) +
                ", \"pred_level\": " +
                jsonNumber(dom.predictedLevel) +
                ", \"pred_instr\": " +
                jsonNumber(dom.predictedInstr) +
                ", \"elapsed_instr\": " +
                std::to_string(dom.elapsedInstr) +
                ", \"load_stall_ticks\": " +
                std::to_string(dom.loadStallTicks) +
                ", \"mem_accesses\": " +
                std::to_string(dom.memAccesses) +
                ", \"chosen_state\": " +
                std::to_string(dom.chosenState) +
                ", \"applied_state\": " +
                std::to_string(dom.appliedState);
            if (rec.realized) {
                doc += ", \"realized_instr\": " +
                    std::to_string(dom.realizedInstr) +
                    ", \"chosen_score\": " +
                    jsonNumber(dom.chosenScore) +
                    ", \"best_score\": " +
                    jsonNumber(dom.bestScore) +
                    ", \"best_state\": " +
                    std::to_string(dom.bestState) +
                    ", \"nominal_score\": " +
                    jsonNumber(dom.nominalScore);
            }
            doc += "}";
        }
        doc += "], \"state_scores\": [";
        for (std::size_t s = 0; s < rec.stateScores.size(); ++s) {
            doc += (s != 0 ? ", " : "") +
                jsonNumber(rec.stateScores[s]);
        }
        doc += "]}";
        doc += i + 1 != log.records.size() ? ",\n" : "\n";
    }
    doc += "  ]\n}\n";
    return emitDocument(doc, cli);
}

int
cmdVerify(const std::string &pcpv_path, const std::string &trace_path,
          const CliOptions &cli)
{
    std::string sidecar;
    if (!trace::readFile(pcpv_path, sidecar))
        fatal("cannot read '" + pcpv_path + "'");
    // Decode first: a corrupt sidecar should report *as* corrupt, not
    // as a mismatch against the re-derivation.
    obs::ProvenanceReadResult decoded = obs::decodeProvenance(sidecar);
    if (!decoded.ok())
        fatal(pcpv_path + ": " + decoded.error);

    const obs::ProvenanceLog derived =
        deriveFromTrace(trace_path, cli.get("controller", ""));
    const std::string rebuilt = obs::encodeProvenance(derived);
    if (rebuilt == sidecar) {
        std::printf("provenance verified: replay re-derives the "
                    "sidecar byte-for-byte (%zu records, %zu "
                    "bytes)\n",
                    derived.records.size(), sidecar.size());
        return 0;
    }
    std::printf("provenance MISMATCH: re-derived stream differs "
                "from the sidecar (%zu vs %zu bytes, %zu vs %zu "
                "records)\n",
                rebuilt.size(), sidecar.size(),
                derived.records.size(), decoded.log->records.size());
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::guardedMain([&]() -> int {
        if (argc < 3)
            return usage();
        const std::string cmd = argv[1];
        const std::string path = argv[2];
        CliOptions cli(argc - 2, argv + 2);
        if (cmd == "verify") {
            if (argc < 4)
                return usage();
            return cmdVerify(path, argv[3], cli);
        }
        if (cmd != "explain" && cmd != "summary" && cmd != "cdf" &&
            cmd != "csv" && cmd != "json")
            return usage();
        const obs::ProvenanceLog log =
            loadLog(path, cli.get("controller", ""));
        if (cmd == "explain")
            return cmdExplain(log, cli);
        if (cmd == "summary")
            return cmdSummary(log);
        if (cmd == "cdf")
            return cmdCdf(log);
        if (cmd == "csv")
            return cmdCsv(log, cli);
        return cmdJson(log, cli);
    });
}
