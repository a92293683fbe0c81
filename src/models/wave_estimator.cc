#include "models/wave_estimator.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/stats_util.hh"

namespace pcstall::models
{

double
contentionFactor(const WaveEstimatorConfig &cfg, std::uint32_t age_rank)
{
    if (!cfg.normalizeAge || cfg.waveSlots <= 1)
        return 1.0;
    const double frac = static_cast<double>(
        std::min(age_rank, cfg.waveSlots - 1)) /
        static_cast<double>(cfg.waveSlots - 1);
    return clampTo(1.0 - cfg.contentionCoeff * frac, 0.05, 1.0);
}

double
waveSensitivity(const gpu::WaveEpochRecord &record,
                const WaveEstimatorConfig &cfg, Tick epoch_len, Freq freq)
{
    panicIf(freq == 0, "waveSensitivity: zero frequency");
    if (epoch_len <= 0 || record.committed == 0)
        return 0.0;

    const double async = std::min<double>(
        static_cast<double>(record.memStall) +
        cfg.barrierWeight * static_cast<double>(record.barrierStall),
        static_cast<double>(epoch_len));
    const double t_core = static_cast<double>(epoch_len) - async;
    return static_cast<double>(record.committed) * t_core /
        (static_cast<double>(epoch_len) * freqGHzD(freq));
}

double
normalizedWaveSensitivity(const gpu::WaveEpochRecord &record,
                          const WaveEstimatorConfig &cfg, Tick epoch_len,
                          Freq freq)
{
    return waveSensitivity(record, cfg, epoch_len, freq) /
        contentionFactor(cfg, record.ageRank);
}

WavePhase
wavePhase(const gpu::WaveEpochRecord &record,
          const WaveEstimatorConfig &cfg, Tick epoch_len, Freq freq)
{
    // I0 = I1 - S * f1 = I1 * T_async / T.
    WavePhase phase;
    phase.sens = waveSensitivity(record, cfg, epoch_len, freq);
    phase.level = std::max(static_cast<double>(record.committed) -
                               phase.sens * freqGHzD(freq),
                           0.0);
    return phase;
}

double
phaseModelInstr(double level, double sens, Freq freq)
{
    return std::max(level + sens * freqGHzD(freq), 0.0);
}

void
phaseModelInstrAt(double level, double sens, const power::VfTable &table,
                  std::span<double> out)
{
    for (std::size_t s = 0; s < out.size(); ++s)
        out[s] = phaseModelInstr(level, sens, table.state(s).freq);
}

} // namespace pcstall::models
