/**
 * @file
 * Divergence localizer: name the first divergent chunk.
 *
 * Given the recorded and replayed execution fingerprints, build
 * periodic interval fingerprints (prefix hashes of the commit stream,
 * core/fingerprint.hpp) and binary-search over interval boundaries
 * for the last boundary where the two streams still agree — the
 * software analogue of bisecting between periodic hardware
 * checkpoints (Appendix B). Only the final partial interval is then
 * scanned element-wise, so localization costs O(log n) boundary
 * probes plus one interval, not a full-stream walk.
 *
 * When the Recording is supplied, the divergent commit is traced back
 * to the log record that drove it: the PI entry for flat-log modes,
 * the stratum for stratified recordings (where the global order is
 * not canonical and per-processor streams are compared instead), or
 * the predefined round-robin order for PicoLog.
 */

#ifndef DELOREAN_VALIDATE_LOCALIZER_HPP_
#define DELOREAN_VALIDATE_LOCALIZER_HPP_

#include <cstdint>

#include "core/recording.hpp"
#include "validate/divergence.hpp"

namespace delorean
{

/** Localizer tuning. */
struct LocalizerOptions
{
    /// Commits per interval fingerprint (binary-search granularity).
    std::uint64_t period = 64;
    /// Interval replay: the checkpoint the compared streams start at
    /// (null: GCC 0). Reports then give global commit numbers and name
    /// the log record counted from the start of the log.
    const SystemCheckpoint *start = nullptr;
};

/**
 * Compare @p recorded against @p replayed and return a report naming
 * the first divergence. Returns kind kNone when the fingerprints
 * match (exactly, or per-processor when @p rec is stratified).
 * @p rec may be null; it is only used to attribute the divergent
 * commit to a log record.
 */
DivergenceReport
localizeDivergence(const ExecutionFingerprint &recorded,
                   const ExecutionFingerprint &replayed,
                   const Recording *rec,
                   const LocalizerOptions &opts = {});

} // namespace delorean

#endif // DELOREAN_VALIDATE_LOCALIZER_HPP_
