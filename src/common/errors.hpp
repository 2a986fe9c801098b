/**
 * @file
 * Typed error hierarchy for log parsing and replay.
 *
 * DeLorean's promise is that replaying a log either reproduces the
 * recorded execution or tells you precisely why it cannot. That
 * requires every failure path — a truncated file, an out-of-range
 * record field, a log that runs dry mid-replay, a replay that stalls —
 * to surface as a *typed* exception the validation layer can classify,
 * never as an assert, UB, or an unbounded simulation. The validate/
 * subsystem (DivergenceReport) maps each type to a report kind.
 */

#ifndef DELOREAN_COMMON_ERRORS_HPP_
#define DELOREAN_COMMON_ERRORS_HPP_

#include <stdexcept>
#include <string>

namespace delorean
{

/** Root of every error DeLorean raises deliberately. */
class DeloreanError : public std::runtime_error
{
  public:
    explicit DeloreanError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/**
 * A serialized recording is malformed: bad magic/version, truncated
 * stream, or a field outside the range the recorder can produce.
 * Raised by loadRecording()/validateRecording() before any replay
 * machinery touches the data.
 */
class RecordingFormatError : public DeloreanError
{
  public:
    explicit RecordingFormatError(const std::string &what)
        : DeloreanError("recording format error: " + what)
    {
    }
};

/**
 * A BitReader was asked to read past the end of its stream. Readers
 * walk deserialized (possibly corrupted) log images, so running dry
 * is a malformed-recording symptom: a RecordingFormatError, reaching
 * any handler that fences the loading/parsing layer.
 */
class BitstreamExhausted : public RecordingFormatError
{
  public:
    explicit BitstreamExhausted(const std::string &what)
        : RecordingFormatError("bit stream exhausted: " + what)
    {
    }
};

/**
 * A user-supplied configuration is invalid before any recording
 * exists: a processor count the address layout cannot host, an
 * infeasible ring budget, and similar construction-time
 * rejections. Distinct from RecordingFormatError, which covers
 * malformed *serialized* data — the fault-injection contract depends
 * on the loader raising only RecordingFormatError.
 */
class ConfigError : public DeloreanError
{
  public:
    explicit ConfigError(const std::string &what)
        : DeloreanError("config error: " + what)
    {
    }
};

/** Replay could not follow the recording (divergence, not a bug). */
class ReplayError : public DeloreanError
{
  public:
    explicit ReplayError(const std::string &what) : DeloreanError(what)
    {
    }
};

/** A replay cursor (PI, strata, CS, I/O, DMA) ran dry mid-replay. */
class ReplayLogExhausted : public ReplayError
{
  public:
    explicit ReplayLogExhausted(const std::string &what)
        : ReplayError("replay log exhausted: " + what)
    {
    }
};

/**
 * The event budget ran out before all threads finished — a corrupt
 * log can park the replay arbiter in a state where events keep firing
 * without progress, and the budget converts that hang into an error.
 */
class ReplayBudgetExceeded : public ReplayError
{
  public:
    explicit ReplayBudgetExceeded(const std::string &what)
        : ReplayError("replay event budget exceeded: " + what)
    {
    }
};

/** The event queue drained with threads still unfinished. */
class ReplayStalled : public ReplayError
{
  public:
    explicit ReplayStalled(const std::string &what)
        : ReplayError("replay stalled: " + what)
    {
    }
};

} // namespace delorean

#endif // DELOREAN_COMMON_ERRORS_HPP_
