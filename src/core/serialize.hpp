/**
 * @file
 * Recording persistence: save a Recording to a file and load it back.
 *
 * A recorder box would stream its logs to stable storage; a developer
 * replays them later, possibly on a different machine. The format is a
 * simple little-endian binary container (magic + version + sections)
 * covering the memory-ordering logs, the input logs, the execution
 * fingerprint, the headline statistics and any system checkpoints.
 *
 * save(load(x)) == x for everything replay needs; see
 * tests/test_serialize.cpp.
 */

#ifndef DELOREAN_CORE_SERIALIZE_HPP_
#define DELOREAN_CORE_SERIALIZE_HPP_

#include <cstddef>
#include <iosfwd>
#include <string>

#include "core/recording.hpp"

namespace delorean
{

/** Serialize @p rec to @p out. Throws std::runtime_error on failure. */
void saveRecording(const Recording &rec, std::ostream &out);

/** Serialize @p rec to file @p path. */
void saveRecordingFile(const Recording &rec, const std::string &path);

/**
 * Deserialize a Recording. Throws RecordingFormatError on any
 * malformed input: truncated stream, bad magic/version, or fields
 * outside the range the recorder can produce. A recording returned
 * from here has passed validateRecording(), so handing it to the
 * replay engine cannot trigger UB (it may still diverge, which the
 * engine reports with typed ReplayError exceptions).
 */
Recording loadRecording(std::istream &in);

/** Deserialize a Recording from file @p path. */
Recording loadRecordingFile(const std::string &path);

/**
 * Byte offset of the checkpoint section (its image count) in the
 * serialized recording @p bytes, for tools that address checkpoint
 * images in place (the fault injector). Throws RecordingFormatError
 * when the sections before it do not parse.
 */
std::size_t checkpointSectionOffset(const std::string &bytes);

/**
 * Check the semantic invariants a recorder-produced Recording always
 * satisfies (field ranges, cross-section size agreements, log entry
 * bounds). Throws RecordingFormatError naming the first violation.
 * loadRecording() runs this automatically; it is exposed for
 * recordings arriving by other paths (e.g. the fault injector).
 */
void validateRecording(const Recording &rec);

/**
 * Field-range checks for just the machine/mode headers — the subset
 * of validateRecording() that must run before a loader allocates
 * anything sized by header fields. Exposed for the archive reader
 * (src/store), whose footer carries the same headers.
 */
void validateRecordingConfigs(const MachineConfig &machine,
                              const ModeConfig &mode);

} // namespace delorean

#endif // DELOREAN_CORE_SERIALIZE_HPP_
