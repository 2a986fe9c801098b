/**
 * @file
 * Recording persistence: save a Recording as its one file, and the
 * checks every loaded recording passes.
 *
 * A recorder box would stream its logs to stable storage; a developer
 * replays them later, possibly on a different machine. A recording's
 * file is a `.dla` archive (store/archive.hpp): the memory-ordering
 * logs, the input logs, the fingerprint, the headline statistics and
 * the system checkpoints, cut into segment records at the
 * checkpoints. A run without checkpoints is one segment. Every
 * recording file is read back through ArchiveReader (fromBytes or
 * fromFile, then readAll()), and saveRecording(readAll()) gives the
 * same bytes; see tests/test_serialize.cpp.
 */

#ifndef DELOREAN_CORE_SERIALIZE_HPP_
#define DELOREAN_CORE_SERIALIZE_HPP_

#include <iosfwd>
#include <string>

#include "core/recording.hpp"
#include "store/archive.hpp"

namespace delorean
{

/**
 * Write @p rec to @p out as a `.dla`: a StreamingArchiveWriter fed
 * the finished recording at close(), so the bytes equal a hook-fed
 * writer's at any @p io. Throws std::runtime_error on failure.
 *
 * The codec runs on the calling thread unless @p io asks for more
 * (ArchiveIoOptions{} resolves to every core): a save of a finished
 * recording has no simulation to overlap its codec with, and a worker
 * pool per call costs thread start-ups and, in a long-lived process,
 * the allocator arenas the workers leave behind (about 4 MB of peak
 * RSS over pipebench record-durable's read-back checks).
 */
void saveRecording(const Recording &rec, std::ostream &out,
                   const ArchiveIoOptions &io = ArchiveIoOptions{1});

/** Write @p rec to file @p path as a `.dla` (codec threads as above). */
void saveRecordingFile(const Recording &rec, const std::string &path,
                       const ArchiveIoOptions &io = ArchiveIoOptions{1});

/**
 * Check the semantic invariants a recorder-produced Recording always
 * satisfies (field ranges, cross-section size agreements, log entry
 * bounds). Throws RecordingFormatError naming the first violation.
 * The archive readers run this on every recording they assemble; it
 * is exposed for recordings arriving by other paths.
 */
void validateRecording(const Recording &rec);

/**
 * Field-range checks for just the machine/mode headers — the subset
 * of validateRecording() that must run before a loader allocates
 * anything sized by header fields. The archive readers run it on the
 * run metadata they open.
 */
void validateRecordingConfigs(const MachineConfig &machine,
                              const ModeConfig &mode);

} // namespace delorean

#endif // DELOREAN_CORE_SERIALIZE_HPP_
