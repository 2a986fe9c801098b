/**
 * @file
 * TraceDigest: a replay observer that counts every observed access
 * and folds each retired chunk and its access trace into one hash, so
 * two replays' observer streams compare as two numbers.
 */

#ifndef DELOREAN_TESTS_TRACE_DIGEST_HPP_
#define DELOREAN_TESTS_TRACE_DIGEST_HPP_

#include <cstdint>

#include "common/rng.hpp"
#include "core/replay_observer.hpp"

namespace delorean
{
namespace test
{

class TraceDigest : public ReplayObserver
{
  public:
    void
    onChunkRetire(const ChunkObservation &obs) override
    {
        hash = mix64(hash ^ obs.proc ^ (obs.seq << 8) ^ (obs.size << 32));
        for (const MemAccess &a : *obs.accesses) {
            hash = mix64(hash ^ a.addr
                         ^ (static_cast<std::uint64_t>(a.kind) << 60));
            hash = mix64(hash ^ a.value);
        }
        accesses += obs.accesses->size();
    }
    std::uint64_t hash = 0;
    std::uint64_t accesses = 0;
};

} // namespace test
} // namespace delorean

#endif // DELOREAN_TESTS_TRACE_DIGEST_HPP_
