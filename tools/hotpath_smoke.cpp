/**
 * @file
 * CI smoke check for the commit fast path: records small workloads
 * through the always-on summary and union filters and asserts each
 * recording serializes to the same bytes the unfiltered word walk
 * produced (pinned as hashes) — the filter may only change how fast
 * the arbiter decides, never what it decides. Also replays each
 * recording to confirm determinism. Wired into ctest as
 * `hotpath_smoke`.
 */

#include <cstdio>
#include <sstream>
#include <string>

#include "common/rng.hpp"
#include "core/recorder.hpp"
#include "core/serialize.hpp"

using namespace delorean;

namespace
{

constexpr std::uint64_t kSeed = 20080621;
constexpr unsigned kScale = 5;

bool
checkApp(const char *app, bool exact_disambiguation,
         std::uint64_t unfiltered_hash)
{
    MachineConfig machine;
    machine.bulk.exactDisambiguation = exact_disambiguation;
    const Workload workload(app, machine.numProcs, kSeed,
                            WorkloadScale{kScale});
    const Recording rec =
        Recorder(ModeConfig::orderOnly(), machine).record(workload, 7);

    std::ostringstream out;
    saveRecording(rec, out);
    const std::uint64_t h = hashBytes(out.str());
    if (h != unfiltered_hash) {
        std::fprintf(stderr,
                     "hotpath_smoke: %s (exact=%d): recording hash "
                     "0x%016llx differs from the unfiltered reference "
                     "0x%016llx\n",
                     app, exact_disambiguation,
                     static_cast<unsigned long long>(h),
                     static_cast<unsigned long long>(unfiltered_hash));
        return false;
    }

    const ReplayOutcome replay = Replayer().replay(rec, /*env_seed=*/99);
    if (!replay.deterministicExact) {
        std::fprintf(stderr,
                     "hotpath_smoke: %s (exact=%d): replay not "
                     "deterministic\n",
                     app, exact_disambiguation);
        return false;
    }
    return true;
}

} // namespace

int
main()
{
    // Recording-file hashes of the unfiltered word walk (every
    // running chunk intersected in full), OrderOnly at scale 5.
    // Re-pinned for .dlrec v3 and again for v4 (no checkpoints here,
    // so only the version field moved; the v4 bytes with the version
    // set back to 3 hash to the v3 pins). The v2 pins, in order, were
    // 0x47c1aef482b31299, 0x313c87f9488a26a1, 0x6d1df7d0ae78ca19,
    // 0x958191f12df3c7cb, 0xec57bb1de802695d and 0x54527826f92af39f;
    // the v3 pins 0x6ddc0183ea34d0e9, 0xa61fd5b3c14c3072,
    // 0xe6f2090056935865, 0xd8df859c7e382eed, 0xe0f2f8b073c12fb9 and
    // 0x47a0fbfba58ef2ab. Re-pinned once more when the `.dla` (v6)
    // became the one recording file: the `.dlrec` v4 encoder, run on
    // each recording these `.dla` bytes load back to, still gives the
    // v4 pins 0x777d28ab2e29e9b1, 0x1efe6ed7182eba89,
    // 0xd18e016b8924b123, 0xc28ec219a89044f5, 0x73b721e208265b88 and
    // 0xed20025fcce88c41.
    struct Reference
    {
        const char *app;
        bool exact;
        std::uint64_t unfilteredHash;
    };
    const Reference refs[] = {
        {"radix", true, 0x2966bc3fc35f69dbull},
        {"radix", false, 0x47aa86be173aac22ull},
        {"fft", true, 0x7cb89c8b8a15a66bull},
        {"fft", false, 0x42c65244e494b045ull},
        {"lu", true, 0x467f2c0ad0e2c835ull},
        {"lu", false, 0x9963ad596070ff77ull},
    };
    bool ok = true;
    for (const Reference &r : refs)
        ok = checkApp(r.app, r.exact, r.unfilteredHash) && ok;
    if (!ok)
        return 1;
    std::printf("hotpath_smoke: filtered recordings match the unfiltered "
                "reference, replays deterministic\n");
    return 0;
}
