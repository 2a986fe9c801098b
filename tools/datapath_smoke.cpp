/**
 * @file
 * CI smoke check for the archive data plane; wired into ctest as
 * `datapath_smoke` (tier-1, runs with DELOREAN_JOBS=4). It certifies
 * the two raw-speed mechanisms — the WorkerPool-parallel segment
 * codec and the zero-copy mmap read path — are invisible in the
 * bytes:
 *
 *   - saveRecording with ioThreads 1, 2 and 4 emits byte-identical
 *     files,
 *   - fromFile (mmap) and fromBytes (in memory) reassemble the same
 *     recording (byte-identical under saveRecording),
 *   - readInterval off both read paths agrees,
 *   - the hash-chain LZ77 matches the lz77_reference scalar scan on
 *     the archive's own payload bytes.
 *
 * The exhaustive versions live in tests/ (test_store, test_lz77,
 * test_archive_faults); this is the fast end-to-end gate.
 */

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "compress/lz77.hpp"
#include "core/recorder.hpp"
#include "core/serialize.hpp"
#include "store/archive.hpp"
#include "trace/workload.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

using namespace delorean;

namespace
{

constexpr std::uint64_t kSeed = 20080621;
constexpr std::uint64_t kCheckpointPeriod = 20;

std::string
saved(const Recording &rec, unsigned io_threads = 0)
{
    std::ostringstream out(std::ios::binary);
    saveRecording(rec, out, ArchiveIoOptions{io_threads});
    return std::move(out).str();
}

bool
fail(const char *what)
{
    std::fprintf(stderr, "datapath_smoke: %s\n", what);
    return false;
}

bool
smoke()
{
    MachineConfig machine;
    machine.numProcs = 4;
    Workload workload("radix", machine.numProcs, kSeed,
                      WorkloadScale{10});
    const Recording rec =
        Recorder(ModeConfig::orderAndSize(), machine)
            .record(workload, /*env_seed=*/1, true, {},
                    kCheckpointPeriod);
    if (rec.checkpoints.empty())
        return fail("record took no checkpoints");

    // Writer: the codec worker count must be invisible in the bytes.
    const std::string serial = saved(rec, 1);
    if (saved(rec, 2) != serial || saved(rec, 4) != serial)
        return fail("parallel-codec container differs from serial");

    // The production LZ77 must equal the reference scalar scan on the
    // container's own bytes (a corpus with real match structure).
    const std::vector<std::uint8_t> sample(serial.begin(),
                                           serial.end());
    if (Lz77().compress(sample) != lz77_reference::compress(sample))
        return fail("hash-chain LZ77 differs from reference scan");

    // Reader: the mmap file load against the in-memory parse, both
    // at ioThreads=4.
    const ArchiveIoOptions par{4};
    const ArchiveReader in_memory = ArchiveReader::fromBytes(sample, par);
    if (saved(in_memory.readAll()) != saved(rec))
        return fail("fromBytes readAll() not byte-identical");

    std::string path = "datapath_smoke.dla";
#if defined(__unix__) || defined(__APPLE__)
    path = "/tmp/datapath_smoke." + std::to_string(::getpid())
           + ".dla";
#endif
    saveRecordingFile(rec, path, par);
    bool ok = true;
    {
        const ArchiveReader mapped =
            ArchiveReader::fromFile(path, par);
        if (MappedFile::supported() && !mapped.usingMmap())
            ok = fail("mmap supported but reader fell back");
        if (ok && saved(mapped.readAll()) != saved(rec))
            ok = fail("mmap readAll() not byte-identical");
        if (ok)
            for (std::size_t i = 0; i < mapped.checkpointCount();
                 ++i)
                if (saved(mapped.readInterval(i))
                    != saved(in_memory.readInterval(i))) {
                    ok = fail("interval views differ across read "
                              "paths");
                    break;
                }
    }
    std::remove(path.c_str());
    if (!ok)
        return false;

    std::printf("datapath_smoke: %zu segments byte-identical at "
                "ioThreads {1,2,4}; mmap == in-memory\n",
                rec.checkpoints.size() + 1);
    return true;
}

} // namespace

int
main()
{
    if (!smoke()) {
        std::fprintf(stderr, "datapath_smoke: FAILED\n");
        return 1;
    }
    std::printf("datapath_smoke: parallel codec and zero-copy reads "
                "are byte-invisible\n");
    return 0;
}
