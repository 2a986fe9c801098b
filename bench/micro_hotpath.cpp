/**
 * @file
 * Commit fast-path micro-harness: before/after numbers for the
 * arbiter hot-path work (summary-filtered signature intersection,
 * epoch-versioned clearing, batched log emission) plus an end-to-end
 * record through the always-on summary and union filters.
 *
 * Unlike the figure harnesses, this bench measures *host* throughput,
 * so its stdout carries only deterministic facts (counts, rates,
 * identity checks); every host time goes to stderr and to
 * BENCH_hotpath.json (path overridable with DELOREAN_HOTPATH_JSON).
 */

#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "ledger.hpp"
#include "common/bitstream.hpp"
#include "common/rng.hpp"
#include "compress/lz77.hpp"
#include "core/recorder.hpp"
#include "signature/signature.hpp"

namespace
{

using namespace delorean;
using delorean_bench::kSeed;

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * The historical bit-at-a-time writer, kept here verbatim as the
 * "before" reference for the BitWriter comparison. Appends one bit
 * per loop iteration into the byte tail.
 */
class BitAtATimeWriter
{
  public:
    void
    write(std::uint64_t value, unsigned width)
    {
        for (unsigned i = 0; i < width; ++i) {
            if (bits_ % 8 == 0)
                bytes_.push_back(0);
            if ((value >> i) & 1ull)
                bytes_.back() |=
                    static_cast<std::uint8_t>(1u << (bits_ % 8));
            ++bits_;
        }
    }

    const std::vector<std::uint8_t> &bytes() const { return bytes_; }
    std::uint64_t bitCount() const { return bits_; }

  private:
    std::vector<std::uint8_t> bytes_;
    std::uint64_t bits_ = 0;
};

/** One chunk's worth of spatially local line addresses. */
std::vector<Addr>
chunkLines(Xoshiro256ss &rng, unsigned count)
{
    std::vector<Addr> lines;
    lines.reserve(count);
    const Addr base = rng.next() % (1u << 20);
    for (unsigned i = 0; i < count; ++i)
        lines.push_back(base + rng.next() % 64);
    return lines;
}

/** Process CPU time in seconds (every thread of this process). */
double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

/**
 * Record @p workload @p runs times; @p best_cpu_seconds gets the
 * fastest record's process CPU time. A single wall-clock record swings
 * by about a third on a shared host; the best CPU time of several
 * records does not count the time the host ran other work.
 */
Recording
recordBestOf(const Workload &workload, unsigned runs,
             double *best_cpu_seconds)
{
    // Signature disambiguation (not the exact-set default) so commit
    // sweeps go through the summary-filtered signature path.
    MachineConfig machine;
    machine.bulk.exactDisambiguation = false;
    Recorder recorder(ModeConfig::orderOnly(), machine);
    Recording rec;
    for (unsigned r = 0; r < runs; ++r) {
        const double t0 = cpuSeconds();
        rec = recorder.record(workload, /*env_seed=*/7);
        const double s = cpuSeconds() - t0;
        if (r == 0 || s < *best_cpu_seconds)
            *best_cpu_seconds = s;
    }
    return rec;
}

} // namespace

int
main()
{
    const unsigned scale = delorean_bench::benchScale(10);
    delorean_bench::JsonLedger json("micro_hotpath");

    // ---- 1. Signature intersection: summary filter vs word walk ----
    // Pairs drawn from disjoint-by-construction chunk footprints, the
    // common case a commit sweep sees: most running chunks do not
    // touch the committing chunk's lines.
    {
        Xoshiro256ss rng(kSeed);
        constexpr unsigned kPairs = 4096;
        std::vector<Signature> lhs(kPairs), rhs(kPairs);
        for (unsigned i = 0; i < kPairs; ++i) {
            for (Addr a : chunkLines(rng, 24))
                lhs[i].insert(a);
            for (Addr a : chunkLines(rng, 24))
                rhs[i].insert(a);
        }

        const unsigned iters = 40 * scale;
        std::uint64_t hits_words = 0;
        Clock::time_point t0 = Clock::now();
        for (unsigned it = 0; it < iters; ++it)
            for (unsigned i = 0; i < kPairs; ++i)
                hits_words += lhs[i].intersectsWords(rhs[i]);
        const double words_s = secondsSince(t0);

        std::uint64_t hits_summary = 0;
        t0 = Clock::now();
        for (unsigned it = 0; it < iters; ++it)
            for (unsigned i = 0; i < kPairs; ++i)
                hits_summary += lhs[i].intersects(rhs[i]);
        const double summary_s = secondsSince(t0);

        std::uint64_t summary_rejects = 0;
        for (unsigned i = 0; i < kPairs; ++i)
            summary_rejects += !lhs[i].summaryIntersects(rhs[i]);

        const double total =
            static_cast<double>(iters) * kPairs;
        const bool identical = hits_words == hits_summary;
        std::printf("sig_filter: pairs=%u conflicts=%" PRIu64
                    " summary_rejects=%" PRIu64 " identical=%s\n",
                    kPairs, hits_words / iters, summary_rejects,
                    identical ? "yes" : "no");
        std::fprintf(stderr,
                     "sig_filter: word-walk %.1f Mops/s, "
                     "summary-filtered %.1f Mops/s (%.2fx)\n",
                     total / words_s / 1e6, total / summary_s / 1e6,
                     words_s / summary_s);

        json.section("sig_filter");
        json.field("pairs", std::uint64_t{kPairs});
        json.field("summary_rejects", summary_rejects);
        json.field("word_walk_mops", total / words_s / 1e6);
        json.field("summary_filtered_mops", total / summary_s / 1e6);
        json.field("speedup", words_s / summary_s);
        json.field("results_identical", identical);
    }

    // ---- 2. Signature clearing: epoch bump vs full zeroing ---------
    // One insert per cycle keeps the signature live (and defeats
    // dead-code elimination) while the clear itself dominates.
    {
        Xoshiro256ss rng(kSeed + 1);
        const std::vector<Addr> lines = chunkLines(rng, 24);
        const unsigned iters = 100000 * scale;

        Signature sig;
        Clock::time_point t0 = Clock::now();
        for (unsigned it = 0; it < iters; ++it) {
            sig.clear(); // epoch bump: O(banks)
            sig.insert(lines[it % lines.size()]);
        }
        const double epoch_s = secondsSince(t0);
        std::uint64_t guard = sig.popCount();

        t0 = Clock::now();
        for (unsigned it = 0; it < iters; ++it) {
            sig = Signature{}; // full state zeroing
            sig.insert(lines[it % lines.size()]);
        }
        const double zero_s = secondsSince(t0);
        guard ^= sig.popCount();

        std::printf("sig_clear: cycles=%u guard=%" PRIu64 "\n", iters,
                    guard);
        std::fprintf(stderr,
                     "sig_clear: epoch %.1f Mclears/s, "
                     "full-zero %.1f Mclears/s (%.2fx)\n",
                     iters / epoch_s / 1e6, iters / zero_s / 1e6,
                     zero_s / epoch_s);

        json.section("sig_clear");
        json.field("cycles", std::uint64_t{iters});
        json.field("epoch_clear_mops", iters / epoch_s / 1e6);
        json.field("full_zero_mops", iters / zero_s / 1e6);
        json.field("speedup", zero_s / epoch_s);
    }

    // ---- 3. BitWriter: batched accumulator vs bit-at-a-time --------
    {
        Xoshiro256ss rng(kSeed + 2);
        const unsigned values = 100000 * scale;
        std::vector<std::uint64_t> vals(values);
        std::vector<unsigned> widths(values);
        for (unsigned i = 0; i < values; ++i) {
            widths[i] = 1 + static_cast<unsigned>(rng.next() % 33);
            vals[i] = rng.next();
        }

        BitAtATimeWriter ref;
        Clock::time_point t0 = Clock::now();
        for (unsigned i = 0; i < values; ++i)
            ref.write(vals[i], widths[i]);
        const double ref_s = secondsSince(t0);

        BitWriter batched;
        t0 = Clock::now();
        for (unsigned i = 0; i < values; ++i)
            batched.write(vals[i], widths[i]);
        const double bat_s = secondsSince(t0);

        const bool identical = batched.bytes() == ref.bytes()
                               && batched.bitCount() == ref.bitCount();
        const double mb = static_cast<double>(ref.bitCount()) / 8e6;
        std::printf("bitwriter: values=%u bits=%" PRIu64
                    " word_flushes=%" PRIu64 " identical=%s\n",
                    values, ref.bitCount(), batched.wordFlushes(),
                    identical ? "yes" : "no");
        std::fprintf(stderr,
                     "bitwriter: bit-at-a-time %.1f MB/s, "
                     "batched %.1f MB/s (%.2fx)\n",
                     mb / ref_s, mb / bat_s, ref_s / bat_s);

        json.section("bitwriter");
        json.field("values", std::uint64_t{values});
        json.field("word_flushes", batched.wordFlushes());
        json.field("bit_at_a_time_mbps", mb / ref_s);
        json.field("batched_mbps", mb / bat_s);
        json.field("speedup", ref_s / bat_s);
        json.field("bytes_identical", identical);
    }

    // ---- 4. End-to-end record through the commit fast path --------
    // Only the counters and the record's CPU time are reported; the
    // recording itself is pinned by the golden-bytes and fast-path
    // tests. record_seconds is the best of kRecordRuns records in
    // process CPU seconds, and commits_per_sec divides by it.
    constexpr unsigned kRecordRuns = 5;
    Recording rec_on;
    {
        const Workload workload("radix", 8, kSeed,
                                WorkloadScale{scale});
        double record_s = 0.0;
        rec_on = recordBestOf(workload, kRecordRuns, &record_s);
        const EngineStats &st = rec_on.stats;
        std::printf("engine: commits=%" PRIu64 " squashes=%" PRIu64
                    " summary_rejects=%" PRIu64
                    " union_sweep_skips=%" PRIu64
                    " conflict_sweeps=%" PRIu64
                    " wakeups_coalesced=%" PRIu64
                    " log_word_flushes=%" PRIu64 "\n",
                    st.committedChunks, st.squashes,
                    st.sigSummaryRejects, st.unionSweepSkips,
                    st.conflictSweeps, st.arbiterWakeupsCoalesced,
                    st.logWordFlushes);
        std::fprintf(stderr,
                     "engine: record %.3f CPU s, best of %u"
                     " (%.0f commits/s)\n",
                     record_s, kRecordRuns, st.committedChunks / record_s);

        json.section("engine");
        json.field("commits", st.committedChunks);
        json.field("squashes", st.squashes);
        json.field("summary_rejects", st.sigSummaryRejects);
        json.field("union_sweep_skips", st.unionSweepSkips);
        json.field("conflict_sweeps", st.conflictSweeps);
        json.field("wakeups_coalesced", st.arbiterWakeupsCoalesced);
        json.field("log_word_flushes", st.logWordFlushes);
        json.field("record_seconds", record_s);
        json.field("commits_per_sec", st.committedChunks / record_s);
    }

    // ---- 5. LZ77 over real log bytes -------------------------------
    {
        std::vector<std::uint8_t> input = rec_on.pi.packedBytes();
        for (const CsLog &log : rec_on.cs) {
            const std::vector<std::uint8_t> &b = log.packedBytes();
            input.insert(input.end(), b.begin(), b.end());
        }
        while (input.size() < (std::size_t{1} << 20))
            input.insert(input.end(), input.begin(),
                         input.begin()
                             + static_cast<std::ptrdiff_t>(std::min(
                                 input.size(),
                                 (std::size_t{1} << 20) - input.size())));

        const Lz77 codec{Lz77Config{}};
        const Clock::time_point t0 = Clock::now();
        const std::vector<std::uint8_t> packed =
            codec.compress(input);
        const double comp_s = secondsSince(t0);
        const bool roundtrip = codec.decompress(packed) == input;

        std::printf("lz77: input=%zu packed=%zu roundtrip=%s\n",
                    input.size(), packed.size(),
                    roundtrip ? "yes" : "no");
        std::fprintf(stderr, "lz77: compress %.1f MB/s\n",
                     input.size() / comp_s / 1e6);

        json.section("lz77");
        json.field("input_bytes",
                   static_cast<std::uint64_t>(input.size()));
        json.field("packed_bytes",
                   static_cast<std::uint64_t>(packed.size()));
        json.field("compress_mbps", input.size() / comp_s / 1e6);
        json.field("roundtrip_ok", roundtrip);
    }

    json.writeTo(delorean_bench::JsonLedger::path(
        "DELOREAN_HOTPATH_JSON", "BENCH_hotpath.json"));
    return 0;
}
