/**
 * @file
 * The DES chunk builder retires a run of spin reloads at once
 * (ThreadProgram::repeatSpin). It must reproduce every per-access
 * effect of stepping them: the L1 hits and clock, one perturbation
 * draw per reload, the chunk cost added one reload at a time, the
 * observer trace and the instruction counters. The counts below were
 * computed while the builder still stepped every reload.
 */

#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/delorean.hpp"
#include "core/serialize.hpp"
#include "trace_digest.hpp"

namespace delorean
{
namespace
{

using test::TraceDigest;

/**
 * One run's counts: total cycles, generated instructions, executed
 * instructions, squashes, and a digest of the per-processor stall
 * cycles, the traffic bytes, sigSummaryRejects and unionSweepSkips.
 */
using RunCounts = std::array<std::uint64_t, 5>;

RunCounts
countsOf(const EngineStats &s)
{
    std::uint64_t digest = mix64(s.traffic.dataBytes);
    digest = mix64(digest ^ s.traffic.controlBytes);
    digest = mix64(digest ^ s.traffic.signatureBytes);
    digest = mix64(digest ^ s.sigSummaryRejects);
    digest = mix64(digest ^ s.unionSweepSkips);
    for (const std::uint64_t stall : s.perProcStallCycles)
        digest = mix64(digest ^ stall);
    return {s.totalCycles, s.generatedInstrs, s.executedInstrs,
            s.squashes, digest};
}

struct SpinPin
{
    const char *app;
    const char *mode;
    Cycle l1RoundTrip;
    std::uint64_t recordingHash;
    RunCounts record;
    RunCounts perturbed;
    RunCounts observed;
    std::uint64_t observedAccesses;
    std::uint64_t traceHash;
};

/** @p pin as a row of kSpinPins, for the failure message. */
std::string
rowOf(const SpinPin &pin)
{
    std::ostringstream out;
    const auto counts = [&out](const RunCounts &c) {
        out << std::dec << ", {" << c[0] << ", " << c[1] << ", " << c[2]
            << ", " << c[3] << ", 0x" << std::hex << c[4] << "}";
    };
    out << "{\"" << pin.app << "\", \"" << pin.mode << "\", "
        << pin.l1RoundTrip << ", 0x" << std::hex << pin.recordingHash;
    counts(pin.record);
    counts(pin.perturbed);
    counts(pin.observed);
    out << std::dec << ", " << pin.observedAccesses << ", 0x" << std::hex
        << pin.traceHash << "},";
    return out.str();
}

const SpinPin kSpinPins[] = {
    // clang-format off
    {"ocean", "order-and-size", 2, 0x88dcb9b771acfdf8, {1037342, 1016593, 1016593, 66, 0xdb5b2d9b51744e93}, {1038182, 1030476, 1030476, 90, 0xe4e9676df3830b80}, {1041257, 1029480, 1029480, 89, 0xd3b589100235f53b}, 692856, 0x27b8e07e42cbaa3e},
    {"ocean", "order-only", 2, 0xd42e3018b1dcc855, {1020557, 959386, 959386, 76, 0x70fdd2b7ab186826}, {1019332, 967827, 967827, 95, 0x5f318fc30340eafc}, {1020838, 971027, 971027, 96, 0x62bc82dab0aa209f}, 613682, 0xccaa501b625bccf6},
    {"ocean", "picolog", 2, 0xc10c928630905a0, {1129280, 466890, 466890, 90, 0x729ded53037cd90}, {1113046, 468749, 468749, 93, 0x5ed834cd48bc72ae}, {1130018, 466749, 466749, 91, 0x465142e612bbaa34}, 179133, 0x7e59eb40d6a980fa},
    {"fft~r4", "order-and-size", 2, 0x331f9aed0944e525, {544611, 750070, 750070, 40, 0xb593f5ec7c72fb6a}, {545235, 752070, 752070, 41, 0xe581fb5177a9c37f}, {546543, 753248, 753248, 43, 0x6b27effd056d6672}, 479949, 0x285cd82d3dd0d6e1},
    {"fft~r4", "order-only", 2, 0x79a29ed3db4e25f3, {545496, 755216, 755216, 40, 0xf4408eb093e3ef83}, {547772, 775216, 775216, 50, 0x65d31abfd456ea10}, {546763, 765216, 765216, 45, 0x58cfa1f8c216d8c6}, 483607, 0x6a0cf1d0346d3f25},
    {"fft~r4", "picolog", 2, 0xe622bb4e8f277e4, {555211, 415496, 415496, 63, 0x58dbf95f15a9cf82}, {546525, 417496, 417496, 65, 0xb14f8bc3c664c369}, {554877, 417496, 417496, 65, 0xcaa0264d59a71ead}, 160607, 0xc3fef9958f4128c7},
    {"radix~r4", "order-and-size", 2, 0x44c9f3342e028224, {568054, 452340, 452340, 52, 0x1e8989ae0bb1f965}, {564320, 463996, 463996, 61, 0x69fab92613ea99c4}, {567128, 455247, 455247, 55, 0x7e8af1379ffa8c1c}, 177318, 0xa55edcb2753143fe},
    {"radix~r4", "order-only", 2, 0x767d47f216eeb356, {574483, 494678, 494678, 61, 0xb31fdf37a6839a0b}, {569984, 494521, 494521, 64, 0x10f730ffa0acf2cb}, {576561, 498520, 498520, 66, 0x9fbf521178a35bfa}, 201288, 0x5e7077a24910ee10},
    {"radix~r4", "picolog", 2, 0x1c31ad281aec0a86, {603264, 370653, 370653, 64, 0xa7552de52fa37b37}, {595463, 370653, 370653, 64, 0x57ebefa72a8813b7}, {604907, 372653, 372653, 66, 0x7b537afcf5faa44}, 132841, 0x6b5b4c474954021f},
    {"barnes", "order-and-size", 2, 0x285e6d725165be37, {474564, 379929, 379929, 20, 0xdd33d360601911cb}, {470790, 381929, 381929, 21, 0x4838135414727241}, {475907, 384203, 384203, 23, 0xec12f2354280cdd4}, 160275, 0xc043d12cbdb214ae},
    {"barnes", "order-only", 2, 0xee7a7c9e30abb6d, {473118, 373152, 373152, 17, 0x41951137fd881bfa}, {469063, 373152, 373152, 17, 0xf7a30b5ad55ab25e}, {475025, 377152, 377152, 19, 0xedcce0abe416c427}, 159709, 0xd74c025195c9cd35},
    {"barnes", "picolog", 2, 0x2907db6bcc36e454, {490854, 318002, 318002, 31, 0xec68dcb58ff30f56}, {485864, 318462, 318462, 32, 0xff9b3f026777b514}, {493140, 319462, 319462, 33, 0xe02c0816f002c41a}, 108099, 0x2e918b9c72eb4607},
    {"ocean", "order-and-size", 68719476736, 0x7408a6d6b89e3fa, {627635882877868, 518029, 518029, 92, 0x8fb1e9b2bbcfeec9}, {623793389735954, 499867, 499867, 110, 0x19c39b39dda54c32}, {628281412343809, 498022, 498022, 107, 0x7eaf68d3274efd25}, 146547, 0xed15b861be0d7e8a},
    {"ocean", "order-only", 68719476736, 0x2eac6eaf92070832, {631752172481217, 522942, 522942, 96, 0xb4e10db65f88f3c1}, {622841079670495, 512509, 512509, 120, 0x9e806b551862d8f7}, {629216172058109, 512509, 512509, 120, 0x8eb23eaee4432507}, 141640, 0x17138ccf491252c8},
    {"ocean", "picolog", 68719476736, 0x6a3aff3283392881, {942767313555442, 474474, 474474, 98, 0xd149ae6733b9dd51}, {929097964238890, 471557, 471557, 98, 0x3229c42a2e9399cc}, {942062151617812, 469557, 469557, 96, 0x62d4e531b0779b48}, 179133, 0x7e59eb40d6a980fa},
    // clang-format on
};

TEST(ChunkEngine, SpinFastForwardKeepsEveryCount)
{
    // Apps that spin on barriers and locks, in every mode, on 4
    // processors at scale 20 (the smallest runs in which all four
    // retire spin runs; at scale 5 none does): a recording, a
    // perturbed replay (one hit/miss swap draw per reload) and a
    // traced replay (one trace entry per reload). A chunk's cost
    // rounds to whole cycles, so at the default latencies the order
    // of its floating-point adds cannot show; ocean runs again with
    // an L1 round trip of 2^36 cycles, where one ulp of a chunk's cost
    // is worth a whole cycle, so the pins see that order too.
    struct Case
    {
        const char *app;
        const char *mode;
        Cycle l1RoundTrip;
    };
    std::vector<Case> cases;
    for (const char *app : {"ocean", "fft~r4", "radix~r4", "barnes"})
        for (const char *mode : {"order-and-size", "order-only", "picolog"})
            cases.push_back({app, mode, MachineConfig{}.mem.l1RoundTrip});
    for (const char *mode : {"order-and-size", "order-only", "picolog"})
        cases.push_back({"ocean", mode, Cycle{1} << 36});
    ASSERT_EQ(cases.size(), std::size(kSpinPins));

    for (std::size_t pin = 0; pin < cases.size(); ++pin) {
        const Case &c = cases[pin];
        MachineConfig machine;
        machine.numProcs = 4;
        machine.mem.l1RoundTrip = c.l1RoundTrip;
        const Workload w(c.app, machine.numProcs, 20080621,
                         WorkloadScale{20});
        ModeConfig mode;
        ASSERT_TRUE(parseModeConfig(c.mode, 0, mode)) << c.mode;
        const Recording rec = Recorder(mode, machine).record(w, 3);
        std::ostringstream bytes;
        saveRecording(rec, bytes);

        ReplayPerturbation perturb;
        perturb.enabled = true;
        perturb.seed = 11;
        const ReplayOutcome perturbed =
            Replayer().replay(rec, w, 5, perturb);
        ASSERT_TRUE(perturbed.deterministicExact) << c.app << " " << c.mode;

        TraceDigest digest;
        EngineOptions opts;
        opts.replay = true;
        opts.envSeed = 7;
        opts.observer = &digest;
        const ReplayOutcome observed =
            ChunkEngine(w, rec.machine, rec.mode, opts).replay(rec);
        ASSERT_TRUE(observed.deterministicExact) << c.app << " " << c.mode;

        const SpinPin got{c.app,
                          c.mode,
                          c.l1RoundTrip,
                          hashBytes(bytes.str()),
                          countsOf(rec.stats),
                          countsOf(perturbed.stats),
                          countsOf(observed.stats),
                          digest.accesses,
                          digest.hash};
        const std::string row = rowOf(got);
        const SpinPin &want = kSpinPins[pin];
        ASSERT_STREQ(want.app, c.app);
        ASSERT_STREQ(want.mode, c.mode);
        ASSERT_EQ(want.l1RoundTrip, c.l1RoundTrip);
        EXPECT_EQ(got.recordingHash, want.recordingHash) << row;
        EXPECT_EQ(got.record, want.record) << row;
        EXPECT_EQ(got.perturbed, want.perturbed) << row;
        EXPECT_EQ(got.observed, want.observed) << row;
        EXPECT_EQ(got.observedAccesses, want.observedAccesses) << row;
        EXPECT_EQ(got.traceHash, want.traceHash) << row;
    }
}

} // namespace
} // namespace delorean
