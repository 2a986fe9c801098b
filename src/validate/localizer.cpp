#include "validate/localizer.hpp"

#include <algorithm>
#include <string>

namespace delorean
{

namespace
{

/** Chunk commits before checkpoint @p ckpt, summed over processors. */
std::uint64_t
chunkCommitsBefore(const SystemCheckpoint &ckpt)
{
    std::uint64_t n = 0;
    for (const ChunkSeq c : ckpt.committedChunks)
        n += c;
    return n;
}

/** Fill @p r with the ways the final states differ. */
void
stateDivergence(const ExecutionFingerprint &a,
                const ExecutionFingerprint &b, DivergenceReport &r)
{
    r.kind = DivergenceKind::kStateDivergence;
    std::string what;
    if (a.finalMemHash != b.finalMemHash)
        what += "final memory hash differs; ";
    const std::size_t n =
        std::min(a.perProcAcc.size(), b.perProcAcc.size());
    for (std::size_t p = 0; p < n; ++p) {
        if (a.perProcAcc[p] != b.perProcAcc[p]) {
            what += "proc " + std::to_string(p) + " accumulator differs; ";
            if (r.proc == kDmaProcId)
                r.proc = static_cast<ProcId>(p);
        }
        if (a.perProcRetired[p] != b.perProcRetired[p]) {
            what += "proc " + std::to_string(p)
                    + " retired count differs; ";
            if (r.proc == kDmaProcId)
                r.proc = static_cast<ProcId>(p);
        }
    }
    if (a.perProcAcc.size() != b.perProcAcc.size())
        what += "per-proc vector sizes differ; ";
    if (what.empty())
        what = "states differ";
    r.message = "commit streams match but " + what;
}

/**
 * Binary-search the interval boundaries of two commit streams for
 * the first divergent element; fills commitIndex/expected/actual and
 * the kind. Assumes the streams differ. @p base is the number of
 * commits before the streams' first element (an interval replay's
 * start), so commitIndex and the message count from GCC 0.
 */
void
commitDivergence(const ExecutionFingerprint &a,
                 const ExecutionFingerprint &b,
                 const LocalizerOptions &opts, std::uint64_t base,
                 DivergenceReport &r)
{
    const IntervalFingerprints fa =
        IntervalFingerprints::build(a, opts.period);
    const IntervalFingerprints fb =
        IntervalFingerprints::build(b, opts.period);

    std::uint64_t probes = 0;
    const auto agree = [&](std::uint64_t k) {
        ++probes;
        return fa.coveredAt(k) == fb.coveredAt(k)
               && fa.prefixAt(k) == fb.prefixAt(k);
    };

    // Largest boundary where the prefixes still agree. Prefix
    // equality is monotone in k (each boundary hash is a function of
    // exactly the commits before it), so bisection is sound.
    std::uint64_t lo = 0;
    std::uint64_t hi =
        std::max(fa.boundaryCount(), fb.boundaryCount()) - 1;
    while (lo < hi) {
        const std::uint64_t mid = lo + (hi - lo + 1) / 2;
        if (agree(mid))
            lo = mid;
        else
            hi = mid - 1;
    }

    // Scan only the one divergent interval.
    const std::uint64_t limit =
        std::min(a.commits.size(), b.commits.size());
    std::uint64_t i = fa.coveredAt(lo);
    while (i < limit && a.commits[i] == b.commits[i])
        ++i;

    r.probes = probes;
    r.commitIndex = base + i;
    r.haveCommits = true;
    if (i < limit) {
        r.kind = DivergenceKind::kCommitDivergence;
        r.expected = a.commits[i];
        r.actual = b.commits[i];
        r.proc = a.commits[i].proc;
        r.seq = a.commits[i].seq;
        r.message = "replayed commit #" + std::to_string(base + i)
                    + " differs from the recording";
    } else if (a.commits.size() > limit) {
        r.kind = DivergenceKind::kMissingCommits;
        r.expected = a.commits[i];
        r.proc = a.commits[i].proc;
        r.seq = a.commits[i].seq;
        r.message = "replay stopped after "
                    + std::to_string(base + limit)
                    + " commits; the recording has "
                    + std::to_string(base + a.commits.size());
    } else {
        r.kind = DivergenceKind::kExtraCommits;
        r.actual = b.commits[i];
        r.proc = b.commits[i].proc;
        r.seq = b.commits[i].seq;
        r.message = "replay committed past the recorded stream ("
                    + std::to_string(base + b.commits.size()) + " vs "
                    + std::to_string(base + a.commits.size())
                    + " commits)";
    }
}

/**
 * Attribute a divergent commit to the log record that drove it.
 * r.commitIndex is the commit's index counted from GCC 0: global for
 * flat-log modes, within proc r.proc's stream for stratified
 * recordings. An interval replay's commits begin at @p start.
 */
void
attributeLogRecord(const Recording &rec, DivergenceReport &r,
                   const SystemCheckpoint *start)
{
    const std::uint64_t stream_index = r.commitIndex;
    if (rec.stratified()) {
        // Find the stratum containing proc's (stream_index+1)-th
        // commit by accumulating that proc's per-stratum counters.
        std::uint64_t seen = 0;
        for (std::size_t s = 0; s < rec.strata.size(); ++s) {
            const Stratum &st = rec.strata[s];
            if (st.isDma || r.proc >= st.counts.size())
                continue;
            seen += st.counts[r.proc];
            if (seen > stream_index) {
                r.logName = "strata";
                r.logIndex = static_cast<std::int64_t>(s);
                return;
            }
        }
        r.logName = "strata";
        r.logIndex = -1;
        return;
    }

    if (rec.mode.mode == ExecMode::kPicoLog) {
        // No PI log: the commit order is predefined, so the only log
        // records steering chunk formation are CS truncations.
        if (r.proc < rec.cs.size()) {
            const auto &entries = rec.cs[r.proc].entries();
            for (std::size_t i = 0; i < entries.size(); ++i) {
                if (entries[i].seq == r.seq) {
                    r.logName =
                        "cs[" + std::to_string(r.proc) + "]";
                    r.logIndex = static_cast<std::int64_t>(i);
                    return;
                }
            }
        }
        r.logName = "(predefined order)";
        r.logIndex = -1;
        return;
    }

    // Flat PI log: the divergent commit is the (stream_index+1)-th
    // non-DMA entry (the fingerprint excludes DMA commits). An
    // interval's log consumption starts at PI position start.gcc,
    // which holds chunk commit #chunkCommitsBefore(start).
    std::uint64_t commits_seen = start ? chunkCommitsBefore(*start) : 0;
    for (std::size_t i = start ? start->gcc : 0; i < rec.pi.entryCount();
         ++i) {
        if (rec.pi.entryAt(i) == kDmaProcId)
            continue;
        if (commits_seen == stream_index) {
            r.logName = "pi";
            r.logIndex = static_cast<std::int64_t>(i);
            return;
        }
        ++commits_seen;
    }
    r.logName = "pi";
    r.logIndex = -1; // divergence beyond the log's end
}

/** Commit stream of one processor, as a standalone fingerprint. */
ExecutionFingerprint
procOnly(const ExecutionFingerprint &fp, ProcId p)
{
    ExecutionFingerprint out;
    out.commits = fp.procStream(p);
    return out;
}

} // namespace

DivergenceReport
localizeDivergence(const ExecutionFingerprint &recorded,
                   const ExecutionFingerprint &replayed,
                   const Recording *rec, const LocalizerOptions &opts)
{
    DivergenceReport r;

    if (rec && rec->stratified()) {
        // Stratified replay may legally reorder commits across
        // processors within a stratum, so the global interleaving is
        // not canonical: compare per-processor streams instead.
        if (recorded.matchesPerProc(replayed))
            return r;
        const unsigned n = static_cast<unsigned>(
            std::max(recorded.perProcAcc.size(),
                     replayed.perProcAcc.size()));
        for (ProcId p = 0; p < n; ++p) {
            const ExecutionFingerprint pa = procOnly(recorded, p);
            const ExecutionFingerprint pb = procOnly(replayed, p);
            if (pa.commits == pb.commits)
                continue;
            const std::uint64_t base =
                opts.start && p < opts.start->committedChunks.size()
                    ? opts.start->committedChunks[p]
                    : 0;
            commitDivergence(pa, pb, opts, base, r);
            r.proc = p; // commitIndex is within p's stream
            r.message = "proc " + std::to_string(p)
                        + " commit stream: " + r.message;
            attributeLogRecord(*rec, r, opts.start);
            return r;
        }
        stateDivergence(recorded, replayed, r);
        return r;
    }

    if (recorded.commits != replayed.commits) {
        commitDivergence(recorded, replayed, opts,
                         opts.start ? chunkCommitsBefore(*opts.start) : 0,
                         r);
        if (rec)
            attributeLogRecord(*rec, r, opts.start);
        return r;
    }
    if (!recorded.statesMatch(replayed)) {
        stateDivergence(recorded, replayed, r);
        return r;
    }
    return r; // kNone: fingerprints match
}

} // namespace delorean
