#include "core/stratifier.hpp"

#include <cassert>

namespace delorean
{

namespace
{

unsigned
bitsForCount(unsigned max_value)
{
    unsigned bits = 1;
    while ((1u << bits) <= max_value)
        ++bits;
    return bits;
}

} // namespace

Stratifier::Stratifier(unsigned num_procs, unsigned max_chunks_per_proc)
    : num_procs_(num_procs),
      max_per_proc_(max_chunks_per_proc),
      counter_bits_(bitsForCount(max_chunks_per_proc)),
      counters_(num_procs, 0),
      srs_(num_procs),
      sr_reads_(num_procs),
      sr_writes_(num_procs)
{
    assert(max_chunks_per_proc >= 1);
}

void
Stratifier::cutStratum()
{
    if (!any_pending_)
        return;
    Stratum s;
    s.counts.assign(counters_.begin(), counters_.end());
    strata_.push_back(std::move(s));
    for (auto &c : counters_)
        c = 0;
    for (auto &sr : srs_)
        sr.clear();
    for (auto &set : sr_reads_)
        set.clear();
    for (auto &set : sr_writes_)
        set.clear();
    any_pending_ = false;
}

void
Stratifier::onCommit(ProcId proc, const Signature &sig)
{
    assert(proc < num_procs_);

    // Counter overflow forces a new stratum (Figure 5 example: S2).
    if (counters_[proc] >= max_per_proc_) {
        cutStratum();
    } else {
        // Conflict with any *other* processor's SR forces a stratum.
        for (ProcId p = 0; p < num_procs_; ++p) {
            if (p != proc && sig.intersects(srs_[p])) {
                cutStratum();
                break;
            }
        }
    }

    srs_[proc].unionWith(sig);
    ++counters_[proc];
    any_pending_ = true;
}

void
Stratifier::onCommitLines(ProcId proc, const LineSet &reads,
                          const LineSet &writes)
{
    assert(proc < num_procs_);

    if (counters_[proc] >= max_per_proc_) {
        cutStratum();
    } else {
        bool conflict = false;
        for (ProcId q = 0; q < num_procs_ && !conflict; ++q) {
            if (q == proc)
                continue;
            for (const Addr line : writes) {
                if (sr_reads_[q].contains(line)
                    || sr_writes_[q].contains(line)) {
                    conflict = true;
                    break;
                }
            }
            if (!conflict) {
                for (const Addr line : reads) {
                    if (sr_writes_[q].contains(line)) {
                        conflict = true;
                        break;
                    }
                }
            }
        }
        if (conflict)
            cutStratum();
    }

    for (const Addr line : reads)
        sr_reads_[proc].insert(line);
    for (const Addr line : writes)
        sr_writes_[proc].insert(line);
    ++counters_[proc];
    any_pending_ = true;
}

void
Stratifier::onDmaCommit()
{
    cutStratum();
    Stratum s;
    s.counts.assign(num_procs_, 0);
    s.isDma = true;
    strata_.push_back(std::move(s));
}

void
Stratifier::finish()
{
    cutStratum();
}

std::vector<std::uint8_t>
Stratifier::packedBytes() const
{
    BitWriter writer;
    for (const auto &s : strata_)
        for (const auto c : s.counts)
            writer.write(c, counter_bits_);
    return writer.bytes();
}

} // namespace delorean
