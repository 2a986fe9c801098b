#include "core/pi_log.hpp"

#include <cassert>

namespace delorean
{

namespace
{

unsigned
bitsFor(unsigned distinct_values)
{
    unsigned bits = 1;
    while ((1u << bits) < distinct_values)
        ++bits;
    return bits;
}

} // namespace

PiLog::PiLog(unsigned num_procs)
    : num_procs_(num_procs),
      entry_bits_(bitsFor(num_procs + 1)),
      dma_code_(static_cast<std::uint16_t>(num_procs))
{
}

void
PiLog::append(ProcId proc)
{
    std::uint16_t code;
    if (proc == kDmaProcId) {
        code = dma_code_;
    } else {
        assert(proc < num_procs_);
        code = static_cast<std::uint16_t>(proc);
    }
    entries_.push_back(code);
    packed_.write(code, entry_bits_);
}

const std::vector<std::uint8_t> &
PiLog::packedBytes() const
{
    return packed_.bytes();
}

} // namespace delorean
