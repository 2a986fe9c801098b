#include "memory/cache.hpp"

#include <bit>
#include <cassert>
#include <string>
#include <vector>

#include "common/errors.hpp"

namespace delorean
{

const char *
cacheGeometryError(unsigned size_bytes, unsigned ways)
{
    if (ways < 1)
        return "associativity must be at least 1";
    const unsigned sets = size_bytes / kLineBytes / ways;
    if (sets < 1)
        return "smaller than one set";
    if (size_bytes % (static_cast<std::uint64_t>(kLineBytes) * ways) != 0)
        return "size is not a whole number of sets";
    if (!std::has_single_bit(sets))
        return "set count is not a power of two";
    return nullptr;
}

namespace
{

unsigned
setsFor(unsigned size_bytes, unsigned ways)
{
    if (const char *why = cacheGeometryError(size_bytes, ways))
        throw ConfigError("cache of " + std::to_string(size_bytes)
                          + " bytes at " + std::to_string(ways)
                          + " ways: " + why);
    return size_bytes / kLineBytes / ways;
}

} // namespace

Cache::Cache(unsigned size_bytes, unsigned ways)
    : num_sets_(setsFor(size_bytes, ways)),
      ways_(ways),
      ways_storage_(static_cast<std::size_t>(num_sets_) * ways)
{
}

void
Cache::reset()
{
    for (auto &way : ways_storage_)
        way = Way{};
    stamp_ = 0;
    hits_ = 0;
    misses_ = 0;
}

void
Cache::renormalize()
{
    // A set's valid stamps are distinct, so ranking them keeps every
    // later hit, miss and victim choice: each compares stamps of one
    // set only, and every later stamp is above ways_.
    std::vector<Way *> order(ways_);
    for (std::size_t base = 0; base < ways_storage_.size(); base += ways_) {
        Way *set = &ways_storage_[base];
        unsigned valid = 0;
        for (unsigned w = 0; w < ways_; ++w) {
            if (set[w].lastUse == 0)
                continue;
            // Insertion sort by stamp: a set has a handful of ways.
            unsigned k = valid++;
            for (; k > 0 && order[k - 1]->lastUse > set[w].lastUse; --k)
                order[k] = order[k - 1];
            order[k] = &set[w];
        }
        for (unsigned r = 0; r < valid; ++r)
            order[r]->lastUse = r + 1;
    }
    stamp_ = ways_;
}

CacheHierarchy::CacheHierarchy(const MachineConfig &config)
    : l2_(config.mem.l2SizeBytes, config.mem.l2Ways)
{
    l1s_.reserve(config.numProcs);
    for (unsigned p = 0; p < config.numProcs; ++p)
        l1s_.emplace_back(config.mem.l1SizeBytes, config.mem.l1Ways);
}

void
CacheHierarchy::invalidateOthers(ProcId except, Addr line)
{
    for (ProcId p = 0; p < l1s_.size(); ++p)
        if (p != except)
            l1s_[p].invalidate(line);
}

void
CacheHierarchy::pollute(ProcId proc, Addr line)
{
    assert(proc < l1s_.size());
    l1s_[proc].access(line);
}

void
CacheHierarchy::reset()
{
    for (auto &l1 : l1s_)
        l1.reset();
    l2_.reset();
}

} // namespace delorean
