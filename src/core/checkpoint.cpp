#include "core/checkpoint.hpp"

#include <algorithm>

#include "core/serialize_detail.hpp"

namespace delorean
{

struct CheckpointImage::Node
{
    std::uint64_t hash = MemoryState::kHashSeed;
    std::size_t population = 0;
    bool head = true;
    std::vector<Word> words;          ///< keyframe (heads only)
    MemoryDelta delta;                ///< against base (non-heads only)
    std::shared_ptr<const Node> base; ///< the image before (non-heads)
};

CheckpointImage::CheckpointImage()
{
    static const std::shared_ptr<const Node> empty =
        std::make_shared<const Node>();
    node_ = empty;
}

CheckpointImage::CheckpointImage(std::shared_ptr<const Node> node)
    : node_(std::move(node))
{
}

CheckpointImage::CheckpointImage(const MemoryState &state)
    : CheckpointImage(keyframe(sortedWords(state), state.hash()))
{
}

std::vector<CheckpointImage::Word>
CheckpointImage::sortedWords(const MemoryState &state)
{
    std::vector<Word> words;
    words.reserve(state.population());
    state.forEachWord([&words](Addr addr, std::uint64_t value) {
        words.emplace_back(addr, value);
    });
    std::sort(words.begin(), words.end());
    return words;
}

CheckpointImage
CheckpointImage::keyframe(std::vector<Word> words, std::uint64_t hash)
{
    auto node = std::make_shared<Node>();
    node->hash = hash;
    node->population = words.size();
    node->words = std::move(words);
    return CheckpointImage(std::move(node));
}

CheckpointImage
CheckpointImage::deltaOn(const CheckpointImage &base, MemoryDelta delta,
                         std::uint64_t hash, std::size_t population)
{
    auto node = std::make_shared<Node>();
    node->hash = hash;
    node->population = population;
    node->head = false;
    node->delta = std::move(delta);
    node->base = base.node_;
    return CheckpointImage(std::move(node));
}

std::size_t
CheckpointImage::population() const
{
    return node_->population;
}

std::uint64_t
CheckpointImage::hash() const
{
    return node_->hash;
}

bool
CheckpointImage::headsChain() const
{
    return node_->head;
}

const std::vector<CheckpointImage::Word> &
CheckpointImage::words() const
{
    return node_->words;
}

const MemoryDelta *
CheckpointImage::delta() const
{
    return node_->head ? nullptr : &node_->delta;
}

bool
CheckpointImage::follows(const CheckpointImage &prev) const
{
    return !node_->head && node_->base == prev.node_;
}

std::vector<CheckpointImage>
CheckpointImage::chain() const
{
    std::vector<CheckpointImage> out;
    for (std::shared_ptr<const Node> n = node_;; n = n->base) {
        out.push_back(CheckpointImage(n));
        if (n->head)
            break;
    }
    std::reverse(out.begin(), out.end());
    return out;
}

std::size_t
CheckpointImage::heldBytes() const
{
    return node_->words.size() * 16 + node_->delta.changed.size() * 16
           + node_->delta.erased.size() * 8;
}

MemoryState
CheckpointImage::materialize() const
{
    const std::vector<CheckpointImage> links = chain();
    const std::vector<Word> &keyframe = links.front().words();
    MemoryState mem;
    mem.reserve(std::max(keyframe.size(), population()));
    for (const auto &[addr, value] : keyframe)
        mem.store(addr, value);
    for (std::size_t i = 1; i < links.size(); ++i) {
        const MemoryDelta &delta = links[i].node_->delta;
        for (const auto &[addr, value] : delta.changed)
            mem.store(addr, value);
        for (const Addr addr : delta.erased)
            mem.store(addr, MemoryState::initValue(addr));
    }
    return mem;
}

bool
CheckpointImage::operator==(const CheckpointImage &other) const
{
    if (node_ == other.node_)
        return true;
    if (population() != other.population() || hash() != other.hash())
        return false;
    return materialize() == other.materialize();
}

CheckpointImage
ImageChainBuilder::next(const SystemCheckpoint &ckpt,
                        const MemoryState &state, MemoryDelta delta,
                        std::uint64_t hash)
{
    const std::size_t delta_bytes =
        started_ ? serialize_detail::deltaBytes(last_, ckpt, delta) : 0;
    CheckpointImage image;
    if (rule_.headsChain(delta_bytes)) {
        std::vector<CheckpointImage::Word> words =
            CheckpointImage::sortedWords(state);
        rule_.keyframe(serialize_detail::keyframeBytes(ckpt, words));
        image = CheckpointImage::keyframe(std::move(words), hash);
    } else {
        rule_.delta(delta_bytes);
        image = CheckpointImage::deltaOn(last_.memory, std::move(delta),
                                         hash, state.population());
    }
    last_ = ckpt;
    last_.memory = image;
    started_ = true;
    return image;
}

} // namespace delorean
