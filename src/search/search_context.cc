#include "search/search_context.hh"

namespace sunstone {

EvalEngine &
SearchContext::engine()
{
    if (engine_)
        return *engine_;
    if (!ownedEngine_)
        ownedEngine_ = std::make_unique<EvalEngine>();
    return *ownedEngine_;
}

std::uint64_t
SearchContext::ensureSeed(std::uint64_t fallback)
{
    if (!seed_)
        seed_ = fallback;
    return *seed_;
}

RngStream &
SearchContext::rngStream(std::size_t shard)
{
    while (streams_.size() <= shard) {
        streams_.emplace_back(
            rngShardInit(seed(), streams_.size()));
    }
    return streams_[shard];
}

std::vector<std::uint64_t>
SearchContext::rngStates() const
{
    std::vector<std::uint64_t> out;
    out.reserve(streams_.size());
    for (const RngStream &s : streams_)
        out.push_back(s.state());
    return out;
}

void
SearchContext::restoreRngStates(const std::vector<std::uint64_t> &states)
{
    streams_.clear();
    streams_.reserve(states.size());
    for (std::uint64_t s : states)
        streams_.emplace_back(s);
}

std::optional<SearchCheckpoint>
SearchContext::takeResume()
{
    std::optional<SearchCheckpoint> ck = std::move(resume_);
    resume_.reset();
    return ck;
}

} // namespace sunstone
