#include "mappers/random_sampler.hh"

#include <numeric>

#include "common/math_utils.hh"

namespace sunstone {

RandomSampler::RandomSampler(const BoundArch &ba)
    : nl_(ba.numLevels()), nd_(ba.workload().numDims()), dimBegin_{0}
{
    for (int l = 0; l < nl_; ++l) {
        slots_.push_back({l, false});
        if (ba.arch().levels[l].fanout > 1)
            slots_.push_back({l, true});
    }
    for (DimId d = 0; d < nd_; ++d) {
        for (auto [p, e] : primeFactors(ba.workload().dimSize(d)))
            draws_.insert(draws_.end(), e, Draw{d, p});
        dimBegin_.push_back(draws_.size());
    }
}

void
RandomSampler::place(Mapping &m, std::size_t first, std::size_t last,
                     RngStream &rng) const
{
    for (std::size_t i = first; i < last; ++i) {
        const Slot &s = slots_[rng.below(slots_.size())];
        LevelMapping &lm = m.level(s.level);
        const Draw &dr = draws_[i];
        std::int64_t &f = (s.spatial ? lm.spatial : lm.temporal)[dr.dim];
        f = satMul(f, dr.prime);
    }
}

void
RandomSampler::fill(Mapping &m, RngStream &rng) const
{
    if (m.numLevels() != nl_)
        m = Mapping(nl_, nd_);
    for (int l = 0; l < nl_; ++l) {
        LevelMapping &lm = m.level(l);
        lm.temporal.assign(nd_, 1);
        lm.spatial.assign(nd_, 1);
        lm.order.resize(nd_);
        std::iota(lm.order.begin(), lm.order.end(), 0);
    }
    place(m, 0, draws_.size(), rng);
    for (int l = 0; l < nl_; ++l)
        rng.shuffle(m.level(l).order);
}

void
RandomSampler::randomizeDim(Mapping &m, DimId d, RngStream &rng) const
{
    for (int l = 0; l < nl_; ++l) {
        m.level(l).temporal[d] = 1;
        m.level(l).spatial[d] = 1;
    }
    place(m, dimBegin_[d], dimBegin_[d + 1], rng);
}

} // namespace sunstone
