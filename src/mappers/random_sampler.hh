/**
 * @file
 * Uniform random sampling of the full mapping space (Table I: Timeloop's
 * "pruning methods: nothing"), shared by the Timeloop random search and
 * the GAMMA genetic algorithm. The slot list and the flattened per-dim
 * prime-factor draw list are computed once per binding, and samples are
 * written into caller-owned Mappings, so sampling into reused
 * SearchDriver batch slots allocates nothing.
 */

#ifndef SUNSTONE_MAPPERS_RANDOM_SAMPLER_HH
#define SUNSTONE_MAPPERS_RANDOM_SAMPLER_HH

#include <vector>

#include "mapping/mapping.hh"
#include "search/rng.hh"

namespace sunstone {

class RandomSampler
{
  public:
    explicit RandomSampler(const BoundArch &ba);

    /**
     * Overwrites `m` (reshaped first if it has another level count) with
     * a sample from `rng`: identity, then every prime factor of every
     * dim (dims in order, primes ascending) into a random slot, then one
     * shuffle per level order.
     */
    void fill(Mapping &m, RngStream &rng) const;

    /** Redistributes dim d's prime factors over the slots (GA mutation). */
    void randomizeDim(Mapping &m, DimId d, RngStream &rng) const;

  private:
    struct Slot
    {
        int level;
        bool spatial;
    };
    struct Draw
    {
        DimId dim;
        std::int64_t prime;
    };

    void place(Mapping &m, std::size_t first, std::size_t last,
               RngStream &rng) const;

    int nl_;
    int nd_;
    /** Temporal at every level, spatial where fanout > 1. */
    std::vector<Slot> slots_;
    /** Dim d's prime factors are draws_[dimBegin_[d], dimBegin_[d + 1]). */
    std::vector<Draw> draws_;
    std::vector<std::size_t> dimBegin_;
};

} // namespace sunstone

#endif // SUNSTONE_MAPPERS_RANDOM_SAMPLER_HH
