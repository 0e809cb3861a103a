#include "core/ordering_trie.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"

namespace sunstone {

std::vector<TensorId>
OrderingCandidate::fullyReusedTensors() const
{
    std::vector<TensorId> out;
    for (TensorId t = 0; t < (TensorId)fullReuse.size(); ++t)
        if (!fullReuse[t].empty())
            out.push_back(t);
    return out;
}

void
loopOrderForSuffix(const std::vector<DimId> &suffix, int num_dims,
                   std::vector<DimId> &order)
{
    order.clear();
    DimSet in_suffix;
    for (DimId d : suffix)
        in_suffix.add(d);
    for (DimId d = 0; d < num_dims; ++d)
        if (!in_suffix.contains(d))
            order.push_back(d);
    // Suffix is innermost-first; the order vector is outermost-first.
    for (auto it = suffix.rbegin(); it != suffix.rend(); ++it)
        order.push_back(*it);
}

std::string
OrderingCandidate::toString(const Workload &wl) const
{
    std::ostringstream os;
    os << "suffix(inner-first)=[";
    for (std::size_t i = 0; i < suffix.size(); ++i) {
        if (i)
            os << ",";
        os << wl.dimName(suffix[i]);
    }
    os << "]";
    for (TensorId t = 0; t < wl.numTensors(); ++t) {
        if (!fullReuse[t].empty()) {
            os << " " << wl.tensor(t).name << ":full{";
            bool first = true;
            for (DimId d : fullReuse[t]) {
                if (!first)
                    os << ",";
                os << wl.dimName(d);
                first = false;
            }
            os << "}";
        }
        if (!partialReuse[t].empty()) {
            os << " " << wl.tensor(t).name << ":partial{";
            bool first = true;
            for (DimId d : partialReuse[t]) {
                if (!first)
                    os << ",";
                os << wl.dimName(d);
                first = false;
            }
            os << "}";
        }
    }
    return os.str();
}

namespace {

/**
 * @return true when candidate a dominates b: for every tensor a's
 * full-reuse dims contain b's and a's partial dims contain b's (with
 * full reuse also covering partial claims on the same dims).
 */
bool
dominates(const OrderingCandidate &a, const OrderingCandidate &b)
{
    for (std::size_t t = 0; t < a.fullReuse.size(); ++t) {
        if (!b.fullReuse[t].subsetOf(a.fullReuse[t]))
            return false;
        DimSet a_any = a.fullReuse[t].unionWith(a.partialReuse[t]);
        if (!b.partialReuse[t].subsetOf(a_any))
            return false;
    }
    return true;
}

bool
sameSignature(const OrderingCandidate &a, const OrderingCandidate &b)
{
    return a.fullReuse == b.fullReuse && a.partialReuse == b.partialReuse;
}

struct TrieBuilder
{
    const Workload &wl;
    DimSet active;
    OrderingTrieStats stats;
    std::vector<OrderingCandidate> leaves;

    explicit TrieBuilder(const Workload &w, DimSet a) : wl(w), active(a) {}

    /**
     * @param suffix current suffix (innermost first)
     * @param used dims already in the suffix
     * @param cand running reuse credit
     */
    void
    grow(std::vector<DimId> &suffix, DimSet used, OrderingCandidate &cand)
    {
        ++stats.nodesVisited;
        bool extended = false;
        for (DimId d : active) {
            if (used.contains(d))
                continue;
            // Which tensors would d newly reuse on top of this suffix?
            DimSet new_full, new_partial; // tensor credit masks per dim
            bool adds = false;
            std::vector<std::pair<TensorId, bool>> credits; // (t, full?)
            for (TensorId t = 0; t < wl.numTensors(); ++t) {
                const TensorReuse &r = wl.reuse(t);
                // Ordering Principle 2: the loops inside d must all be
                // non-indexing for the tensor.
                if (!used.intersect(r.indexing).empty())
                    continue;
                if (r.fullyReusedBy.contains(d)) {
                    credits.emplace_back(t, true);
                    adds = true;
                } else if (r.partiallyReusedBy.contains(d)) {
                    credits.emplace_back(t, false);
                    adds = true;
                }
            }
            (void)new_full;
            (void)new_partial;
            if (!adds)
                continue; // Ordering Principle 3: no further reuse

            extended = true;
            suffix.push_back(d);
            DimSet used2 = used;
            used2.add(d);
            OrderingCandidate next = cand;
            next.suffix = suffix;
            for (auto [t, full] : credits) {
                if (full)
                    next.fullReuse[t].add(d);
                else
                    next.partialReuse[t].add(d);
            }
            grow(suffix, used2, next);
            suffix.pop_back();
        }
        if (!extended) {
            ++stats.leaves;
            leaves.push_back(cand);
            leaves.back().suffix = suffix;
        }
    }
};

} // anonymous namespace

std::vector<OrderingCandidate>
orderingCandidates(const Workload &wl, DimSet active_dims,
                   OrderingTrieStats *stats)
{
    TrieBuilder b(wl, active_dims);
    OrderingCandidate root;
    root.fullReuse.assign(wl.numTensors(), DimSet());
    root.partialReuse.assign(wl.numTensors(), DimSet());
    std::vector<DimId> suffix;
    b.grow(suffix, DimSet(), root);

    // Deduplicate identical signatures, then dominance-prune.
    std::vector<OrderingCandidate> out;
    for (auto &cand : b.leaves) {
        bool skip = false;
        for (const auto &kept : out)
            if (sameSignature(kept, cand)) {
                skip = true;
                break;
            }
        if (!skip)
            out.push_back(std::move(cand));
    }
    std::vector<OrderingCandidate> pruned;
    for (std::size_t i = 0; i < out.size(); ++i) {
        bool dominated = false;
        for (std::size_t j = 0; j < out.size() && !dominated; ++j) {
            if (i == j)
                continue;
            if (dominates(out[j], out[i]) &&
                !sameSignature(out[i], out[j]))
                dominated = true;
        }
        if (!dominated)
            pruned.push_back(out[i]);
    }
    if (pruned.empty()) {
        // No reuse anywhere (degenerate workloads): keep one canonical
        // empty suffix so callers always have an ordering to use.
        OrderingCandidate empty;
        empty.fullReuse.assign(wl.numTensors(), DimSet());
        empty.partialReuse.assign(wl.numTensors(), DimSet());
        pruned.push_back(empty);
    }
    if (stats) {
        b.stats.survivors = static_cast<std::int64_t>(pruned.size());
        *stats = b.stats;
    }
    return pruned;
}

} // namespace sunstone
