#include "arch/arch.hh"

#include <algorithm>
#include <atomic>
#include <limits>

#include "arch/energy_model.hh"
#include "common/logging.hh"
#include "common/math_utils.hh"

namespace sunstone {

std::int64_t
ArchSpec::totalFanout() const
{
    std::int64_t f = 1;
    for (const auto &l : levels)
        f = satMul(f, l.fanout);
    return f;
}

void
ArchSpec::validate() const
{
    if (levels.empty())
        SUNSTONE_FATAL("architecture '", name, "' has no levels");
    if (!levels.back().isDram)
        SUNSTONE_FATAL("architecture '", name,
                       "' must end with a DRAM level");
    for (std::size_t i = 0; i + 1 < levels.size(); ++i)
        if (levels[i].isDram)
            SUNSTONE_FATAL("architecture '", name,
                           "' has a non-outermost DRAM level");
    for (const auto &l : levels) {
        if (l.fanout < 1)
            SUNSTONE_FATAL("level '", l.name, "' has fanout < 1");
        if ((l.meshX > 0) != (l.meshY > 0))
            SUNSTONE_FATAL("level '", l.name,
                           "' must set both mesh sides or neither");
        if (l.meshX > 0 &&
            static_cast<std::int64_t>(l.meshX) * l.meshY != l.fanout)
            SUNSTONE_FATAL("level '", l.name, "' mesh ", l.meshX, "x",
                           l.meshY, " != fanout ", l.fanout);
        if (!l.isDram && l.capacityBits <= 0 && l.partitions.empty())
            SUNSTONE_FATAL("level '", l.name, "' has no capacity");
    }
}

BoundArch::BoundArch(
    ArchSpec arch, Workload wl,
    const std::map<std::string, std::string> &tensor_to_partition)
    : arch_(std::move(arch)), wl_(std::move(wl))
{
    // uid 0 is reserved as "no binding yet" by scratch arenas.
    static std::atomic<std::uint64_t> next{1};
    uid_ = next.fetch_add(1, std::memory_order_relaxed);
    arch_.validate();
    residency_.reserve(wl_.numTensors());
    for (TensorId t = 0; t < wl_.numTensors(); ++t)
        residency_.push_back(wl_.tensor(t).isOutput
                                 ? Residency::OutputBoundary
                                 : Residency::InputBoundary);
    assignPartitions(tensor_to_partition);
    computeStores();
    computeEnergies();
}

void
BoundArch::setResidency(TensorId t, Residency r)
{
    residency_.at(t) = r;
    anyEphemeral_ = false;
    for (Residency x : residency_)
        anyEphemeral_ |= (x == Residency::Ephemeral);
}

int
BoundArch::residencyLevel(TensorId t) const
{
    for (int l = numLevels() - 1; l >= 0; --l)
        if (!arch_.levels[l].isDram && stores_[l][t])
            return l;
    return -1;
}

void
BoundArch::assignPartitions(
    const std::map<std::string, std::string> &explicit_map)
{
    // Collect every partition name appearing anywhere in the hierarchy.
    std::vector<std::string> partition_names;
    for (const auto &l : arch_.levels)
        for (const auto &p : l.partitions)
            if (std::find(partition_names.begin(), partition_names.end(),
                          p.name) == partition_names.end())
                partition_names.push_back(p.name);

    tensorPartition.assign(wl_.numTensors(), "");

    if (partition_names.empty()) {
        // Fully unified hierarchy; partition names are only used for
        // bypass matching, so fall back to tensor names.
        for (TensorId t = 0; t < wl_.numTensors(); ++t)
            tensorPartition[t] = wl_.tensor(t).name;
        return;
    }

    std::vector<bool> partition_used(partition_names.size(), false);
    auto claim = [&](TensorId t, const std::string &p) {
        auto it =
            std::find(partition_names.begin(), partition_names.end(), p);
        SUNSTONE_ASSERT(it != partition_names.end(), "unknown partition");
        tensorPartition[t] = p;
        partition_used[it - partition_names.begin()] = true;
    };

    // 1. Explicit assignments.
    for (TensorId t = 0; t < wl_.numTensors(); ++t) {
        auto it = explicit_map.find(wl_.tensor(t).name);
        if (it == explicit_map.end())
            continue;
        if (std::find(partition_names.begin(), partition_names.end(),
                      it->second) == partition_names.end())
            SUNSTONE_FATAL("tensor '", it->first,
                           "' mapped to unknown partition '", it->second,
                           "' on arch '", arch_.name, "'");
        claim(t, it->second);
    }

    // 2. Exact tensor-name matches.
    for (TensorId t = 0; t < wl_.numTensors(); ++t) {
        if (!tensorPartition[t].empty())
            continue;
        auto it = std::find(partition_names.begin(), partition_names.end(),
                            wl_.tensor(t).name);
        if (it != partition_names.end())
            claim(t, *it);
    }

    // 3. Outputs go to an output-flavored partition.
    static const char *output_names[] = {"ofmap", "out", "psum", "nbout"};
    for (TensorId t = 0; t < wl_.numTensors(); ++t) {
        if (!tensorPartition[t].empty() || !wl_.tensor(t).isOutput)
            continue;
        for (const char *n : output_names) {
            auto it = std::find(partition_names.begin(),
                                partition_names.end(), n);
            if (it != partition_names.end()) {
                claim(t, *it);
                break;
            }
        }
    }

    // 4. Remaining tensors take unused partitions in declaration order.
    for (TensorId t = 0; t < wl_.numTensors(); ++t) {
        if (!tensorPartition[t].empty())
            continue;
        bool found = false;
        for (std::size_t i = 0; i < partition_names.size(); ++i) {
            if (!partition_used[i]) {
                claim(t, partition_names[i]);
                found = true;
                break;
            }
        }
        if (!found)
            SUNSTONE_FATAL(
                "cannot auto-assign tensor '", wl_.tensor(t).name,
                "' to a partition of arch '", arch_.name,
                "'; pass an explicit tensor-to-partition map");
    }
}

void
BoundArch::computeStores()
{
    const int nl = numLevels();
    const int nt = numTensors();
    stores_.assign(nl, std::vector<bool>(nt, true));
    for (int l = 0; l < nl; ++l) {
        const auto &lv = arch_.levels[l];
        for (TensorId t = 0; t < nt; ++t) {
            bool bypassed =
                std::find(lv.bypass.begin(), lv.bypass.end(),
                          tensorPartition[t]) != lv.bypass.end();
            // A partitioned level stores only tensors that have a
            // partition there.
            if (!bypassed && !lv.partitions.empty()) {
                bool has = false;
                for (const auto &p : lv.partitions)
                    has |= (p.name == tensorPartition[t]);
                bypassed = !has;
            }
            stores_[l][t] = !bypassed;
        }
    }
    // DRAM must store everything.
    for (TensorId t = 0; t < nt; ++t)
        SUNSTONE_ASSERT(stores_[nl - 1][t],
                        "DRAM cannot bypass tensor ", wl_.tensor(t).name);

    // Capacity groups: one per partition (or one for a unified buffer)
    // of every non-DRAM level. setResidency() changes no storage fact,
    // so these hold for the binding's lifetime.
    groups_.assign(nl, {});
    for (int l = 0; l < nl; ++l) {
        const auto &lv = arch_.levels[l];
        if (lv.isDram)
            continue;
        const bool unified = lv.partitions.empty();
        std::vector<PartitionSpec> parts = lv.partitions;
        if (unified)
            parts.push_back({"", lv.capacityBits});
        for (const auto &p : parts) {
            CapacityGroup &g = groups_[l].emplace_back();
            g.limitBits = p.capacityBits / (lv.doubleBuffered ? 2 : 1);
            for (TensorId t = 0; t < nt; ++t)
                if (stores_[l][t] && (unified || tensorPartition[t] == p.name))
                    g.members.push_back({t, wl_.tensor(t).wordBits});
        }
    }
}

void
BoundArch::computeEnergies()
{
    const int nl = numLevels();
    const int nt = numTensors();
    readPj.assign(nl, std::vector<double>(nt, 0));
    writePj.assign(nl, std::vector<double>(nt, 0));
    for (int l = 0; l < nl; ++l) {
        const auto &lv = arch_.levels[l];
        for (TensorId t = 0; t < nt; ++t) {
            const int bits = wl_.tensor(t).wordBits;
            double rd_per_bit, wr_per_bit;
            if (lv.isDram) {
                rd_per_bit = wr_per_bit = energy::dramPjPerBit();
            } else {
                std::int64_t cap = lv.capacityBits;
                for (const auto &p : lv.partitions)
                    if (p.name == tensorPartition[t])
                        cap = p.capacityBits;
                if (cap <= 0)
                    cap = 1; // bypassed tensors never charge here
                rd_per_bit = energy::sramReadPjPerBit(cap);
                wr_per_bit = energy::sramWritePjPerBit(cap);
            }
            readPj[l][t] = rd_per_bit * bits;
            writePj[l][t] = wr_per_bit * bits;
        }
    }
    macPj_ = energy::macPj(arch_.macBits);
}

int
BoundArch::innermostLevel(TensorId t) const
{
    for (int l = 0; l < numLevels(); ++l)
        if (stores_[l][t])
            return l;
    SUNSTONE_PANIC("tensor stored nowhere");
}

int
BoundArch::nextLevelAbove(int level, TensorId t) const
{
    for (int l = level + 1; l < numLevels(); ++l)
        if (stores_[l][t])
            return l;
    return -1;
}

std::int64_t
BoundArch::capacityBitsFor(int level, TensorId t) const
{
    if (arch_.levels[level].isDram)
        return std::numeric_limits<std::int64_t>::max() / 4;
    for (const CapacityGroup &g : groups_[level])
        for (const CapacityGroup::Member &mb : g.members)
            if (mb.tensor == t)
                return g.limitBits;
    return 0;
}

const std::string &
BoundArch::partitionOf(TensorId t) const
{
    return tensorPartition.at(t);
}

} // namespace sunstone
