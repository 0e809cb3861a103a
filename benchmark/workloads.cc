#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <set>
#include <sstream>

#include "mapping/serialize.hh"
#include "service/request.hh"
#include "workload/nets.hh"
#include "workload/zoo.hh"

namespace sunstone {
namespace bench {

namespace {

using service::MappingRequest;
using service::RequestKind;

/** splitmix64: small, seedable, identical on every platform. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : s_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    std::uint64_t below(std::uint64_t n) { return next() % n; }

    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
    }

  private:
    std::uint64_t s_;
};

/** One RNG stream per (workload, seed, pass). */
Rng
passRng(const std::string &name, std::uint64_t seed, int pass)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : name)
        h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    Rng mix(h ^ seed);
    mix.next();
    return Rng(mix.next() + static_cast<std::uint64_t>(pass));
}

/**
 * Every pass draws its lines from a fixed catalogue, the same multiset
 * for every --seed, so end-to-end numbers compare across seeds: --seed
 * only orders the lines. This fixed seed draws the serve-churn shapes and,
 * per pass, the search seeds.
 */
constexpr std::uint64_t kCatalogueSeed = 0x53554e53544f4e45ULL;

/** An einsum request for a zoo/net workload (its einsum and dims). */
MappingRequest
einsumRequest(const Workload &wl, const std::string &arch)
{
    MappingRequest r;
    r.workloadName = wl.name();
    std::istringstream is(workloadToText(wl));
    for (std::string line; std::getline(is, line);) {
        if (line.rfind("einsum ", 0) == 0)
            r.einsum = line.substr(7);
        else if (line.rfind("dims ", 0) == 0)
            r.dims = line.substr(5);
    }
    r.archName = arch;
    return r;
}

MappingRequest
netRequest(const std::string &net, const std::string &arch,
           const std::string &fuse, std::int64_t seq = 0)
{
    MappingRequest r;
    r.kind = RequestKind::Net;
    r.net = net;
    r.archName = arch;
    r.fuse = fuse;
    if (seq > 0)
        r.seq = seq;
    return r;
}

Line
wellFormed(MappingRequest r, const std::string &id)
{
    r.id = id;
    return {r.toJson(), false};
}

/** The four malformed kinds, by index. Each must be answered ok:false. */
Line
malformed(int kind, const std::string &id)
{
    const std::string conv =
        "\"workload\": {\"conv\": \"n=1,k=8,c=8,p=8,q=8,r=3,s=3\"}";
    switch (kind % 4) {
    case 0: // bad JSON: the line ends mid-string
        return {"{\"id\": \"" + id + "\", \"workload\": {\"conv\": \"n=1",
                true};
    case 1:
        return {"{\"id\": \"" + id + "\", " + conv + ", \"bogus\": 1}",
                true};
    case 2:
        return {"{\"id\": \"" + id + "\", \"net\": \"nonesuch\"}", true};
    default:
        return {"{\"id\": \"" + id + "\", " + conv + ", \"beam\": 0}",
                true};
    }
}

Line
health(const std::string &id)
{
    return {"{\"id\": \"" + id + "\", \"kind\": \"health\"}", false};
}

std::string
lineId(const std::string &wl, int pass, std::size_t i)
{
    return wl + "-" + std::to_string(pass) + "-" + std::to_string(i);
}

// -- net-cold ------------------------------------------------------------

std::vector<Line>
netColdPass(std::uint64_t seed, int pass)
{
    // Inception is left out: one request would be ~10% of a run; its
    // smaller inception-wu form is in. Seven lines take under 0.1 s and
    // three (alexnet and both resnet18 lines on simba) ~0.2 s; the seven
    // slower lines put the median request in the middle of those three.
    // With fewer, it falls on their fastest sample or on the slow end of
    // the tcl requests, and p50 swings 15-30% between runs.
    std::vector<MappingRequest> reqs = {
        netRequest("resnet18", "simba", "off"),
        netRequest("resnet18", "simba", "greedy"),
        netRequest("resnet18", "conventional", "off"),
        netRequest("alexnet", "simba", "off"),
        netRequest("vgg16", "simba", "off"),
        netRequest("inception-wu", "simba", "off"),
        netRequest("resnet18", "eyeriss", "off"),
        netRequest("alexnet", "eyeriss", "off"),
        netRequest("alexnet", "conventional", "off"),
        netRequest("depthwise", "simba", "off"),
        netRequest("tcl", "conventional", "off"),
        netRequest("tcl", "conventional", "greedy"),
        netRequest("nondnn", "conventional", "off"),
        netRequest("attention", "conventional", "off", 128),
        netRequest("attention", "conventional", "greedy", 128),
        netRequest("attention", "conventional", "off", 256),
        netRequest("attention", "conventional", "greedy", 256),
    };
    Rng rng = passRng("net-cold", seed, pass);
    rng.shuffle(reqs);
    std::vector<Line> out;
    for (std::size_t i = 0; i < reqs.size(); ++i)
        out.push_back(wellFormed(reqs[i], lineId("net-cold", pass, i)));
    return out;
}

// -- search-ttq ----------------------------------------------------------

std::vector<Line>
searchTtqPass(std::uint64_t seed, int pass)
{
    std::vector<Workload> layers;
    {
        ConvShape sh;
        sh.n = 1;
        sh.k = 128;
        sh.c = 128;
        sh.p = 56;
        sh.q = 56;
        sh.r = 3;
        sh.s = 3;
        sh.name = "conv_n1k128c128p56";
        layers.push_back(makeConv2D(sh));
    }
    layers.push_back(makeGemm(1024, 1024, 64));
    for (const Layer &l : nonDnnSuite())
        layers.push_back(l.workload);

    Rng seeds = passRng("search-ttq", kCatalogueSeed, pass);
    std::vector<MappingRequest> reqs;
    for (const Workload &wl : layers) {
        MappingRequest tl = einsumRequest(wl, "conventional");
        tl.mapper = "timeloop";
        tl.maxEvals = 32000;
        tl.plateau = 32000;
        tl.seed = seeds.below(1u << 30);
        reqs.push_back(tl);

        // The GA finds no valid mapping for the nell-2 and netflix
        // tensors under many seeds, so it runs on the other shapes only.
        const std::string &n = wl.name();
        if (n.find("nell2") != std::string::npos ||
            n.find("netflix") != std::string::npos)
            continue;
        MappingRequest ga = einsumRequest(wl, "conventional");
        ga.mapper = "gamma";
        ga.seed = seeds.below(1u << 30);
        reqs.push_back(ga);
    }
    passRng("search-ttq", seed, pass).shuffle(reqs);
    std::vector<Line> out;
    for (std::size_t i = 0; i < reqs.size(); ++i)
        out.push_back(wellFormed(reqs[i], lineId("search-ttq", pass, i)));
    return out;
}

// -- serve-repeat --------------------------------------------------------

/** The ~40 requests a compiler asks for again and again, hottest first. */
std::vector<MappingRequest>
repeatCatalogue()
{
    // resnet18 conv layers on the Simba-like accelerator; alexnet and
    // resnet18 conv layers on the conventional one.
    std::vector<MappingRequest> simba, conventional, small, nets;
    for (const Layer &l : resnet18Layers(1))
        simba.push_back(einsumRequest(l.workload, "simba"));
    for (const Layer &l : alexnetLayers(1))
        conventional.push_back(einsumRequest(l.workload, "conventional"));
    for (const Layer &l : resnet18Layers(1))
        conventional.push_back(einsumRequest(l.workload, "conventional"));
    // Small einsums, each at most 2^20 MACs so the nest oracle checks
    // every access counter of their answers.
    small.push_back(einsumRequest(makeGemm(64, 64, 64), "conventional"));
    small.push_back(einsumRequest(makeGemm(128, 64, 64), "conventional"));
    small.push_back(einsumRequest(makeGemm(128, 128, 64), "conventional"));
    small.push_back(einsumRequest(makeGemm(256, 64, 32), "simba"));
    small.push_back(
        einsumRequest(makeMTTKRP(32, 16, 16, 8, "mttkrp_s"), "conventional"));
    small.push_back(
        einsumRequest(makeMTTKRP(64, 32, 16, 16, "mttkrp_m"), "conventional"));
    small.push_back(einsumRequest(makeConv1D(64, 32, 56, 3), "conventional"));
    small.push_back(einsumRequest(makeConv1D(32, 64, 28, 5), "simba"));
    for (std::int64_t seq : {64, 128})
        for (const char *fuse : {"off", "greedy"})
            nets.push_back(netRequest("attention", "conventional", fuse, seq));

    // Interleave the kinds so the hot end of the Zipf ranking mixes them.
    std::vector<MappingRequest> out;
    const std::size_t total =
        simba.size() + conventional.size() + small.size() + nets.size();
    for (std::size_t i = 0; out.size() < total; ++i) {
        for (auto *v : {&simba, &small, &conventional, &nets})
            if (i < v->size())
                out.push_back((*v)[i]);
    }
    return out;
}

constexpr int kRepeatLines = 2000;

std::vector<Line>
serveRepeatPass(std::uint64_t seed, int pass)
{
    const std::vector<MappingRequest> cat = repeatCatalogue();
    const int healthLines = kRepeatLines * 2 / 100;
    const int badLines = kRepeatLines * 3 / 100;
    const int searches = kRepeatLines - healthLines - badLines;

    // Zipf(1.1) counts over the catalogue ranks, largest remainders
    // rounding so they sum to `searches` exactly.
    std::vector<double> w(cat.size());
    double wsum = 0;
    for (std::size_t k = 0; k < cat.size(); ++k)
        wsum += w[k] = std::pow(static_cast<double>(k + 1), -1.1);
    std::vector<int> counts(cat.size());
    std::vector<std::pair<double, std::size_t>> rem;
    int assigned = 0;
    for (std::size_t k = 0; k < cat.size(); ++k) {
        const double exact = searches * w[k] / wsum;
        counts[k] = static_cast<int>(exact);
        assigned += counts[k];
        rem.emplace_back(exact - counts[k], k);
    }
    std::sort(rem.rbegin(), rem.rend());
    for (std::size_t i = 0; assigned < searches; ++i, ++assigned)
        ++counts[rem[i].second];

    // Per entry, one line in five carries a seed never used before (a
    // result-cache miss whose search hits the memo); the rest cycle
    // through seeds {0, 1, 2}, so all but their first use are exact
    // repeats served from the result cache. Health and Bad slots carry no
    // request.
    enum class Kind { Search, Health, Bad };
    std::vector<std::pair<Kind, MappingRequest>> slots;
    std::uint64_t freshSeed = 3;
    for (std::size_t k = 0; k < cat.size(); ++k)
        for (int j = 0; j < counts[k]; ++j) {
            MappingRequest r = cat[k];
            r.seed = j % 5 == 4 ? freshSeed++ : j % 3;
            slots.emplace_back(Kind::Search, std::move(r));
        }
    slots.resize(slots.size() + healthLines, {Kind::Health, {}});
    slots.resize(slots.size() + badLines, {Kind::Bad, {}});
    Rng rng = passRng("serve-repeat", seed, pass);
    rng.shuffle(slots);

    std::vector<Line> lines;
    int badKind = 0;
    for (std::size_t i = 0; i < slots.size(); ++i) {
        const std::string id = lineId("serve-repeat", pass, i);
        switch (slots[i].first) {
        case Kind::Search:
            lines.push_back(wellFormed(slots[i].second, id));
            break;
        case Kind::Health:
            lines.push_back(health(id));
            break;
        case Kind::Bad:
            lines.push_back(malformed(badKind++, id));
            break;
        }
    }
    return lines;
}

// -- serve-churn ---------------------------------------------------------

/** Lines per serve-churn pass. */
constexpr std::size_t kChurnPassLines = 250;

/**
 * The first `n` shapes of serve-churn's sequence of distinct shapes, all
 * for the Simba-like accelerator: half conv, half matmul. Independently
 * of the shape, 30% of the lines use random search and a quarter
 * warm-start. The sequence ends early (at over 9000 shapes) when a kind
 * runs out of new shapes.
 */
std::vector<MappingRequest>
churnShapes(std::size_t n)
{
    static const std::int64_t chans[] = {8,  12, 16,  24,  32,  48,
                                         64, 96, 128, 160, 192, 256};
    static const std::int64_t outs[] = {7, 14, 28};
    static const std::int64_t sizes[] = {32,  48,  64,  80,  96,  112,
                                         128, 160, 192, 224, 256, 320,
                                         384, 512, 640, 768};
    auto pick = [](Rng &rng, const auto &v) {
        return std::to_string(v[rng.below(std::size(v))]);
    };
    Rng rng(kCatalogueSeed);
    std::set<std::string> seen;
    std::vector<MappingRequest> out;
    for (int repeats = 0; out.size() < n && repeats < 100000;) {
        const std::size_t i = out.size();
        MappingRequest r;
        if (i % 2 == 0) {
            const std::string rs = rng.below(2) ? "3" : "1";
            r.conv = "n=" + std::to_string(1 + rng.below(2)) +
                     ",k=" + pick(rng, chans) + ",c=" + pick(rng, chans) +
                     ",p=" + pick(rng, outs) + ",q=" + pick(rng, outs) +
                     ",r=" + rs + ",s=" + rs;
        } else {
            r.einsum = "out[i,j] = A[i,k] * B[k,j]";
            r.dims = "i=" + pick(rng, sizes) + ",j=" + pick(rng, sizes) +
                     ",k=" + pick(rng, sizes);
        }
        if (!seen.insert(r.conv + r.dims).second) {
            ++repeats;
            continue;
        }
        repeats = 0;
        r.archName = "simba";
        if (i / 2 % 10 < 3) {
            r.mapper = "timeloop";
            r.maxEvals = 4000;
        }
        r.warmStart = i / 20 % 4 == 0;
        out.push_back(r);
    }
    return out;
}

/**
 * Pass `pass` takes the next kChurnPassLines shapes of the sequence, so
 * the run-long session never sees a shape twice.
 */
std::vector<Line>
serveChurnPass(std::uint64_t seed, int pass)
{
    const std::size_t first = static_cast<std::size_t>(pass) * kChurnPassLines;
    const std::vector<MappingRequest> shapes =
        churnShapes(first + kChurnPassLines);
    std::vector<MappingRequest> reqs(
        shapes.begin() + static_cast<std::ptrdiff_t>(
                             std::min(first, shapes.size())),
        shapes.end());
    Rng seeds = passRng("serve-churn", kCatalogueSeed, pass);
    for (MappingRequest &r : reqs)
        if (r.mapper == "timeloop")
            r.seed = seeds.below(1u << 30);
    passRng("serve-churn", seed, pass).shuffle(reqs);
    std::vector<Line> out;
    for (std::size_t i = 0; i < reqs.size(); ++i)
        out.push_back(wellFormed(reqs[i], lineId("serve-churn", pass, i)));
    return out;
}

} // anonymous namespace

const std::vector<WorkloadSpec> &
workloads()
{
    static const std::vector<WorkloadSpec> all = {
        {"net-cold", SessionScope::Line, netColdPass},
        {"serve-repeat", SessionScope::Pass, serveRepeatPass},
        {"serve-churn", SessionScope::Run, serveChurnPass},
        {"search-ttq", SessionScope::Line, searchTtqPass},
    };
    return all;
}

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &w : workloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

} // namespace bench
} // namespace sunstone
