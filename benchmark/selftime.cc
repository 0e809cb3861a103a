#include "selftime.hh"

#include <algorithm>

namespace sunstone {
namespace bench {

std::string
baseSpanName(const std::string &name)
{
    return name.substr(0, name.find(':'));
}

void
aggregateSelfTime(const std::vector<obs::SpanRecord> &spans,
                  std::map<std::string, SpanTotals> &out)
{
    // Parents sort before their children: by thread, then start, then
    // longer first (a child may start on the same nanosecond).
    std::vector<const obs::SpanRecord *> order;
    order.reserve(spans.size());
    for (const obs::SpanRecord &s : spans)
        order.push_back(&s);
    std::sort(order.begin(), order.end(),
              [](const obs::SpanRecord *a, const obs::SpanRecord *b) {
                  if (a->threadIndex != b->threadIndex)
                      return a->threadIndex < b->threadIndex;
                  if (a->startNs != b->startNs)
                      return a->startNs < b->startNs;
                  return a->durNs > b->durNs;
              });

    struct Open
    {
        SpanTotals *totals;
        std::int64_t endNs;
        std::int64_t selfNs;
    };
    std::vector<Open> stack;
    std::map<SpanTotals *, int> openByName;
    auto close = [&] {
        const Open &o = stack.back();
        o.totals->selfNs += o.selfNs;
        --openByName[o.totals];
        stack.pop_back();
    };

    int thread = -1;
    for (const obs::SpanRecord *s : order) {
        if (s->threadIndex != thread) {
            while (!stack.empty())
                close();
            thread = s->threadIndex;
        }
        const std::int64_t end = s->startNs + s->durNs;
        while (!stack.empty() && stack.back().endNs <= s->startNs)
            close();
        if (!stack.empty()) {
            Open &parent = stack.back();
            parent.selfNs -= std::min(end, parent.endNs) - s->startNs;
        }
        SpanTotals &t = out[baseSpanName(s->name)];
        ++t.count;
        t.totalNs += s->durNs;
        if (openByName[&t]++ == 0)
            t.outerNs += s->durNs;
        stack.push_back({&t, end, s->durNs});
    }
    while (!stack.empty())
        close();
}

} // namespace bench
} // namespace sunstone
