#include "mappers/mapper.hh"

namespace sunstone {

MapperResult
Mapper::optimize(const BoundArch &ba)
{
    SearchContext sc;
    return optimize(sc, ba);
}

MapperResult
Mapper::toMapperResult(const DriverOutcome &o,
                       const std::string &not_found_reason)
{
    MapperResult r;
    r.mappingsEvaluated = o.evaluated;
    r.seconds = o.seconds;
    r.stopReason = stopReasonName(o.reason);
    if (o.found) {
        r.found = true;
        r.mapping = o.best;
        r.cost = o.bestCost;
    } else {
        r.invalid = true;
        if (!not_found_reason.empty())
            r.invalidReason = not_found_reason;
        else if (!o.firstInvalidReason.empty())
            r.invalidReason = o.firstInvalidReason;
        else
            r.invalidReason = "no valid mapping found";
    }
    return r;
}

} // namespace sunstone
