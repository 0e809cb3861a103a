/**
 * @file
 * Answer checks. Every ok answer is verified independently of the
 * session that produced it:
 *
 *  - each winning mapping (per layer for Net answers) re-evaluates
 *    through the raw analytical model, evaluateMapping(), to the EDP and
 *    access counters the answer reports, and the network totals add up;
 *  - non-fused mappings of at most 2^20 MACs match the loop-nest oracle,
 *    simulateAccessCounts(), on every per-level, per-tensor counter
 *    (fused members are re-evaluated only: the oracle does not model
 *    residency);
 *  - each mapping survives a mappingToText/mappingFromText round trip,
 *    and the rendered line carries the same EDP and mapping text;
 *  - a cached answer equals the session's original answer to the same
 *    request, apart from the id, the cached flag, timing and the engine
 *    delta;
 *  - malformed lines are answered ok:false, well-formed lines ok:true.
 */

#ifndef SUNSTONE_BENCHMARK_CHECKS_HH
#define SUNSTONE_BENCHMARK_CHECKS_HH

#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>

#include "service/request.hh"
#include "workloads.hh"

namespace sunstone {
namespace bench {

class AnswerChecker
{
  public:
    /**
     * Checks one answer. `req` is null when the line did not parse;
     * `rendered` is the response line the front end produced.
     * @return "" when every check passes, else the first failure.
     */
    std::string check(const Line &line, const service::MappingRequest *req,
                      const service::MappingResponse &resp,
                      const std::string &rendered);

    /** Forgets the original answers (call when the session changes). */
    void newSession() { originals_.clear(); }

  private:
    std::string checkMap(const service::MappingRequest &req,
                         const service::MappingResponse &resp);
    std::string checkNet(const service::MappingRequest &req,
                         const service::MappingResponse &resp);
    std::string checkMapping(const BoundArch &ba, const Mapping &m,
                             const CostResult &reported, bool oracle);

    /** Canonical request -> rendered answer body, for cached answers. */
    std::unordered_map<std::string, std::string> originals_;
    /** Mappings the oracle already confirmed (the oracle is slow). */
    std::set<std::string> oracleConfirmed_;
};

/** Folds the deterministic content of an answer into `h` (FNV-1a). */
std::uint64_t hashAnswer(std::uint64_t h,
                         const service::MappingResponse &resp);

} // namespace bench
} // namespace sunstone

#endif // SUNSTONE_BENCHMARK_CHECKS_HH
