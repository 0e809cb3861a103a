/**
 * @file
 * Name of the evaluation backend. Every evaluation runs the scalar cost
 * model (cost_model.hh): EvalEngine's one evaluation loop, which
 * evaluate() and evaluateBatch() share, evaluates its mappings one by
 * one through evaluateMappingInto() in the calling thread.
 *
 * Nothing in the library reads this header. It stays only because
 * benchmark/driver.cc prints backendName() in its run header and JSON
 * result; drop it together with that line in the next change to the
 * benchmark (ROADMAP item 4d).
 */

#ifndef SUNSTONE_MODEL_BATCH_EVAL_HH
#define SUNSTONE_MODEL_BATCH_EVAL_HH

namespace sunstone {

struct BatchEvaluator
{
    /** @return the evaluation backend, always "scalar". */
    static const char *backendName() { return "scalar"; }
};

} // namespace sunstone

#endif // SUNSTONE_MODEL_BATCH_EVAL_HH
