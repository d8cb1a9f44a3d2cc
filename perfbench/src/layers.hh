/**
 * @file
 * Per-layer replays of the traced run: each calls one module's public
 * batched entry point in isolation, at the lane count its workload
 * runs, and reports time per call. Replays use the batched forms only
 * (CompiledLayer::stepBatch, LinearKernel::applyBatch,
 * nn::LinearOp::forwardBatchAcc/backwardBatch), with one column for a
 * single lane.
 */

#ifndef ERNN_PERFBENCH_LAYERS_HH
#define ERNN_PERFBENCH_LAYERS_HH

#include <functional>

#include "harness.hh"
#include "runtime/compiled_model.hh"

namespace perfbench
{

/**
 * Median microseconds per call of @p call: one warm-up call, then five
 * repetitions of as many calls as fill about 20 ms each.
 */
double microsPerCall(const std::function<void()> &call);

/**
 * Replay every recurrent layer (stepBatch), the classifier and each
 * recurrent-layer kernel (applyBatch) of @p model at @p lanes lanes,
 * with a compute pool of @p computeThreads threads as the workload's
 * sessions use. Sets runtime.layer.<i>.us_per_step,
 * runtime.classifier.us_per_step and
 * runtime.kernel.<backend>.{us_per_call,gmacs,mac_per_byte}.
 */
void replayCompiledModel(const ernn::runtime::CompiledModel &model,
                         std::size_t lanes, std::size_t computeThreads,
                         Result &out);

/**
 * Replay the training-side circulant operator of a rows x cols,
 * block-@p block weight at @p lanes lanes: sets
 * nn.linear.circulant.fwd_us and nn.linear.circulant.bwd_us.
 */
void replayCirculantLinear(std::size_t rows, std::size_t cols,
                           std::size_t block, std::size_t lanes,
                           Result &out);

} // namespace perfbench

#endif // ERNN_PERFBENCH_LAYERS_HH
