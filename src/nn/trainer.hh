/**
 * @file
 * Sequence trainer: mini-batch BPTT with gradient clipping over a
 * dataset of labeled frame sequences, plus evaluation helpers. The
 * ADMM trainer builds on this via the gradient hook (the quadratic
 * regularizer of Eqn. 5 is injected between backward and the
 * optimizer step).
 *
 * The loop is batch-major: it pools utterance lanes longest-first
 * and runs one GEMM-shaped call per weight per timestep (mirroring
 * the serving runtime's lane pooling), splitting each optimizer batch
 * into fixed gradient groups that backprop on private model replicas
 * and reduce in group-index order — so a given seed produces
 * byte-identical weights at any thread count. The vector-at-a-time
 * parity oracle lives in tests/test_train_batch.cc.
 */

#ifndef ERNN_NN_TRAINER_HH
#define ERNN_NN_TRAINER_HH

#include <functional>
#include <string>
#include <vector>

#include "base/random.hh"
#include "nn/optimizer.hh"
#include "nn/rnn.hh"
#include "runtime/thread_pool.hh"

namespace ernn::nn
{

/** One labeled utterance: per-frame features and phone labels. */
struct SequenceExample
{
    Sequence frames;
    std::vector<int> labels;
};

using SequenceDataset = std::vector<SequenceExample>;

/** Trainer configuration. */
struct TrainConfig
{
    std::size_t epochs = 5;
    Real lr = 1e-2;
    Real clipNorm = 5.0;
    std::size_t batchSize = 4; //!< sequences per optimizer step
    std::uint64_t shuffleSeed = 1;
    enum class Opt { Sgd, Adam };
    Opt optimizer = Opt::Adam;
    bool verbose = false;

    /** Execution lanes for gradient groups + parallel evaluation. */
    std::size_t threads = 1;

    /**
     * Utterance lanes pooled per gradient group (0 = the whole
     * optimizer batch in one group). Together with batchSize this
     * fixes the gradient summation order — changing it moves final
     * weights at the last bit; changing threads never does, because
     * groups are reduced in fixed index order regardless of which
     * thread ran them.
     */
    std::size_t batchLanes = 0;

    /** Checkpoint file rewritten after every epoch ("" = disabled). */
    std::string checkpointPath;

    /** Resume from checkpointPath when the file exists. */
    bool resume = false;

    /** Effective lanes per gradient group. */
    std::size_t groupLanes() const
    {
        const std::size_t lanes = batchLanes ? batchLanes : batchSize;
        return lanes < batchSize ? lanes : batchSize;
    }
};

/** Per-epoch training log entry. */
struct EpochLog
{
    Real trainLoss = 0.0;
    Real gradNorm = 0.0;
    Real wallMs = 0.0;       //!< epoch wall-clock time
    Real framesPerSec = 0.0; //!< training throughput
    std::size_t frames = 0;  //!< frames processed this epoch
};

/** Aggregate training result. */
struct TrainResult
{
    std::vector<EpochLog> epochs;
    Real finalLoss() const
    {
        return epochs.empty() ? 0.0 : epochs.back().trainLoss;
    }
};

/** Evaluation metrics on a dataset. */
struct EvalResult
{
    Real frameAccuracy = 0.0;
    Real crossEntropy = 0.0;
    std::size_t frames = 0;
};

class Trainer
{
  public:
    /** Called after gradients are accumulated, before the step. */
    using GradHook = std::function<void(ParamRegistry &)>;

    Trainer(StackedRnn &model, const TrainConfig &cfg);

    /** Install an ADMM-style gradient hook (may be empty). */
    void setGradHook(GradHook hook) { hook_ = std::move(hook); }

    /** Run the configured number of epochs (resuming if configured). */
    TrainResult train(const SequenceDataset &data);

    /** Forward-only evaluation, serial per-utterance (the oracle). */
    static EvalResult evaluate(StackedRnn &model,
                               const SequenceDataset &data);

    /**
     * Forward-only evaluation over the batched datapath, parallel
     * across the pool. Per-sequence results are stored by dataset
     * index and summed in dataset order, so the result is exactly
     * equal — every bit — to the static serial form.
     */
    EvalResult evaluate(const SequenceDataset &data);

  private:
    /** Per-group loss/frame tallies (reduced in group order). */
    struct GroupStats
    {
        Real loss = 0.0;
        std::size_t frames = 0;
    };

    void ensureReplicas(std::size_t n);
    GroupStats runGroup(StackedRnn &model, const SequenceDataset &data,
                        const std::size_t *idx, std::size_t count,
                        Real inv_batch);

    StackedRnn &model_;
    TrainConfig cfg_;
    std::unique_ptr<Optimizer> opt_;
    GradHook hook_;
    runtime::ThreadPool pool_;

    /**
     * Cloned-architecture replicas for gradient groups 1.. (group 0
     * runs on the master model). Each group owns its replica for the
     * whole parallel region, so ranges race on nothing; replicas are
     * param-synced from the master at every batch.
     */
    std::vector<StackedRnn> replicas_;
};

} // namespace ernn::nn

#endif // ERNN_NN_TRAINER_HH
