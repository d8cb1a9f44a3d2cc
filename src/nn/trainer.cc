#include "nn/trainer.hh"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "base/logging.hh"
#include "nn/loss.hh"
#include "nn/train_checkpoint.hh"
#include "tensor/matrix.hh"

namespace ernn::nn
{

namespace
{

/**
 * Dataset indices of one gradient group, pooled longest-first so the
 * batch-major layers see non-increasing lane counts (the ragged tail
 * retires from the right, mirroring the serving runtime's pooling).
 * Zero-frame sequences are dropped: they still count toward the 1/B
 * batch average but contribute no frames or gradients.
 */
std::vector<std::size_t>
poolLanes(const SequenceDataset &data, const std::size_t *idx,
          std::size_t count)
{
    std::vector<std::size_t> lanes(idx, idx + count);
    std::stable_sort(lanes.begin(), lanes.end(),
                     [&data](std::size_t a, std::size_t b) {
                         return data[a].frames.size() >
                                data[b].frames.size();
                     });
    while (!lanes.empty() && data[lanes.back()].frames.empty())
        lanes.pop_back();
    return lanes;
}

/** Pack the pooled lanes into batch-major per-timestep matrices. */
BatchSequence
packInputs(const SequenceDataset &data,
           const std::vector<std::size_t> &lanes)
{
    BatchSequence xs;
    if (lanes.empty())
        return xs;
    const std::size_t total = data[lanes[0]].frames.size();
    xs.resize(total);
    for (std::size_t t = 0; t < total; ++t) {
        std::size_t width = 0;
        while (width < lanes.size() &&
               data[lanes[width]].frames.size() > t)
            ++width;
        const std::size_t dim = data[lanes[0]].frames[t].size();
        xs[t].reshape(dim, width);
        for (std::size_t l = 0; l < width; ++l) {
            const Vector &frame = data[lanes[l]].frames[t];
            for (std::size_t r = 0; r < dim; ++r)
                xs[t].at(r, l) = frame[r];
        }
    }
    return xs;
}

/** Column @p lane of the first @p frames timesteps, as a Sequence. */
Sequence
extractLane(const BatchSequence &ys, std::size_t lane,
            std::size_t frames)
{
    Sequence out(frames);
    for (std::size_t t = 0; t < frames; ++t) {
        const Matrix &m = ys[t];
        out[t].resize(m.rows());
        for (std::size_t r = 0; r < m.rows(); ++r)
            out[t][r] = m.at(r, lane);
    }
    return out;
}

/** Per-sequence evaluation tallies, indexed by dataset position. */
struct SeqStats
{
    Real lossTimesFrames = 0.0;
    std::size_t correct = 0;
    std::size_t frames = 0;
};

/**
 * Forward-only batched evaluation of sequences idx[0..count) into
 * per-dataset-index slots. Each lane's loss is computed on its
 * extracted logit column, so it matches the solo forward bit for bit.
 */
void
evalGroup(StackedRnn &model, const SequenceDataset &data,
          const std::size_t *idx, std::size_t count,
          std::vector<SeqStats> &per)
{
    const std::vector<std::size_t> lanes = poolLanes(data, idx, count);
    if (lanes.empty())
        return;
    const BatchSequence xs = packInputs(data, lanes);
    const BatchSequence logits = model.forwardLogitsBatch(xs);
    for (std::size_t l = 0; l < lanes.size(); ++l) {
        const SequenceExample &ex = data[lanes[l]];
        const Sequence laneLogits =
            extractLane(logits, l, ex.frames.size());
        const LossResult loss =
            softmaxCrossEntropy(laneLogits, ex.labels);
        SeqStats &s = per[lanes[l]];
        s.lossTimesFrames =
            loss.loss * static_cast<Real>(loss.frames);
        s.correct = loss.correct;
        s.frames = loss.frames;
    }
}

} // namespace

Trainer::Trainer(StackedRnn &model, const TrainConfig &cfg)
    : model_(model), cfg_(cfg), pool_(cfg.threads)
{
    if (cfg.optimizer == TrainConfig::Opt::Adam)
        opt_ = std::make_unique<Adam>(cfg.lr);
    else
        opt_ = std::make_unique<Sgd>(cfg.lr);
}

void
Trainer::ensureReplicas(std::size_t n)
{
    while (replicas_.size() < n)
        replicas_.push_back(model_.cloneArchitecture());
}

Trainer::GroupStats
Trainer::runGroup(StackedRnn &model, const SequenceDataset &data,
                  const std::size_t *idx, std::size_t count,
                  Real inv_batch)
{
    GroupStats stats;
    const std::vector<std::size_t> lanes = poolLanes(data, idx, count);
    if (lanes.empty())
        return stats;
    const BatchSequence xs = packInputs(data, lanes);
    const BatchSequence logits = model.forwardLogitsBatch(xs);

    BatchSequence dlogits(logits.size());
    for (std::size_t t = 0; t < logits.size(); ++t)
        dlogits[t].reshape(logits[t].rows(), logits[t].cols());
    for (std::size_t l = 0; l < lanes.size(); ++l) {
        const SequenceExample &ex = data[lanes[l]];
        const Sequence laneLogits =
            extractLane(logits, l, ex.frames.size());
        const LossResult loss =
            softmaxCrossEntropy(laneLogits, ex.labels);
        stats.loss += loss.loss;
        stats.frames += loss.frames;
        // The 1/B batch average is folded into the logit gradients
        // here, so no O(params) rescale pass runs after backward.
        for (std::size_t t = 0; t < ex.frames.size(); ++t) {
            const Vector &dl = loss.dlogits[t];
            for (std::size_t r = 0; r < dl.size(); ++r)
                dlogits[t].at(r, l) = inv_batch * dl[r];
        }
    }
    model.backwardFromLogitsBatch(dlogits);
    return stats;
}

TrainResult
Trainer::train(const SequenceDataset &data)
{
    ernn_assert(!data.empty(), "training on an empty dataset");
    ParamRegistry &reg = model_.params();
    Rng shuffle_rng(cfg_.shuffleSeed);
    const std::uint64_t fingerprint = trainingFingerprint(reg, cfg_);

    TrainResult result;
    std::size_t start_epoch = 0;
    if (cfg_.resume && !cfg_.checkpointPath.empty()) {
        TrainState st;
        if (loadTrainState(cfg_.checkpointPath, st, reg,
                           fingerprint)) {
            ernn_assert(st.optimizerKind == opt_->kindName(),
                        "training checkpoint optimizer is '"
                        << st.optimizerKind << "', this run uses '"
                        << opt_->kindName() << "'");
            opt_->importState(st.optimizer, reg);
            shuffle_rng.restoreState(st.shuffleRng);
            result.epochs = st.epochs;
            start_epoch = static_cast<std::size_t>(st.nextEpoch);
            if (cfg_.verbose)
                ernn_inform("resumed training at epoch "
                            << start_epoch + 1 << " from '"
                            << cfg_.checkpointPath << "'");
        }
    }

    std::vector<std::size_t> order(data.size());
    const std::size_t gl = cfg_.groupLanes();

    for (std::size_t epoch = start_epoch; epoch < cfg_.epochs;
         ++epoch) {
        const auto wall0 = std::chrono::steady_clock::now();
        // Each epoch's order is a pure function of (seed, epochs
        // completed): reset to identity before shuffling so a
        // resumed run replays the exact same permutation stream.
        std::iota(order.begin(), order.end(), 0);
        shuffle_rng.shuffle(order);

        Real epoch_loss = 0.0;
        Real last_norm = 0.0;
        std::size_t epoch_frames = 0;

        reg.zeroGrad();
        for (std::size_t start = 0; start < data.size();
             start += cfg_.batchSize) {
            const std::size_t b =
                std::min(cfg_.batchSize, data.size() - start);
            const Real inv_batch = 1.0 / static_cast<Real>(b);

            const std::size_t num_groups = (b + gl - 1) / gl;
            if (num_groups == 1) {
                const GroupStats s = runGroup(
                    model_, data, order.data() + start, b, inv_batch);
                epoch_loss += s.loss;
                epoch_frames += s.frames;
            } else {
                ensureReplicas(num_groups - 1);
                for (std::size_t g = 1; g < num_groups; ++g) {
                    replicas_[g - 1].copyParamsFrom(model_);
                    replicas_[g - 1].params().zeroGrad();
                }
                std::vector<GroupStats> stats(num_groups);
                auto task = [&](std::size_t gb, std::size_t ge) {
                    for (std::size_t g = gb; g < ge; ++g) {
                        StackedRnn &m =
                            g == 0 ? model_ : replicas_[g - 1];
                        const std::size_t off = g * gl;
                        stats[g] = runGroup(
                            m, data, order.data() + start + off,
                            std::min(gl, b - off), inv_batch);
                    }
                };
                pool_.parallelFor(num_groups, task);
                // Reduce replica gradients into the master in
                // ascending group order — fixed regardless of which
                // thread ran which group, so the final weights are
                // thread-count invariant.
                for (std::size_t g = 1; g < num_groups; ++g) {
                    ParamRegistry &rep = replicas_[g - 1].params();
                    for (std::size_t i = 0; i < reg.views().size();
                         ++i) {
                        ParamView &dst = reg.views()[i];
                        const ParamView &src = rep.views()[i];
                        for (std::size_t k = 0; k < dst.size; ++k)
                            dst.grad[k] += src.grad[k];
                    }
                }
                for (std::size_t g = 0; g < num_groups; ++g) {
                    epoch_loss += stats[g].loss;
                    epoch_frames += stats[g].frames;
                }
            }

            if (hook_)
                hook_(reg);
            last_norm = clipGradNorm(reg, cfg_.clipNorm);
            opt_->step(reg);
            reg.zeroGrad();
        }

        EpochLog log;
        log.trainLoss = epoch_loss / static_cast<Real>(data.size());
        log.gradNorm = last_norm;
        log.frames = epoch_frames;
        const auto wall1 = std::chrono::steady_clock::now();
        log.wallMs = std::chrono::duration<double, std::milli>(
                         wall1 - wall0)
                         .count();
        log.framesPerSec =
            log.wallMs > 0.0
                ? static_cast<Real>(epoch_frames) /
                      (log.wallMs / 1000.0)
                : 0.0;
        result.epochs.push_back(log);
        if (cfg_.verbose) {
            ernn_inform("epoch " << epoch + 1 << "/" << cfg_.epochs
                        << " loss " << log.trainLoss << " ("
                        << log.framesPerSec << " frames/s)");
        }

        if (!cfg_.checkpointPath.empty()) {
            TrainState st;
            st.nextEpoch = epoch + 1;
            st.epochs = result.epochs;
            st.shuffleRng = shuffle_rng.saveState();
            st.optimizerKind = opt_->kindName();
            st.optimizer = opt_->exportState();
            saveTrainState(cfg_.checkpointPath, st, reg, fingerprint);
        }
    }
    return result;
}

EvalResult
Trainer::evaluate(StackedRnn &model, const SequenceDataset &data)
{
    EvalResult out;
    Real loss_sum = 0.0;
    std::size_t correct = 0;
    for (const auto &ex : data) {
        const Sequence logits = model.forwardLogits(ex.frames);
        const LossResult loss = softmaxCrossEntropy(logits, ex.labels);
        loss_sum += loss.loss * static_cast<Real>(loss.frames);
        correct += loss.correct;
        out.frames += loss.frames;
    }
    if (out.frames) {
        out.frameAccuracy = static_cast<Real>(correct) /
                            static_cast<Real>(out.frames);
        out.crossEntropy = loss_sum / static_cast<Real>(out.frames);
    }
    return out;
}

EvalResult
Trainer::evaluate(const SequenceDataset &data)
{
    std::vector<SeqStats> per(data.size());
    std::vector<std::size_t> ident(data.size());
    std::iota(ident.begin(), ident.end(), 0);

    const std::size_t gl = cfg_.groupLanes() ? cfg_.groupLanes() : 1;
    const std::size_t num_groups = (data.size() + gl - 1) / gl;
    // Strided part scheme: part p owns groups p, p + parts, ... on
    // its own replica, so `parts` replicas cover any group count.
    const std::size_t parts =
        std::max<std::size_t>(
            1, std::min(pool_.threads(), num_groups));
    if (parts > 1) {
        ensureReplicas(parts - 1);
        for (std::size_t p = 1; p < parts; ++p)
            replicas_[p - 1].copyParamsFrom(model_);
    }

    auto task = [&](std::size_t pb, std::size_t pe) {
        for (std::size_t p = pb; p < pe; ++p) {
            StackedRnn &m = p == 0 ? model_ : replicas_[p - 1];
            for (std::size_t g = p; g < num_groups; g += parts) {
                const std::size_t off = g * gl;
                evalGroup(m, data, ident.data() + off,
                          std::min(gl, data.size() - off), per);
            }
        }
    };
    pool_.parallelFor(parts, task);

    // Sum in dataset order: exactly the serial static evaluate.
    EvalResult out;
    Real loss_sum = 0.0;
    std::size_t correct = 0;
    for (const SeqStats &s : per) {
        loss_sum += s.lossTimesFrames;
        correct += s.correct;
        out.frames += s.frames;
    }
    if (out.frames) {
        out.frameAccuracy = static_cast<Real>(correct) /
                            static_cast<Real>(out.frames);
        out.crossEntropy = loss_sum / static_cast<Real>(out.frames);
    }
    return out;
}

} // namespace ernn::nn
