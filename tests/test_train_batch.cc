/**
 * @file
 * Batch-major training datapath tests, gated on a vector-at-a-time
 * oracle that lives here (trainVectorOracle):
 *
 *  - batched forward is bit-identical per lane to the solo forward
 *    (LSTM + GRU, dense + circulant, ragged lengths),
 *  - batched BPTT matches solo-accumulated gradients (summation
 *    order differs, so tolerance parity),
 *  - a fixed seed yields byte-identical final weights at any thread
 *    count (gradient groups reduce in fixed index order),
 *  - checkpoint/resume is bit-equivalent to an uninterrupted run,
 *    and malformed/mismatched checkpoints die with named fatals,
 *  - the parallel batched evaluate equals the serial oracle exactly,
 *  - ADMM Phase I runs on the batched multicore path.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>

#include "admm/admm_trainer.hh"
#include "base/random.hh"
#include "nn/gru.hh"
#include "nn/loss.hh"
#include "nn/lstm.hh"
#include "nn/model_builder.hh"
#include "nn/optimizer.hh"
#include "nn/train_checkpoint.hh"
#include "nn/trainer.hh"
#include "speech/dataset.hh"

using namespace ernn;
using namespace ernn::nn;

namespace
{

/** Ragged solo sequences, longest first (0-frame tails included). */
std::vector<Sequence>
raggedInputs(const std::vector<std::size_t> &lengths, std::size_t dim,
             std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Sequence> seqs;
    for (std::size_t len : lengths) {
        Sequence xs(len);
        for (auto &x : xs) {
            x.resize(dim);
            rng.fillNormal(x, 1.0);
        }
        seqs.push_back(std::move(xs));
    }
    return seqs;
}

/** Pack longest-first solo sequences into batch-major timesteps. */
BatchSequence
packBatch(const std::vector<Sequence> &seqs)
{
    BatchSequence xs;
    if (seqs.empty() || seqs[0].empty())
        return xs;
    xs.resize(seqs[0].size());
    for (std::size_t t = 0; t < xs.size(); ++t) {
        std::size_t width = 0;
        while (width < seqs.size() && seqs[width].size() > t)
            ++width;
        const std::size_t dim = seqs[0][t].size();
        xs[t].reshape(dim, width);
        for (std::size_t l = 0; l < width; ++l)
            for (std::size_t r = 0; r < dim; ++r)
                xs[t].at(r, l) = seqs[l][t][r];
    }
    return xs;
}

/** Ragged batch shapes exercised by the parity tests. */
std::vector<std::vector<std::size_t>>
raggedShapes()
{
    return {
        {6},                                              // batch 1
        {5, 3},                                           // batch 2
        {7, 7, 4, 3, 2, 1, 0},                            // batch 7
        {9, 8, 8, 6, 6, 6, 5, 4, 4, 3, 2, 2, 1, 1, 0, 0}, // batch 16
    };
}

/** One layer of every (kind, backend) combination under test. */
std::vector<std::unique_ptr<RnnLayer>>
parityLayers()
{
    std::vector<std::unique_ptr<RnnLayer>> layers;

    LstmConfig dense_lstm;
    dense_lstm.inputSize = 5;
    dense_lstm.hiddenSize = 8;
    dense_lstm.peephole = true;
    dense_lstm.projectionSize = 6;
    layers.push_back(std::make_unique<LstmLayer>(dense_lstm));

    LstmConfig circ_lstm;
    circ_lstm.inputSize = 8;
    circ_lstm.hiddenSize = 8;
    circ_lstm.blockSizeInput = 4;
    circ_lstm.blockSizeRecurrent = 4;
    layers.push_back(std::make_unique<LstmLayer>(circ_lstm));

    GruConfig dense_gru;
    dense_gru.inputSize = 5;
    dense_gru.hiddenSize = 8;
    layers.push_back(std::make_unique<GruLayer>(dense_gru));

    GruConfig circ_gru;
    circ_gru.inputSize = 8;
    circ_gru.hiddenSize = 8;
    circ_gru.blockSizeInput = 4;
    circ_gru.blockSizeRecurrent = 4;
    layers.push_back(std::make_unique<GruLayer>(circ_gru));

    return layers;
}

/** a ~ b up to summation-order noise. */
void
expectClose(Real a, Real b, Real tol, const char *what)
{
    const Real scale = std::max({std::fabs(a), std::fabs(b), Real(1)});
    EXPECT_NEAR(a, b, tol * scale) << what;
}

std::vector<std::vector<Real>>
snapshotGrads(const ParamRegistry &reg)
{
    std::vector<std::vector<Real>> out;
    for (const auto &v : reg.views())
        out.emplace_back(v.grad, v.grad + v.size);
    return out;
}

std::vector<Real>
flattenParams(const ParamRegistry &reg)
{
    std::vector<Real> out;
    for (const auto &v : reg.views())
        out.insert(out.end(), v.data, v.data + v.size);
    return out;
}

speech::AsrDataset
tinyDataset()
{
    speech::AsrDataConfig cfg;
    cfg.numPhones = 6;
    cfg.featureDim = 8;
    cfg.trainUtterances = 18;
    cfg.testUtterances = 8;
    cfg.minFrames = 6;
    cfg.maxFrames = 14;
    return speech::makeSyntheticAsr(cfg);
}

ModelSpec
tinySpec(ModelType type, std::size_t block)
{
    ModelSpec spec;
    spec.type = type;
    spec.inputDim = 8;
    spec.numClasses = 6;
    spec.layerSizes = {16};
    if (block > 1)
        spec.blockSizes = {block};
    return spec;
}

StackedRnn
freshModel(const ModelSpec &spec, std::uint64_t seed)
{
    StackedRnn model = buildModel(spec);
    Rng rng(seed);
    model.initXavier(rng);
    return model;
}

/**
 * The vector-at-a-time training oracle: Trainer::train's loop — the
 * same shuffle stream, 1/B loss scaling, gradient clip and optimizer
 * step — with one utterance per forward/backward pass instead of
 * pooled lanes. The batched trainer must track it to summation-order
 * noise.
 */
TrainResult
trainVectorOracle(StackedRnn &model, const TrainConfig &cfg,
                  const SequenceDataset &data)
{
    ParamRegistry &reg = model.params();
    std::unique_ptr<Optimizer> opt;
    if (cfg.optimizer == TrainConfig::Opt::Adam)
        opt = std::make_unique<Adam>(cfg.lr);
    else
        opt = std::make_unique<Sgd>(cfg.lr);
    Rng shuffle_rng(cfg.shuffleSeed);
    std::vector<std::size_t> order(data.size());

    TrainResult result;
    for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
        std::iota(order.begin(), order.end(), 0);
        shuffle_rng.shuffle(order);
        EpochLog log;
        reg.zeroGrad();
        for (std::size_t start = 0; start < data.size();
             start += cfg.batchSize) {
            const std::size_t b =
                std::min(cfg.batchSize, data.size() - start);
            const Real inv_batch = 1.0 / static_cast<Real>(b);
            for (std::size_t i = 0; i < b; ++i) {
                const SequenceExample &ex = data[order[start + i]];
                LossResult loss = softmaxCrossEntropy(
                    model.forwardLogits(ex.frames), ex.labels);
                for (Vector &dl : loss.dlogits)
                    scaleInPlace(dl, inv_batch);
                model.backwardFromLogits(loss.dlogits);
                log.trainLoss += loss.loss;
                log.frames += loss.frames;
            }
            log.gradNorm = clipGradNorm(reg, cfg.clipNorm);
            opt->step(reg);
            reg.zeroGrad();
        }
        log.trainLoss /= static_cast<Real>(data.size());
        result.epochs.push_back(log);
    }
    return result;
}

} // namespace

// --- layer-level parity ------------------------------------------------

TEST(BatchedForward, BitIdenticalPerLane)
{
    for (auto &layer : parityLayers()) {
        Rng rng(41);
        layer->initXavier(rng);
        for (const auto &lengths : raggedShapes()) {
            const auto seqs =
                raggedInputs(lengths, layer->inputSize(), 7);
            std::vector<Sequence> solo;
            for (const auto &xs : seqs)
                solo.push_back(layer->forward(xs));

            const BatchSequence ys = layer->forwardBatch(
                packBatch(seqs));
            for (std::size_t l = 0; l < seqs.size(); ++l)
                for (std::size_t t = 0; t < seqs[l].size(); ++t)
                    for (std::size_t r = 0; r < solo[l][t].size();
                         ++r)
                        EXPECT_DOUBLE_EQ(ys[t].at(r, l),
                                         solo[l][t][r])
                            << "lane " << l << " t " << t << " row "
                            << r;
        }
    }
}

TEST(BatchedBackward, MatchesSoloAccumulatedGradients)
{
    for (auto &layer : parityLayers()) {
        Rng rng(43);
        layer->initXavier(rng);
        ParamRegistry reg;
        layer->registerParams(reg, "l");

        for (const auto &lengths : raggedShapes()) {
            const auto xs =
                raggedInputs(lengths, layer->inputSize(), 11);
            const auto dys =
                raggedInputs(lengths, layer->outputSize(), 13);

            // Solo oracle: accumulate every lane's BPTT into reg.
            reg.zeroGrad();
            std::vector<Sequence> solo_dx;
            for (std::size_t l = 0; l < xs.size(); ++l) {
                layer->forward(xs[l]);
                solo_dx.push_back(layer->backward(dys[l]));
            }
            const auto want = snapshotGrads(reg);

            reg.zeroGrad();
            layer->forwardBatch(packBatch(xs));
            const BatchSequence dxb =
                layer->backwardBatch(packBatch(dys));

            // Weight gradients: same terms, different lane
            // summation order.
            const auto got = snapshotGrads(reg);
            for (std::size_t i = 0; i < want.size(); ++i)
                for (std::size_t k = 0; k < want[i].size(); ++k)
                    expectClose(got[i][k], want[i][k], 1e-12,
                                reg.views()[i].name.c_str());

            // Input gradients are per-lane (never summed across
            // lanes), so they match to the last bit too.
            for (std::size_t l = 0; l < xs.size(); ++l)
                for (std::size_t t = 0; t < xs[l].size(); ++t)
                    for (std::size_t r = 0; r < solo_dx[l][t].size();
                         ++r)
                        expectClose(dxb[t].at(r, l),
                                    solo_dx[l][t][r], 1e-12, "dx");
        }
    }
}

// --- trainer-level parity ----------------------------------------------

TEST(BatchedTrainer, TracksVectorOracle)
{
    const auto data = tinyDataset();
    for (auto type : {ModelType::Lstm, ModelType::Gru}) {
        for (std::size_t block : {std::size_t{1}, std::size_t{4}}) {
            const ModelSpec spec = tinySpec(type, block);
            StackedRnn vec_model = freshModel(spec, 5);
            StackedRnn bat_model = freshModel(spec, 5);

            TrainConfig tc;
            tc.epochs = 1;
            tc.batchSize = 4;
            tc.optimizer = TrainConfig::Opt::Sgd;

            const TrainResult vr =
                trainVectorOracle(vec_model, tc, data.train);
            const TrainResult br =
                Trainer(bat_model, tc).train(data.train);

            expectClose(br.finalLoss(), vr.finalLoss(), 1e-10,
                        "epoch loss");
            const auto vw = flattenParams(vec_model.params());
            const auto bw = flattenParams(bat_model.params());
            ASSERT_EQ(vw.size(), bw.size());
            for (std::size_t k = 0; k < vw.size(); ++k)
                expectClose(bw[k], vw[k], 1e-9, "trained weight");
        }
    }
}

TEST(BatchedTrainer, HandlesEmptyAndOneFrameSequences)
{
    // Hand-built dataset with 0- and 1-frame utterances in the mix.
    SequenceDataset data;
    Rng rng(3);
    const std::vector<std::size_t> lengths = {5, 0, 1, 4, 1, 0, 3, 2};
    for (std::size_t len : lengths) {
        SequenceExample ex;
        ex.frames.resize(len);
        ex.labels.resize(len);
        for (std::size_t t = 0; t < len; ++t) {
            ex.frames[t].resize(8);
            rng.fillNormal(ex.frames[t], 1.0);
            ex.labels[t] = static_cast<int>(rng.index(6));
        }
        data.push_back(std::move(ex));
    }

    const ModelSpec spec = tinySpec(ModelType::Gru, 1);
    StackedRnn vec_model = freshModel(spec, 9);
    StackedRnn bat_model = freshModel(spec, 9);

    TrainConfig tc;
    tc.epochs = 2;
    tc.batchSize = 3;
    tc.optimizer = TrainConfig::Opt::Sgd;

    const TrainResult vr = trainVectorOracle(vec_model, tc, data);
    const TrainResult br = Trainer(bat_model, tc).train(data);

    ASSERT_EQ(vr.epochs.size(), br.epochs.size());
    EXPECT_TRUE(std::isfinite(br.finalLoss()));
    expectClose(br.finalLoss(), vr.finalLoss(), 1e-10, "loss");
    EXPECT_EQ(br.epochs.back().frames, vr.epochs.back().frames);
}

TEST(BatchedTrainer, ByteIdenticalWeightsAtAnyThreadCount)
{
    const auto data = tinyDataset();
    const ModelSpec spec = tinySpec(ModelType::Lstm, 4);

    auto trained = [&](std::size_t threads) {
        StackedRnn model = freshModel(spec, 21);
        TrainConfig tc;
        tc.epochs = 2;
        tc.batchSize = 8;
        tc.batchLanes = 2; // 4 gradient groups per batch
        tc.threads = threads;
        const TrainResult tr = Trainer(model, tc).train(data.train);
        EXPECT_TRUE(std::isfinite(tr.finalLoss()));
        return flattenParams(model.params());
    };

    const auto w1 = trained(1);
    const auto w2 = trained(2);
    const auto w8 = trained(8);
    ASSERT_EQ(w1.size(), w2.size());
    ASSERT_EQ(w1.size(), w8.size());
    EXPECT_EQ(0, std::memcmp(w1.data(), w2.data(),
                             w1.size() * sizeof(Real)));
    EXPECT_EQ(0, std::memcmp(w1.data(), w8.data(),
                             w1.size() * sizeof(Real)));
}

TEST(BatchedTrainer, EpochLogCarriesThroughput)
{
    const auto data = tinyDataset();
    StackedRnn model = freshModel(tinySpec(ModelType::Gru, 1), 2);
    TrainConfig tc;
    tc.epochs = 1;
    const TrainResult tr = Trainer(model, tc).train(data.train);
    ASSERT_EQ(tr.epochs.size(), 1u);
    std::size_t total = 0;
    for (const auto &ex : data.train)
        total += ex.frames.size();
    EXPECT_EQ(tr.epochs[0].frames, total);
    EXPECT_GE(tr.epochs[0].wallMs, 0.0);
    EXPECT_GT(tr.epochs[0].framesPerSec, 0.0);
}

// --- checkpoint / resume -----------------------------------------------

TEST(TrainCheckpoint, ResumeIsBitIdenticalToUninterrupted)
{
    const auto data = tinyDataset();
    const ModelSpec spec = tinySpec(ModelType::Gru, 4);
    const std::string full_path =
        ::testing::TempDir() + "ernn_train_full.state";
    const std::string split_path =
        ::testing::TempDir() + "ernn_train_split.state";
    std::remove(full_path.c_str());
    std::remove(split_path.c_str());

    TrainConfig tc;
    tc.epochs = 4;
    tc.batchSize = 4;
    tc.threads = 2;
    tc.batchLanes = 2;

    // Uninterrupted run.
    StackedRnn full = freshModel(spec, 33);
    tc.checkpointPath = full_path;
    const TrainResult fr = Trainer(full, tc).train(data.train);

    // Interrupted run: 2 epochs, then a fresh Trainer resumes.
    StackedRnn split = freshModel(spec, 33);
    tc.checkpointPath = split_path;
    tc.epochs = 2;
    Trainer(split, tc).train(data.train);
    tc.epochs = 4;
    tc.resume = true;
    const TrainResult sr = Trainer(split, tc).train(data.train);

    const auto fw = flattenParams(full.params());
    const auto sw = flattenParams(split.params());
    ASSERT_EQ(fw.size(), sw.size());
    EXPECT_EQ(0, std::memcmp(fw.data(), sw.data(),
                             fw.size() * sizeof(Real)));

    ASSERT_EQ(fr.epochs.size(), sr.epochs.size());
    for (std::size_t e = 0; e < fr.epochs.size(); ++e) {
        EXPECT_EQ(fr.epochs[e].trainLoss, sr.epochs[e].trainLoss);
        EXPECT_EQ(fr.epochs[e].gradNorm, sr.epochs[e].gradNorm);
        EXPECT_EQ(fr.epochs[e].frames, sr.epochs[e].frames);
    }
}

TEST(TrainCheckpoint, StateRoundTripsThroughDisk)
{
    const ModelSpec spec = tinySpec(ModelType::Gru, 1);
    StackedRnn model = freshModel(spec, 12);
    ParamRegistry &reg = model.params();

    TrainConfig tc;
    const std::uint64_t fp = trainingFingerprint(reg, tc);

    Rng rng(77);
    rng.normal(); // prime the Box-Muller spare
    TrainState out;
    out.nextEpoch = 3;
    out.epochs.resize(3);
    out.epochs[2].trainLoss = 1.25;
    out.epochs[2].frames = 420;
    out.shuffleRng = rng.saveState();
    out.optimizerKind = "adam";
    out.optimizer.steps = 17;
    out.optimizer.slots.assign(
        2 * reg.views().size(), std::vector<Real>());
    for (std::size_t i = 0; i < reg.views().size(); ++i) {
        out.optimizer.slots[i].assign(reg.views()[i].size, 0.5);
        out.optimizer.slots[reg.views().size() + i].assign(
            reg.views()[i].size, 0.25);
    }

    const std::string path =
        ::testing::TempDir() + "ernn_train_roundtrip.state";
    saveTrainState(path, out, reg, fp);

    StackedRnn other = freshModel(spec, 99); // different weights
    TrainState in;
    ASSERT_TRUE(loadTrainState(path, in, other.params(), fp));

    EXPECT_EQ(in.nextEpoch, 3u);
    ASSERT_EQ(in.epochs.size(), 3u);
    EXPECT_EQ(in.epochs[2].trainLoss, 1.25);
    EXPECT_EQ(in.epochs[2].frames, 420u);
    EXPECT_EQ(in.optimizerKind, "adam");
    EXPECT_EQ(in.optimizer.steps, 17u);
    ASSERT_EQ(in.optimizer.slots.size(), out.optimizer.slots.size());
    EXPECT_EQ(in.optimizer.slots[0], out.optimizer.slots[0]);

    // RNG state resumes the exact stream.
    Rng a(1), b(1);
    a.restoreState(in.shuffleRng);
    b.restoreState(out.shuffleRng);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(a.nextU64(), b.nextU64());
    EXPECT_EQ(a.normal(), b.normal());

    // Params restored byte-for-byte.
    const auto src = flattenParams(reg);
    const auto dst = flattenParams(other.params());
    EXPECT_EQ(0, std::memcmp(src.data(), dst.data(),
                             src.size() * sizeof(Real)));
}

TEST(TrainCheckpoint, FingerprintsArePinned)
{
    // train.state files written by earlier builds must keep resuming:
    // these values are the fingerprints those builds computed, and
    // any change to trainingFingerprint's encoding breaks them.
    struct Case
    {
        ModelType type;
        bool custom;
        std::uint64_t want;
    };
    const Case cases[] = {
        {ModelType::Lstm, false, 0xc23996e059d8283dull},
        {ModelType::Lstm, true, 0x05c589520f05ab06ull},
        {ModelType::Gru, false, 0xab90ad4a34ee114eull},
        {ModelType::Gru, true, 0x65813e964826e26bull},
    };
    for (const Case &c : cases) {
        StackedRnn model = buildModel(tinySpec(c.type, 4));
        TrainConfig tc;
        if (c.custom) {
            tc.batchSize = 8;
            tc.batchLanes = 2;
            tc.optimizer = TrainConfig::Opt::Sgd;
            tc.shuffleSeed = 7;
            tc.clipNorm = 2.5;
        }
        EXPECT_EQ(trainingFingerprint(model.params(), tc), c.want)
            << (c.type == ModelType::Lstm ? "lstm" : "gru")
            << (c.custom ? " custom config" : " default config");
    }
}

TEST(TrainCheckpoint, MissingFileMeansFreshStart)
{
    const ModelSpec spec = tinySpec(ModelType::Gru, 1);
    StackedRnn model = freshModel(spec, 12);
    TrainState st;
    EXPECT_FALSE(loadTrainState(
        ::testing::TempDir() + "ernn_no_such.state", st,
        model.params(), 1));
}

TEST(TrainCheckpointDeathTest, MismatchedSetupDies)
{
    const auto data = tinyDataset();
    const ModelSpec spec = tinySpec(ModelType::Gru, 1);
    const std::string path =
        ::testing::TempDir() + "ernn_train_mismatch.state";
    std::remove(path.c_str());

    StackedRnn model = freshModel(spec, 33);
    TrainConfig tc;
    tc.epochs = 1;
    tc.batchSize = 4;
    tc.checkpointPath = path;
    Trainer(model, tc).train(data.train);

    // Same model, different gradient-batch geometry: the summation
    // order changes, so the checkpoint must refuse to resume.
    tc.batchSize = 3;
    tc.resume = true;
    tc.epochs = 2;
    StackedRnn again = freshModel(spec, 33);
    EXPECT_DEATH(Trainer(again, tc).train(data.train),
                 "different model");
}

TEST(TrainCheckpointDeathTest, CorruptedFileDies)
{
    const auto data = tinyDataset();
    const ModelSpec spec = tinySpec(ModelType::Gru, 1);
    const std::string path =
        ::testing::TempDir() + "ernn_train_corrupt.state";
    std::remove(path.c_str());

    StackedRnn model = freshModel(spec, 33);
    TrainConfig tc;
    tc.epochs = 1;
    tc.batchSize = 4;
    tc.checkpointPath = path;
    Trainer(model, tc).train(data.train);

    // Flip one payload byte behind the header.
    std::fstream f(path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(64);
    char byte;
    f.seekg(64);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(64);
    f.write(&byte, 1);
    f.close();

    tc.resume = true;
    StackedRnn again = freshModel(spec, 33);
    EXPECT_DEATH(Trainer(again, tc).train(data.train),
                 "checksum mismatch");
}

// --- evaluation --------------------------------------------------------

TEST(BatchedEvaluate, ExactlyMatchesSerialOracle)
{
    const auto data = tinyDataset();
    for (auto type : {ModelType::Lstm, ModelType::Gru}) {
        for (std::size_t block : {std::size_t{1}, std::size_t{4}}) {
            StackedRnn model = freshModel(tinySpec(type, block), 6);
            const EvalResult serial =
                Trainer::evaluate(model, data.test);

            TrainConfig tc;
            tc.threads = 4;
            tc.batchSize = 8;
            tc.batchLanes = 3; // uneven groups on purpose
            Trainer trainer(model, tc);
            const EvalResult parallel = trainer.evaluate(data.test);

            EXPECT_EQ(parallel.frames, serial.frames);
            EXPECT_DOUBLE_EQ(parallel.crossEntropy,
                             serial.crossEntropy);
            EXPECT_DOUBLE_EQ(parallel.frameAccuracy,
                             serial.frameAccuracy);
        }
    }
}

// --- ADMM on the batched path ------------------------------------------

TEST(BatchedAdmm, PhaseOneRunsOnBatchedMulticorePath)
{
    const auto data = tinyDataset();
    StackedRnn model = freshModel(tinySpec(ModelType::Gru, 1), 8);

    admm::AdmmConfig cfg;
    cfg.iterations = 2;
    cfg.epochsPerIteration = 1;
    cfg.convergenceTol = 0.0;
    cfg.train.batchSize = 6;
    cfg.train.batchLanes = 3;
    cfg.train.threads = 2;

    admm::AdmmTrainer trainer(model, cfg);
    admm::constrainFromSpec(trainer, model,
                            tinySpec(ModelType::Gru, 4));
    ASSERT_GT(trainer.constraintCount(), 0u);

    const admm::AdmmResult result = trainer.run(data.train);
    ASSERT_EQ(result.log.size(), 2u);
    EXPECT_TRUE(std::isfinite(result.log.back().trainLoss));
    EXPECT_TRUE(std::isfinite(result.log.back().relativeResidual));
    EXPECT_GT(result.log.back().relativeResidual, 0.0);
}
