/**
 * @file
 * train_circulant: Phase I training. nn::Trainer::train runs on
 * speech::makeSyntheticAsr data with a 2x512 block-16 LSTM, threads = 2
 * and batchLanes = batchSize / 2 so that both gradient groups run; the
 * member Trainer::evaluate then scores the test split. Each operation
 * trains a freshly initialised model, so every operation does the same
 * arithmetic.
 *
 * Why: the same circulant:: and fft:: code as asr_offline, run
 * backward too (transposes, generator gradients, data-parallel
 * reduction). It bypasses runtime:: and serve::.
 */

#include <array>
#include <cmath>
#include <memory>
#include <optional>

#include "harness.hh"
#include "layers.hh"
#include "nn/model_builder.hh"
#include "nn/trainer.hh"
#include "speech/dataset.hh"

namespace perfbench
{

using namespace ernn;

namespace
{

struct Geometry
{
    std::size_t hidden;
    std::size_t block;
    std::size_t trainUtterances;
};

constexpr Geometry kFull{512, 16, 16};
constexpr Geometry kSmoke{32, 16, 8};

} // namespace

Result
runTrainCirculant(const Options &opts, Tracer *tracer)
{
    const Geometry g = opts.smoke ? kSmoke : kFull;
    Result out;

    speech::AsrDataConfig dc;
    dc.trainUtterances = g.trainUtterances;
    dc.seed = mixSeed(opts.seed, 8000);
    const speech::AsrDataset data = speech::makeSyntheticAsr(dc);

    nn::ModelSpec spec;
    spec.type = nn::ModelType::Lstm;
    spec.inputDim = data.featureDim;
    spec.numClasses = data.numPhones;
    spec.layerSizes = {g.hidden, g.hidden};
    spec.blockSizes = {g.block, g.block};
    // initXavier draws the weights only, so every operation trains a
    // freshly built model to start from the same parameters.
    std::unique_ptr<nn::StackedRnn> net;
    auto freshModel = [&] {
        net = std::make_unique<nn::StackedRnn>(nn::buildModel(spec));
        Rng rng(mixSeed(opts.seed, 9000));
        net->initXavier(rng);
    };

    nn::TrainConfig cfg;
    cfg.threads = 2;
    cfg.batchLanes = cfg.batchSize / 2;

    std::size_t testFrames = 0;
    for (const nn::SequenceExample &ex : data.test)
        testFrames += ex.frames.size();

    // Set-up: trainer construction and one warm-up forward pass over
    // the training split (the batched evaluate datapath).
    std::optional<nn::Trainer> trainer;
    SetupSchedule setups(opts, [&] {
        trainer.reset();
        freshModel();
        trainer.emplace(*net, cfg);
        (void)trainer->evaluate(data.train);
    });

    std::vector<Real> firstLosses;
    std::uint64_t ops = 0;
    struct Phase
    {
        std::vector<double> framesPerSec; //!< per train() call
        std::vector<double> stepMs;       //!< per optimizer step
        std::vector<nn::EpochLog> epochs;
    };
    // The traced run alternates training calls between untraced ([0])
    // and traced ([1]), so both see the same host load and their ratio
    // is the tracing overhead.
    auto measure = [&](Tracer *tracing) {
        std::array<Phase, 2> phases;
        for (std::size_t k = 0;
             phases[0].framesPerSec.size() < 2 ||
             (tracing && phases[1].framesPerSec.size() < 2) ||
             !setups.done();
             ++k) {
            setups.between();
            Tracer *tr = k % 2 ? tracing : nullptr;
            Phase &ph = phases[tr != nullptr];
            if (!trainer) {
                freshModel();
                trainer.emplace(*net, cfg);
            }
            ++ops;
            // The gradient hook runs once per optimizer step: the gap
            // between two calls is one step's latency.
            Clock::time_point last = Clock::now();
            trainer->setGradHook([&](nn::ParamRegistry &) {
                const auto now = Clock::now();
                ph.stepMs.push_back(msBetween(last, now));
                if (tr)
                    tr->record("nn.trainer.step", last, now, tr->nextId(), 0,
                               ops);
                last = now;
            });
            nn::TrainResult result;
            const auto t0 = Clock::now();
            {
                Scope s(tr, "nn.trainer.train", 0, ops);
                result = trainer->train(data.train);
            }
            const double secs = secondsBetween(t0, Clock::now());
            {
                Scope s(tr, "nn.evaluate", 0, ops);
                (void)trainer->evaluate(data.test);
            }
            trainer.reset();

            std::size_t frames = 0;
            std::vector<Real> losses;
            for (const nn::EpochLog &e : result.epochs) {
                frames += e.frames;
                losses.push_back(e.trainLoss);
                ph.epochs.push_back(e);
            }
            ph.framesPerSec.push_back(static_cast<double>(frames) / secs);

            // Untimed checks: finite losses that fall, and the same
            // trajectory, bit for bit, as the first operation.
            ++out.attempted;
            bool finite = !losses.empty();
            for (Real l : losses)
                finite = finite && std::isfinite(l);
            if (firstLosses.empty())
                firstLosses = losses;
            if (!finite)
                out.fail("train_circulant: non-finite loss");
            else if (!(losses.back() < losses.front()))
                out.fail("train_circulant: last epoch's loss is not below "
                         "the first's");
            else if (hashReals(losses.data(), losses.size()) !=
                     hashReals(firstLosses.data(), firstLosses.size()))
                out.fail("train_circulant: loss trajectory differs from "
                         "the first training run");
        }
        return phases;
    };

    if (!opts.trace) {
        const Phase ph = measure(nullptr)[0];
        reportEndToEnd(out, setups.finish(), median(ph.framesPerSec),
                       summarize(ph.stepMs));
        return out;
    }

    const auto [base, traced] = measure(tracer);
    reportTraceOverhead(out, median(base.framesPerSec),
                        median(traced.framesPerSec), *tracer);
    std::vector<double> epochS, epochUs;
    for (const nn::EpochLog &e : traced.epochs) {
        epochS.push_back(1e-3 * e.wallMs);
        epochUs.push_back(1e6 / e.framesPerSec);
    }
    out.set("nn.trainer.epoch_s", median(epochS), "s");
    out.set("nn.trainer.us_per_frame", median(epochUs), "us");
    const auto self = tracer->selfSeconds();
    const auto counts = tracer->counts();
    out.set("nn.evaluate.us_per_frame",
            1e6 * self.at("nn.evaluate") /
                static_cast<double>(counts.at("nn.evaluate") * testFrames),
            "us");
    replayCirculantLinear(g.hidden, g.hidden, g.block, cfg.groupLanes(),
                          out);
    return out;
}

} // namespace perfbench
