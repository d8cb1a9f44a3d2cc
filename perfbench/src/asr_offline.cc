/**
 * @file
 * asr_offline: batch transcription by one closed-loop client. Each
 * call takes 16 waveforms through AcousticFrontend::process, one
 * InferenceSession::run over all 16 (computeThreads = 2) and
 * ctcDecodeBeam at beam 4, on the paper-scale 2x1024 block-64 LSTM
 * compiled for BackendKind::CirculantFft.
 *
 * Why: the circulant-FFT kernels do most of the work and the beam
 * decoder most of the rest; the server, fixed point and training do
 * none. Every call holds the same utterance lengths whatever the seed
 * (the seed picks phones, noise and weights), so calls are comparable
 * across seeds and commits.
 */

#include <algorithm>
#include <array>
#include <optional>

#include "harness.hh"
#include "layers.hh"
#include "nn/model_builder.hh"
#include "runtime/session.hh"
#include "speech/ctc_decoder.hh"
#include "speech/frontend.hh"

namespace perfbench
{

using namespace ernn;

namespace
{

struct Geometry
{
    std::size_t hidden;
    std::size_t block;
    std::size_t melBands;
    std::size_t callUtterances;
    std::size_t poolUtterances;
    std::size_t minSegments; //!< 120 ms phone segments; utterance j of
                             //!< a call has minSegments + j of them
};

constexpr Geometry kFull{1024, 64, 64, 16, 32, 10};
constexpr Geometry kSmoke{64, 16, 16, 4, 8, 2};
constexpr std::size_t kComputeThreads = 2;
constexpr std::size_t kBeam = 4;
constexpr std::size_t kPhones = 39;

/** One call's worth of outputs (kept for the output check). */
struct Call
{
    std::vector<nn::Sequence> features;
    runtime::BatchResult result;
    std::size_t frames = 0;
};

/** samples -> frontend -> session -> beam decoder, spans per module. */
Call
transcribe(const speech::AcousticFrontend &fe,
           runtime::InferenceSession &session,
           const std::vector<const Vector *> &waves, Tracer *tracer,
           std::uint64_t request)
{
    Scope call(tracer, "asr.call", 0, request);
    Call out;
    out.features.reserve(waves.size());
    for (const Vector *w : waves) {
        Scope s(tracer, "speech.frontend", call.id(), request);
        out.features.push_back(fe.process(*w));
        out.frames += out.features.back().size();
    }
    {
        Scope s(tracer, "runtime.session", call.id(), request);
        out.result = session.run(out.features);
    }
    speech::CtcDecodeOptions beam;
    beam.beamWidth = kBeam;
    for (const nn::Sequence &logits : out.result.logits) {
        Scope s(tracer, "speech.ctc", call.id(), request);
        (void)speech::ctcDecodeBeam(logits, beam);
    }
    return out;
}

bool
sameBits(const nn::Sequence &a, const nn::Sequence &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t t = 0; t < a.size(); ++t)
        if (a[t].size() != b[t].size() ||
            hashReals(a[t].data(), a[t].size()) !=
                hashReals(b[t].data(), b[t].size()))
            return false;
    return true;
}

} // namespace

Result
runAsrOffline(const Options &opts, Tracer *tracer)
{
    const Geometry g = opts.smoke ? kSmoke : kFull;
    Result out;

    // Inputs, all from --seed: waveforms and model weights.
    std::vector<Vector> pool;
    for (std::size_t j = 0; j < g.poolUtterances; ++j) {
        speech::WaveAsrConfig wc;
        wc.numPhones = kPhones;
        wc.utterances = 1;
        wc.minSegments = wc.maxSegments =
            g.minSegments + j % g.callUtterances;
        wc.minSegmentMs = wc.maxSegmentMs = 120;
        wc.seed = mixSeed(opts.seed, j);
        pool.push_back(std::move(speech::makeSyntheticWaves(wc)[0].samples));
    }
    std::vector<Vector> warmClips;
    for (std::size_t j = 0; j < g.callUtterances; ++j)
        warmClips.emplace_back(
            pool[j].begin(),
            pool[j].begin() + std::min<std::size_t>(8000, pool[j].size()));

    speech::FrontendConfig fc;
    fc.melBands = g.melBands;
    const speech::AcousticFrontend fe(fc);

    nn::ModelSpec spec;
    spec.type = nn::ModelType::Lstm;
    spec.inputDim = fe.featureDim();
    spec.numClasses = kPhones;
    spec.layerSizes = {g.hidden, g.hidden};
    spec.blockSizes = {g.block, g.block};
    nn::StackedRnn net = nn::buildModel(spec);
    Rng rng(mixSeed(opts.seed, 1000));
    net.initXavier(rng);
    runtime::CompileOptions co;
    co.backend = runtime::BackendKind::CirculantFft;

    auto batchOf = [&](const std::vector<Vector> &src, std::size_t first) {
        std::vector<const Vector *> b;
        for (std::size_t j = 0; j < g.callUtterances; ++j)
            b.push_back(&src[(first + j) % src.size()]);
        return b;
    };

    // Set-up: compile, session construction and one warm-up call.
    std::shared_ptr<const runtime::CompiledModel> model;
    std::optional<runtime::InferenceSession> session;
    SetupSchedule setups(opts, [&] {
        session.reset();
        model.reset();
        model = runtime::compileShared(net, co);
        session.emplace(*model, kComputeThreads);
        (void)transcribe(fe, *session, batchOf(warmClips, 0), nullptr, 0);
    });

    std::uint64_t calls = 0;
    Rng pick(mixSeed(opts.seed, 2000));
    struct Phase
    {
        std::vector<double> latencyMs;
        std::vector<double> framesPerSec;
        std::size_t frames = 0;
    };
    // The traced run alternates calls between untraced ([0]) and traced
    // ([1]), so both see the same host load and their ratio is the
    // tracing overhead.
    auto measure = [&](Tracer *tr) {
        std::array<Phase, 2> ph;
        for (std::size_t k = 0;
             ph[0].latencyMs.size() < 3 || (tr && ph[1].latencyMs.size() < 3) ||
             !setups.done();
             ++k) {
            setups.between();
            const bool traced = tr && k % 2;
            Phase &p = ph[traced];
            const std::size_t first = calls * g.callUtterances;
            const auto t0 = Clock::now();
            const Call c = transcribe(fe, *session, batchOf(pool, first),
                                      traced ? tr : nullptr, ++calls);
            const double ms = msBetween(t0, Clock::now());
            p.latencyMs.push_back(ms);
            p.framesPerSec.push_back(1e3 * static_cast<double>(c.frames) / ms);
            p.frames += c.frames;

            // Untimed check: one sampled utterance of the batch, run
            // alone, must give the batched logits bit for bit.
            out.attempted += g.callUtterances;
            const std::size_t u = pick.index(g.callUtterances);
            const runtime::BatchResult solo = session->run(
                std::vector<const nn::Sequence *>{&c.features[u]});
            if (!sameBits(solo.logits[0], c.result.logits[u]))
                out.fail("asr_offline: batched logits of utterance " +
                         std::to_string(first + u) +
                         " differ from a one-utterance run");
        }
        return ph;
    };

    if (!opts.trace) {
        const Phase ph = measure(nullptr)[0];
        reportEndToEnd(out, setups.finish(), median(ph.framesPerSec),
                       summarize(ph.latencyMs));
        return out;
    }

    const auto [base, traced] = measure(tracer);
    reportTraceOverhead(out, median(base.framesPerSec),
                        median(traced.framesPerSec), *tracer);
    const auto self = tracer->selfSeconds();
    const double perFrame = 1e6 / static_cast<double>(traced.frames);
    out.set("speech.frontend.us_per_frame",
            self.at("speech.frontend") * perFrame, "us");
    out.set("runtime.session.us_per_frame",
            self.at("runtime.session") * perFrame, "us");
    out.set("speech.ctc.us_per_frame", self.at("speech.ctc") * perFrame,
            "us");
    replayCompiledModel(*model, g.callUtterances, kComputeThreads, out);
    return out;
}

} // namespace perfbench
