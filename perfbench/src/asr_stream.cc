/**
 * @file
 * asr_stream: live streaming. 8 streams each push 10 ms chunks (160
 * samples) through AcousticFrontend::push; every completed frame goes
 * through InferenceServer::Stream::step, closed loop per round (all
 * streams submit, then the client waits for every reply). The server
 * loads the serving artifact by path with 2 workers and 1 compute
 * thread each.
 *
 * Why: this is the one-lane step path, stream handoff and the int16
 * kernels; it bypasses request batching and the FFT kernels. A stream
 * that reaches the end of its utterance is reset and starts the next
 * one, so the pinning of streams to workers never changes.
 */

#include <algorithm>
#include <array>
#include <cstdint>
#include <future>
#include <memory>

#include "harness.hh"
#include "layers.hh"
#include "runtime/artifact.hh"
#include "serve/inference_server.hh"
#include "serving_model.hh"

namespace perfbench
{

using namespace ernn;

namespace
{

constexpr std::size_t kChunk = 160; // 10 ms at 16 kHz

struct Geometry
{
    std::size_t streams;
    std::size_t poolUtterances;
    std::size_t minSegments; //!< 120 ms segments; utterance j has
                             //!< minSegments + j of them
    std::size_t windowSteps; //!< steps per measurement window
};

constexpr Geometry kFull{8, 16, 10, 1500};
constexpr Geometry kSmoke{4, 8, 2, 50};

/** One live stream of the client. */
struct Client
{
    serve::InferenceServer::Stream handle;
    speech::FrontendState fs;
    std::size_t utterance = 0; //!< pool index being played
    std::size_t pos = 0;       //!< samples pushed so far
    std::size_t frame = 0;     //!< frames stepped so far
};

/** A step in flight. */
struct Pending
{
    std::size_t client;
    std::size_t utterance;
    std::size_t frame;
    Clock::time_point submitted;
    std::future<Vector> reply;
};

} // namespace

Result
runAsrStream(const Options &opts, Tracer *tracer)
{
    const Geometry g = opts.smoke ? kSmoke : kFull;
    Result out;

    // Inputs from --seed: the model artifact and the waveform pool.
    const ServingArtifact artifact(opts, "asr_stream");
    const speech::AcousticFrontend fe(artifact.frontend());
    std::vector<Vector> pool;
    for (std::size_t j = 0; j < g.poolUtterances; ++j) {
        speech::WaveAsrConfig wc;
        wc.numPhones = 39;
        wc.utterances = 1;
        wc.minSegments = wc.maxSegments = g.minSegments + j;
        wc.minSegmentMs = wc.maxSegmentMs = 120;
        wc.seed = mixSeed(opts.seed, j);
        pool.push_back(std::move(speech::makeSyntheticWaves(wc)[0].samples));
    }

    // Reference outputs for the check: a one-utterance run over the
    // same frames, one logits hash per frame.
    const auto reference = runtime::loadArtifactShared(artifact.path());
    std::vector<std::vector<std::uint64_t>> refHash(pool.size());
    forEachIndex(pool.size(), 4, [&](std::size_t j) {
        runtime::InferenceSession session(*reference, 1);
        for (const Vector &l : session.logits(fe.process(pool[j])))
            refHash[j].push_back(hashReals(l.data(), l.size()));
    });

    serve::ServerOptions so;
    so.workers = 2;
    so.computeThreads = 1;

    std::unique_ptr<serve::InferenceServer> server;
    std::vector<Client> clients;
    std::uint64_t rounds = 0;

    // One round: a chunk per stream through the frontend, a step per
    // completed frame, then every reply. Returns the round's wall time
    // (replies checked after the clock stops).
    std::vector<Pending> pending;
    std::vector<Vector> frames;
    auto round = [&](Tracer *tr, std::size_t sampleLimit,
                     std::vector<double> *latencyMs) {
        const auto t0 = Clock::now();
        Scope r(tr, "stream.round", 0, ++rounds);
        pending.clear();
        for (std::size_t c = 0; c < clients.size(); ++c) {
            Client &cl = clients[c];
            const Vector &wave = pool[cl.utterance];
            const std::size_t end = std::min(wave.size(), sampleLimit);
            const std::size_t n = std::min(kChunk, end - cl.pos);
            frames.clear();
            {
                Scope s(tr, "speech.frontend", r.id(), c);
                fe.push(cl.fs, wave.data() + cl.pos, n,
                        [&](const Vector &f) { frames.push_back(f); });
            }
            cl.pos += n;
            for (Vector &f : frames)
                pending.push_back(Pending{c, cl.utterance, cl.frame++,
                                          Clock::now(),
                                          cl.handle.step(std::move(f))});
        }
        std::vector<Vector> replies;
        for (Pending &p : pending) {
            replies.push_back(p.reply.get());
            const auto done = Clock::now();
            if (latencyMs)
                latencyMs->push_back(msBetween(p.submitted, done));
            if (tr)
                tr->record("serve.stream.step", p.submitted, done,
                           tr->nextId(), r.id(), p.client);
        }
        const double secs = secondsBetween(t0, Clock::now());
        out.attempted += pending.size();
        for (std::size_t i = 0; i < pending.size(); ++i) {
            const Pending &p = pending[i];
            const Vector &l = replies[i];
            const auto &ref = refHash[p.utterance];
            if (p.frame >= ref.size() ||
                hashReals(l.data(), l.size()) != ref[p.frame])
                out.fail("asr_stream: step " + std::to_string(p.frame) +
                         " of utterance " + std::to_string(p.utterance) +
                         " differs from a one-utterance run");
        }
        return std::make_pair(secs, pending.size());
    };

    // Rewind a stream onto the start of pool utterance @p u.
    auto restart = [&](Client &cl, std::size_t u) {
        cl.handle.reset().get();
        fe.reset(cl.fs);
        cl.utterance = u;
        cl.pos = cl.frame = 0;
    };

    // Set-up: artifact load, server construction, stream opening and
    // a warm-up pass of 0.5 s of audio on every stream.
    SetupSchedule setups(opts, [&] {
        clients.clear();
        server.reset();
        server = std::make_unique<serve::InferenceServer>(artifact.path(),
                                                          so);
        for (std::size_t c = 0; c < g.streams; ++c) {
            clients.push_back(Client{server->openStream(), fe.newState(),
                                     c % pool.size(), 0, 0});
        }
        const std::size_t warmSamples = 8000;
        auto warming = [&] {
            for (const Client &cl : clients)
                if (cl.pos < std::min(warmSamples, pool[cl.utterance].size()))
                    return true;
            return false;
        };
        while (warming())
            (void)round(nullptr, warmSamples, nullptr);
        for (Client &cl : clients)
            restart(cl, cl.utterance);
    });

    // The run is cut into windows of a fixed number of steps, each with
    // its own rate and latency percentiles; the reported figure is the
    // median over windows, so a burst of interference from other tenants
    // of the host moves one window, not the run. A window holds enough
    // steps to leave more than ten samples beyond its p99.
    struct Window
    {
        std::vector<double> latencyMs;
        double seconds = 0.0;
    };
    struct Phase
    {
        std::vector<Window> windows;
        std::size_t steps = 0;
        double seconds = 0.0;

        /** Median over windows of steps per second. */
        double rate() const
        {
            std::vector<double> r;
            for (const Window &w : windows)
                r.push_back(static_cast<double>(w.latencyMs.size()) /
                            w.seconds);
            return median(r);
        }
    };
    // The traced run alternates windows between untraced ([0]) and
    // traced ([1]), so both see the same host load and their ratio is
    // the tracing overhead.
    auto measure = [&](Tracer *tr) {
        std::array<Phase, 2> ph;
        for (std::size_t k = 0;
             ph[0].windows.empty() || (tr && ph[1].windows.empty()) ||
             !setups.done();
             ++k) {
            setups.between();
            const bool traced = tr && k % 2;
            Phase &p = ph[traced];
            Window &w = p.windows.emplace_back();
            while (w.latencyMs.size() < g.windowSteps) {
                const auto [secs, steps] =
                    round(traced ? tr : nullptr, SIZE_MAX, &w.latencyMs);
                w.seconds += secs;
                p.seconds += secs;
                p.steps += steps;
                for (Client &cl : clients)
                    if (cl.pos == pool[cl.utterance].size())
                        restart(cl, (cl.utterance + g.streams) % pool.size());
            }
        }
        return ph;
    };

    if (!opts.trace) {
        const Phase ph = measure(nullptr)[0];
        std::vector<double> p50, p99;
        LatencySummary lat;
        lat.beyondP99 = SIZE_MAX;
        for (const Window &w : ph.windows) {
            const LatencySummary s = summarize(w.latencyMs);
            p50.push_back(s.p50);
            p99.push_back(s.p99);
            lat.samples += s.samples;
            lat.beyondP99 = std::min(lat.beyondP99, s.beyondP99);
        }
        lat.p50 = median(p50);
        lat.p99 = median(p99);
        reportEndToEnd(out, setups.finish(), ph.rate(), lat);
        out.facts["lat.windows"] = static_cast<double>(ph.windows.size());
        return out;
    }

    const auto [base, traced] = measure(tracer);
    reportTraceOverhead(out, base.rate(), traced.rate(), *tracer);
    const auto self = tracer->selfSeconds();
    out.set("speech.frontend.us_per_frame",
            1e6 * self.at("speech.frontend") /
                static_cast<double>(traced.steps),
            "us");

    // Direct InferenceSession::step over the same model, one stream.
    runtime::InferenceSession session(*reference, 1);
    runtime::StreamState state = session.newStream();
    const nn::Sequence replayFrames = fe.process(pool[0]);
    std::size_t t = 0;
    const double stepUs = microsPerCall([&] {
        if (t == replayFrames.size()) {
            state.reset();
            t = 0;
        }
        (void)session.step(state, replayFrames[t++]);
    });
    out.set("runtime.session.step_us", stepUs, "us");
    std::vector<double> latencyMs;
    for (const Window &w : traced.windows)
        latencyMs.insert(latencyMs.end(), w.latencyMs.begin(),
                         w.latencyMs.end());
    out.set("serve.stream.handoff_us",
            1e3 * summarize(latencyMs).p50 - stepUs, "us");
    out.set("runtime.artifact.load_ms", microsPerCall([&] {
                (void)runtime::loadArtifactShared(artifact.path());
            }) * 1e-3,
            "ms");
    replayCompiledModel(*reference, 1, 1, out);
    return out;
}

} // namespace perfbench
