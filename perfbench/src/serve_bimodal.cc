/**
 * @file
 * serve_bimodal: request serving through InferenceServer::submit over
 * the serving artifact (2 workers, 1 compute thread each), in two
 * phases:
 *
 *  - light load, open loop: seeded Poisson arrivals at a fixed rate
 *    near a sixth of capacity; 80% short utterances (10-20 frames),
 *    20% long ones (80-120). Each request is timed from when it was
 *    due, so a stalled generator cannot hide queueing.
 *  - saturation, 45% of the run: every request of a round queued up
 *    front; frames served per second over the round is the capacity.
 *
 * The run alternates parts of the light phase with saturation rounds.
 *
 * The generator and the reply collector are the only client threads.
 *
 * Why: the same server and kernels as asr_stream, but whole utterances
 * are batched instead of one frame per stream. Scheduler changes show
 * in the capacity phase and tail latency; observability overhead shows
 * in both.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>

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

/** Light-phase offered rate, requests per second: about a sixth of
 *  the saturation capacity measured on a 4-core x86-64 host. Fixed so
 *  that every commit is offered the same load. */
constexpr double kLightRate = 4.5;
/** Seed of the request orders and arrival times (see runServeBimodal). */
constexpr std::uint64_t kScheduleSeed = 20190216;
/** A reply later than this after it was due counts as failed. */
constexpr double kLatencyLimitMs = 5000.0;

struct Geometry
{
    std::size_t poolRequests;
    double lightRate;
    /** Requests per second the saturation phase is sized for. */
    double capacityRps;
    double saturationShare; //!< of the run; the rest is the light phase
    /** The run alternates this many light-phase parts and saturation
     *  rounds, with set-ups between them. */
    std::size_t parts;
};

constexpr Geometry kFull{60, kLightRate, 6.0 * kLightRate, 0.45, 4};
constexpr Geometry kSmoke{20, 200.0, 400.0, 0.1, 2};

/** One request of a schedule and what became of it. */
struct Request
{
    std::size_t pool = 0;   //!< index into the request pool
    double offsetS = 0.0;   //!< due time after the schedule starts
    Clock::time_point due;
    Clock::time_point done;
    double lateMs = 0.0;    //!< how late the generator submitted it
    std::size_t outstanding = 0; //!< requests in flight at submit
    bool answered = false;
    std::string failure; //!< why the request failed; empty if it did not
    serve::RequestTiming timing;
};

} // namespace

Result
runServeBimodal(const Options &opts, Tracer *tracer)
{
    const Geometry g = opts.smoke ? kSmoke : kFull;
    Result out;

    // Inputs from --seed: the artifact and the request pool.
    const ServingArtifact artifact(opts, "serve_bimodal");
    // Every fifth pool entry is long. Lengths step evenly through
    // 10-20 and 80-120 frames whatever the seed, which picks contents,
    // order and arrival times.
    Rng rng(mixSeed(opts.seed, 5000));
    std::vector<nn::Sequence> pool(g.poolRequests);
    const std::size_t longs = pool.size() / 5;
    for (std::size_t i = 0; i < pool.size(); ++i) {
        const std::size_t k = i / 5;
        const std::size_t frames =
            i % 5 == 4 ? 80 + 40 * k / (longs - 1)
                       : 10 + (4 * k + i % 5) % 11;
        pool[i].assign(frames, Vector(artifact.inputDim()));
        for (Vector &f : pool[i])
            rng.fillNormal(f, 1.0);
    }

    // Reference outputs: a one-utterance InferenceSession::run each.
    const auto reference = runtime::loadArtifactShared(artifact.path());
    std::vector<std::uint64_t> refHash(pool.size());
    auto logitsHash = [](const nn::Sequence &logits) {
        std::uint64_t h = hashReals(nullptr, 0);
        for (const Vector &l : logits)
            h = hashReals(l.data(), l.size(), h);
        return h;
    };
    forEachIndex(pool.size(), 4, [&](std::size_t i) {
        runtime::InferenceSession session(*reference, 1);
        refHash[i] = logitsHash(session.logits(pool[i]));
    });

    serve::ServerOptions so;
    so.workers = 2;
    so.computeThreads = 1;
    std::unique_ptr<serve::InferenceServer> server;
    std::uint64_t nextRequestId = 0;

    // Run one schedule: the generator (this thread) submits each
    // request when due; the collector thread timestamps every reply as
    // it lands (oldest first, others polled), then checks it. Each
    // thread writes only the requests it holds; failures are counted
    // after the collector has joined. Returns when the schedule started.
    auto runSchedule = [&](std::vector<Request> &reqs, Tracer *tr) {
        std::mutex mu;
        std::condition_variable cv;
        struct InFlight
        {
            std::size_t index;
            std::future<serve::InferenceReply> reply;
        };
        std::deque<InFlight> handoff; // guarded by mu
        bool generatorDone = false;   // guarded by mu
        std::atomic<std::size_t> completed{0};
        const std::uint64_t firstId = nextRequestId;
        nextRequestId += reqs.size();

        auto finish = [&](InFlight &f) {
            Request &r = reqs[f.index];
            r.done = Clock::now();
            ++completed;
            serve::InferenceReply reply;
            try {
                reply = f.reply.get();
            } catch (const std::exception &e) {
                r.failure = std::string("reply raised: ") + e.what();
                return;
            }
            r.answered = true;
            if (tr)
                tr->record("serve.request", r.due, r.done, tr->nextId(), 0,
                           firstId + f.index);
            r.timing = reply.timing;
            if (logitsHash(reply.logits) != refHash[r.pool])
                r.failure = "reply to pool request " + std::to_string(r.pool) +
                            " differs from InferenceSession::run";
            else if (msBetween(r.due, r.done) > kLatencyLimitMs)
                r.failure = "reply over the latency limit";
        };
        std::thread collector([&] {
            std::list<InFlight> live;
            for (;;) {
                {
                    std::unique_lock<std::mutex> lock(mu);
                    if (live.empty())
                        cv.wait(lock, [&] {
                            return !handoff.empty() || generatorDone;
                        });
                    while (!handoff.empty()) {
                        live.push_back(std::move(handoff.front()));
                        handoff.pop_front();
                    }
                    if (live.empty() && generatorDone)
                        return;
                }
                bool any = false;
                for (auto it = live.begin(); it != live.end();) {
                    if (it->reply.wait_for(std::chrono::seconds(0)) ==
                        std::future_status::ready) {
                        finish(*it);
                        it = live.erase(it);
                        any = true;
                    } else {
                        ++it;
                    }
                }
                if (!any && !live.empty())
                    live.front().reply.wait_for(
                        std::chrono::microseconds(200));
            }
        });

        const auto start = Clock::now() + std::chrono::milliseconds(5);
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            Request &r = reqs[i];
            r.due = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(r.offsetS));
            nn::Sequence frames = pool[r.pool];
            std::this_thread::sleep_until(r.due);
            const auto submitAt = Clock::now();
            r.lateMs = msBetween(r.due, submitAt);
            r.outstanding = i - completed.load();
            std::future<serve::InferenceReply> reply;
            serve::SubmitStatus status;
            {
                Scope s(tr, "serve.submit", 0, firstId + i);
                status = server->submit(std::move(frames), reply);
            }
            if (status != serve::SubmitStatus::Ok) {
                r.failure = std::string("submit refused: ") +
                            serve::submitStatusName(status);
                r.done = Clock::now();
                continue;
            }
            std::lock_guard<std::mutex> lock(mu);
            handoff.push_back(InFlight{i, std::move(reply)});
            cv.notify_one();
        }
        {
            std::lock_guard<std::mutex> lock(mu);
            generatorDone = true;
            cv.notify_one();
        }
        collector.join();
        for (const Request &r : reqs) {
            ++out.attempted;
            if (!r.failure.empty())
                out.fail("serve_bimodal: " + r.failure);
        }
        return start;
    };

    // The schedules are the same for every seed, which picks the model
    // weights and request contents only. With a few dozen light-phase
    // requests per run, which ones happen to arrive together (and so
    // share a batch or a queue) would otherwise move p50 by a quarter
    // from seed to seed. The light phase covers the pool evenly (so
    // exactly 20% long) with inter-arrival gaps at the exponential
    // distribution's quantiles, in one fixed shuffled order.
    Rng order(kScheduleSeed);
    auto shuffled = [&](std::size_t n) {
        std::vector<std::size_t> idx(n);
        std::iota(idx.begin(), idx.end(), 0);
        order.shuffle(idx);
        return idx;
    };

    // Saturation round: @p n requests cycling through the pool (so 20%
    // long), all queued at once; frames served per second from the
    // first submit to the last reply. Workers take the queue in order,
    // so every round forms the same batches.
    auto saturationRound = [&](std::size_t n, Tracer *tr,
                               std::vector<double> &batch) {
        std::vector<Request> reqs(n);
        std::size_t frames = 0;
        for (std::size_t i = 0; i < n; ++i) {
            reqs[i].pool = i % pool.size();
            frames += pool[reqs[i].pool].size();
        }
        const Clock::time_point start = runSchedule(reqs, tr);
        Clock::time_point last = start;
        for (const Request &r : reqs) {
            last = std::max(last, r.done);
            batch.push_back(static_cast<double>(r.timing.batchSize));
        }
        return static_cast<double>(frames) / secondsBetween(start, last);
    };

    // Set-up: artifact load, server construction and a warm-up pass of
    // 8 requests, one after another. Queued at once, they formed
    // batches that depended on which worker woke first, and one set-up
    // took from 0.16 to 0.45 s within a run.
    SetupSchedule setups(opts, [&] {
        server.reset();
        server = std::make_unique<serve::InferenceServer>(artifact.path(),
                                                          so);
        for (std::size_t i = 0; i < 8; ++i) {
            ++out.attempted;
            std::future<serve::InferenceReply> reply;
            if (server->submit(nn::Sequence(pool[i]), reply) !=
                    serve::SubmitStatus::Ok ||
                logitsHash(reply.get().logits) != refHash[i])
                out.fail("serve_bimodal: warm-up request " +
                         std::to_string(i) + " refused or wrong");
        }
    });

    struct Phase
    {
        std::vector<std::vector<Request>> light; //!< per part
        /** frames/s per saturation round: [0] untraced, [1] traced */
        std::array<std::vector<double>, 2> capacity;
        std::vector<double> saturationBatch; //!< batch size per request
    };
    // The light phase is one arrival schedule cut into parts, which
    // alternate with the saturation rounds; each part starts on an idle
    // server. Set-ups that are due run after a saturation round, not
    // after a light part, whose idle cores would slow the next
    // set-up's first second. The traced
    // run traces the whole light phase and alternates saturation rounds
    // between untraced and traced, so both see the same host load and
    // their ratio is the tracing overhead.
    auto measure = [&](Tracer *tr) {
        Phase ph;
        const double saturationSeconds = g.saturationShare * opts.seconds;
        const auto n = static_cast<std::size_t>(std::max(
            10.0, g.lightRate * (opts.seconds - saturationSeconds)));
        const auto roundRequests = static_cast<std::size_t>(std::max(
            20.0, g.capacityRps * saturationSeconds /
                      static_cast<double>(g.parts)));
        const std::vector<std::size_t> gaps = shuffled(n);
        const std::vector<std::size_t> picks = shuffled(n);
        double t = 0.0, partStart = 0.0;
        for (std::size_t p = 0; p < g.parts; ++p) {
            std::vector<Request> &part = ph.light.emplace_back();
            for (std::size_t i = p * n / g.parts; i < (p + 1) * n / g.parts;
                 ++i) {
                const double q = (static_cast<double>(gaps[i]) + 0.5) /
                                 static_cast<double>(n);
                t += -std::log(1.0 - q) / g.lightRate;
                Request &r = part.emplace_back();
                r.offsetS = t - partStart;
                r.pool = picks[i] % pool.size();
            }
            partStart = t;
            runSchedule(part, tr);
            const bool traced = tr && p % 2;
            ph.capacity[traced].push_back(saturationRound(
                roundRequests, traced ? tr : nullptr, ph.saturationBatch));
            setups.between();
        }
        return ph;
    };

    // Latency of the light-phase requests: the median over all of them,
    // and the median over parts of each part's 99th percentile. A part
    // holds about 15 requests, so its p99 is close to its slowest one;
    // taking the middle parts keeps one stalled request from setting
    // the run's figure, as windows do on asr_stream.
    auto lightLatency = [](const Phase &ph) {
        std::vector<double> all, p99;
        for (const std::vector<Request> &part : ph.light) {
            std::vector<double> ms;
            for (const Request &r : part)
                if (r.answered)
                    ms.push_back(msBetween(r.due, r.done));
            all.insert(all.end(), ms.begin(), ms.end());
            p99.push_back(summarize(ms).p99);
        }
        LatencySummary s = summarize(all);
        s.p99 = median(p99);
        s.beyondP99 = static_cast<std::size_t>(std::count_if(
            all.begin(), all.end(), [&](double v) { return v > s.p99; }));
        return s;
    };

    // Validity of the open loop: generator lateness, and the offered
    // against the achieved rate. Both count the gaps between a part's
    // requests: the offered rate over the span of their due instants,
    // the achieved rate over the span of their replies, summed over
    // parts. A part whose backlog grew (more requests outstanding at
    // submit in its last third than in its first) is flagged.
    auto reportLoad = [&](const Phase &ph) {
        double lateMax = 0.0, gaps = 0.0, dueSpan = 0.0, doneSpan = 0.0;
        for (const std::vector<Request> &l : ph.light) {
            Clock::time_point firstDone = l.front().done;
            Clock::time_point lastDone = firstDone;
            for (const Request &r : l) {
                lateMax = std::max(lateMax, r.lateMs);
                firstDone = std::min(firstDone, r.done);
                lastDone = std::max(lastDone, r.done);
            }
            gaps += static_cast<double>(l.size() - 1);
            dueSpan += secondsBetween(l.front().due, l.back().due);
            doneSpan += secondsBetween(firstDone, lastDone);
            const std::size_t third = l.size() / 3;
            double first = 0.0, last = 0.0;
            for (std::size_t i = 0; i < third; ++i) {
                first += static_cast<double>(l[i].outstanding);
                last += static_cast<double>(l[l.size() - 1 - i].outstanding);
            }
            if (third && last > 2.0 * first + static_cast<double>(third))
                out.flags.push_back(
                    "serve_bimodal: backlog grew during a light-phase part "
                    "(outstanding requests " +
                    std::to_string(first / third) + " -> " +
                    std::to_string(last / third) + ")");
        }
        out.facts["gen.late_ms_max"] = lateMax;
        out.facts["gen.offered_rps"] = gaps / dueSpan;
        out.facts["gen.achieved_rps"] = gaps / doneSpan;
        for (std::size_t i = 0; i < ph.capacity[0].size(); ++i)
            out.facts["capacity.round" + std::to_string(i) + "_frames_per_s"] =
                ph.capacity[0][i];
    };

    if (!opts.trace) {
        const Phase ph = measure(nullptr);
        reportLoad(ph);
        reportEndToEnd(out, setups.finish(), median(ph.capacity[0]),
                       lightLatency(ph));
        return out;
    }

    const Phase traced = measure(tracer);
    reportLoad(traced);
    reportTraceOverhead(out, median(traced.capacity[0]),
                        median(traced.capacity[1]), *tracer);
    for (const auto &[name, unit] :
         {std::pair<const char *, const char *>{"gen.late_ms_max", "ms"},
          {"gen.offered_rps", "1/s"},
          {"gen.achieved_rps", "1/s"}})
        out.set(name, out.facts.at(name), unit);
    std::vector<double> queueMs, computeMs;
    for (const std::vector<Request> &part : traced.light)
        for (const Request &r : part) {
            queueMs.push_back(1e-3 * r.timing.queueMicros);
            computeMs.push_back(1e-3 * r.timing.computeMicros);
        }
    const LatencySummary queue = summarize(queueMs);
    out.set("serve.queue_ms_p50", queue.p50, "ms");
    out.set("serve.queue_ms_p99", queue.p99, "ms");
    out.set("serve.compute_ms_p50", summarize(computeMs).p50, "ms");
    double batchSum = 0.0;
    for (double b : traced.saturationBatch)
        batchSum += b;
    const double satBatch =
        batchSum / static_cast<double>(traced.saturationBatch.size());
    out.set("serve.batch_mean", satBatch, "lanes");
    out.set("runtime.artifact.load_ms", microsPerCall([&] {
                (void)runtime::loadArtifactShared(artifact.path());
            }) * 1e-3,
            "ms");
    // Kernels and layers at the lane count saturation batches reach.
    replayCompiledModel(
        *reference,
        std::max<std::size_t>(1, static_cast<std::size_t>(satBatch + 0.5)),
        1, out);
    return out;
}

} // namespace perfbench
