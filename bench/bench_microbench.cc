/**
 * @file
 * Google-benchmark microbenchmarks of the computational kernels: the
 * FFT engine, dense vs block-circulant matvec across block sizes
 * (the CPU-side analogue of the paper's compression/acceleration
 * trade-off), projection, quantization, the fixed-point matvec in
 * both its native int16 and f64-emulation forms, activations, and
 * the serving path (legacy training-forward inference vs batched
 * InferenceSessions per backend on the paper-scale 2x1024/block-64
 * LSTM — the geometry behind Tables III/IV).
 *
 * Every run also writes BENCH_microbench.json (google-benchmark's
 * JSON reporter) unless --benchmark_out is given explicitly, so CI
 * and local runs alike leave a machine-readable perf data point.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "base/random.hh"
#include "circulant/block_circulant.hh"
#include "nn/activation.hh"
#include "nn/model_builder.hh"
#include "nn/trainer.hh"
#include "quant/fixed_point.hh"
#include "runtime/artifact.hh"
#include "runtime/session.hh"
#include "serve/inference_server.hh"
#include "speech/ctc_decoder.hh"
#include "speech/frontend.hh"
#include "speech/per.hh"
#include "tensor/fft.hh"
#include "tensor/matrix.hh"
#include "tensor/simd.hh"

using namespace ernn;

namespace
{

Vector
randomVector(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    Vector v(n);
    rng.fillNormal(v, 1.0);
    return v;
}

void
BM_Rfft(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const Vector x = randomVector(n, n);
    for (auto _ : state) {
        auto spec = fft::rfft(x);
        benchmark::DoNotOptimize(spec);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Rfft)->RangeMultiplier(4)->Range(8, 2048);

void
BM_Irfft(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto spec = fft::rfft(randomVector(n, n));
    for (auto _ : state) {
        auto x = fft::irfft(spec, n);
        benchmark::DoNotOptimize(x);
    }
}
BENCHMARK(BM_Irfft)->RangeMultiplier(4)->Range(8, 2048);

void
BM_DenseMatvec(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(1);
    Matrix w(n, n);
    w.initXavier(rng);
    const Vector x = randomVector(n, 2);
    for (auto _ : state) {
        auto y = w.matvec(x);
        benchmark::DoNotOptimize(y);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) * state.range(0) *
        state.range(0));
}
BENCHMARK(BM_DenseMatvec)->Arg(512)->Arg(1024);

void
BM_CirculantMatvec(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto lb = static_cast<std::size_t>(state.range(1));
    Rng rng(3);
    circulant::BlockCirculantMatrix w(n, n, lb);
    w.initXavier(rng);
    const Vector x = randomVector(n, 4);
    (void)w.matvec(x); // warm the spectrum cache
    for (auto _ : state) {
        auto y = w.matvec(x);
        benchmark::DoNotOptimize(y);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) * state.range(0) *
        state.range(0));
}
BENCHMARK(BM_CirculantMatvec)
    ->Args({512, 4})
    ->Args({512, 8})
    ->Args({512, 16})
    ->Args({512, 64})
    ->Args({1024, 8})
    ->Args({1024, 16});

void
BM_CirculantProjection(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(5);
    Matrix dense(n, n);
    dense.initXavier(rng);
    for (auto _ : state) {
        auto proj = circulant::BlockCirculantMatrix::fromDense(
            dense, 8);
        benchmark::DoNotOptimize(proj);
    }
}
BENCHMARK(BM_CirculantProjection)->Arg(256)->Arg(512);

void
BM_Quantize12Bit(benchmark::State &state)
{
    std::vector<Real> buf = randomVector(
        static_cast<std::size_t>(state.range(0)), 6);
    const auto fmt = quant::chooseFormat(12, 4.0);
    for (auto _ : state) {
        auto copy = buf;
        benchmark::DoNotOptimize(quant::quantizeInPlace(copy, fmt));
    }
}
BENCHMARK(BM_Quantize12Bit)->Arg(1 << 14);

// --- Fixed-point matvec: native int16 vs f64 emulation -----------------

/** Value-grid input vector (what the session feeds the kernels). */
Vector
gridVector(std::size_t n, std::uint64_t seed,
           const quant::FixedPointFormat &vf)
{
    Vector x = randomVector(n, seed);
    for (auto &v : x)
        v = vf.quantize(v);
    return x;
}

/** range(0): n; range(1): block size (0 = dense); range(2): 1 for
 *  the native int16 path, 0 for the f64 emulation. */
void
BM_FixedPointMatvec(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto lb = static_cast<std::size_t>(state.range(1));
    const bool native = state.range(2) != 0;

    Rng rng(9);
    std::unique_ptr<runtime::FixedPointKernel> kernel;
    if (lb == 0) {
        Matrix w(n, n);
        w.initXavier(rng);
        kernel = std::make_unique<runtime::FixedPointKernel>(w, 12);
    } else {
        circulant::BlockCirculantMatrix w(n, n, lb);
        w.initXavier(rng);
        kernel = std::make_unique<runtime::FixedPointKernel>(w, 12);
    }

    const quant::FixedPointFormat vf =
        quant::chooseClampFormat(12, 8.0); // the session's value grid
    runtime::KernelScratch scratch;
    if (native)
        scratch.valueFormat = vf; // arms the int16 datapath

    const Vector x = gridVector(n, 10, vf);
    Vector y(n, 0.0);
    for (auto _ : state) {
        kernel->apply(x, y, scratch);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) * state.range(0) *
        state.range(0));
    state.SetLabel(std::string(lb ? "circulant" : "dense") +
                   (native ? "/int16" : "/f64-emulation"));
}
BENCHMARK(BM_FixedPointMatvec)
    ->Args({1024, 64, 1})
    ->Args({1024, 64, 0})
    ->Args({1024, 0, 1})
    ->Args({1024, 0, 0})
    ->Args({512, 16, 1})
    ->Args({512, 16, 0});

// --- Serving path: legacy per-call inference vs batched session ---

/** The acceptance workload: a 2x1024 LSTM with block-64 circulant
 *  weights (the paper-scale deployed geometry). */
nn::ModelSpec
servingSpec()
{
    nn::ModelSpec spec;
    spec.type = nn::ModelType::Lstm;
    spec.inputDim = 128;
    spec.numClasses = 39;
    spec.layerSizes = {1024, 1024};
    spec.blockSizes = {64, 64};
    return spec;
}

std::vector<nn::Sequence>
servingBatch(std::size_t utterances, std::size_t frames,
             std::size_t dim)
{
    Rng rng(17);
    std::vector<nn::Sequence> batch(utterances);
    for (auto &utt : batch) {
        utt.assign(frames, Vector(dim));
        for (auto &f : utt)
            rng.fillNormal(f, 1.0);
    }
    return batch;
}

/** Old path: StackedRnn::predictFrames per utterance (the training
 *  forward — caches every activation, allocates per matvec). */
void
BM_LegacyPredictFrames(benchmark::State &state)
{
    const nn::ModelSpec spec = servingSpec();
    nn::StackedRnn model = nn::buildModel(spec);
    Rng rng(18);
    model.initXavier(rng);
    const auto batch = servingBatch(
        static_cast<std::size_t>(state.range(0)), 4, spec.inputDim);

    for (auto _ : state) {
        for (const auto &utt : batch) {
            auto preds = model.predictFrames(utt);
            benchmark::DoNotOptimize(preds);
        }
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            state.range(0) * 4);
}
BENCHMARK(BM_LegacyPredictFrames)->Arg(4)->Unit(benchmark::kMillisecond);

/** New path: one CompiledModel (CirculantFFT backend), one batched
 *  InferenceSession, zero steady-state allocation. */
void
BM_SessionBatchedRun(benchmark::State &state)
{
    const nn::ModelSpec spec = servingSpec();
    nn::StackedRnn model = nn::buildModel(spec);
    Rng rng(18);
    model.initXavier(rng);
    runtime::CompiledModel compiled = runtime::compile(model);
    runtime::InferenceSession session = compiled.createSession();
    const auto batch = servingBatch(
        static_cast<std::size_t>(state.range(0)), 4, spec.inputDim);

    for (auto _ : state) {
        auto result = session.run(batch);
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            state.range(0) * 4);
}
BENCHMARK(BM_SessionBatchedRun)->Arg(4)->Unit(benchmark::kMillisecond);

/**
 * One batched session per backend on the acceptance geometry. The
 * fixed-point pair (native vs emulation) is the PR-gating number:
 * the int16 datapath must be >= 2x faster than the f64 emulation it
 * is bit-identical to.
 */
void
BM_SessionBackend(benchmark::State &state)
{
    const nn::ModelSpec spec = servingSpec();
    nn::StackedRnn model = nn::buildModel(spec);
    Rng rng(18);
    model.initXavier(rng);

    runtime::CompileOptions opts;
    const char *label = "";
    switch (state.range(0)) {
      case 0:
        opts.backend = runtime::BackendKind::CirculantFft;
        label = "circulant-fft";
        break;
      case 1:
        opts.backend = runtime::BackendKind::Dense;
        label = "dense";
        break;
      case 2:
        opts.backend = runtime::BackendKind::FixedPoint;
        label = "fixed-point/int16";
        break;
      case 3:
        opts.backend = runtime::BackendKind::FixedPoint;
        opts.fixedPointEmulation = true;
        label = "fixed-point/f64-emulation";
        break;
    }
    runtime::CompiledModel compiled = runtime::compile(model, opts);
    runtime::InferenceSession session = compiled.createSession();
    const auto batch = servingBatch(4, 4, spec.inputDim);

    for (auto _ : state) {
        auto result = session.run(batch);
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) * 4 * 4);
    state.SetLabel(label);
}
BENCHMARK(BM_SessionBackend)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Unit(benchmark::kMillisecond);

/**
 * Batch-major throughput sweep: frames/s of one session's run() per
 * backend across batch sizes (items_processed = frames, so the JSON
 * carries items_per_second = frames/s). The PR-gating number is the
 * batch-16 over batch-1 speedup on the Dense and FixedPoint
 * backends: dynamic batching must buy compute density (one
 * GEMM-shaped kernel call per time step), not just queueing.
 * range(0): backend (0 circulant-fft, 1 dense, 2 fixed-point int16);
 * range(1): batch size.
 */
void
BM_SessionBatchSweep(benchmark::State &state)
{
    const nn::ModelSpec spec = servingSpec();
    nn::StackedRnn model = nn::buildModel(spec);
    Rng rng(18);
    model.initXavier(rng);

    runtime::CompileOptions opts;
    const char *label = "";
    switch (state.range(0)) {
      case 0:
        opts.backend = runtime::BackendKind::CirculantFft;
        label = "circulant-fft";
        break;
      case 1:
        opts.backend = runtime::BackendKind::Dense;
        label = "dense";
        break;
      case 2:
        opts.backend = runtime::BackendKind::FixedPoint;
        label = "fixed-point/int16";
        break;
    }
    runtime::CompiledModel compiled = runtime::compile(model, opts);
    runtime::InferenceSession session = compiled.createSession();

    const auto lanes = static_cast<std::size_t>(state.range(1));
    const std::size_t frames = 4;
    const auto batch = servingBatch(lanes, frames, spec.inputDim);

    for (auto _ : state) {
        auto result = session.run(batch);
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(lanes * frames));
    state.SetLabel(std::string(label) + "/batch" +
                   std::to_string(lanes));
}
BENCHMARK(BM_SessionBatchSweep)
    ->ArgsProduct({{0, 1, 2}, {1, 4, 16, 64}})
    ->Unit(benchmark::kMillisecond);

/**
 * SIMD dispatch toggle on the int16 fixed-point matvec (the paper's
 * deployed kernel). range(0): n; range(1): block size (0 = dense);
 * range(2): 0 forces the scalar oracle, 1 the best detected level.
 * The PR-gating number: on AVX2 hardware the dispatched dense int16
 * matvec must be >= 2x the scalar oracle it is bit-identical to
 * (perf-smoke computes the ratio from the labels).
 */
void
BM_SimdLevelMatvec(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto lb = static_cast<std::size_t>(state.range(1));
    const bool best = state.range(2) != 0;
    const simd::Level level = best ? simd::detect()
                                   : simd::Level::Scalar;
    const simd::Level saved = simd::active();
    simd::setActive(level);

    Rng rng(9);
    std::unique_ptr<runtime::FixedPointKernel> kernel;
    if (lb == 0) {
        Matrix w(n, n);
        w.initXavier(rng);
        kernel = std::make_unique<runtime::FixedPointKernel>(w, 12);
    } else {
        circulant::BlockCirculantMatrix w(n, n, lb);
        w.initXavier(rng);
        kernel = std::make_unique<runtime::FixedPointKernel>(w, 12);
    }

    const quant::FixedPointFormat vf = quant::chooseClampFormat(12, 8.0);
    runtime::KernelScratch scratch;
    scratch.valueFormat = vf; // native int16 datapath

    const Vector x = gridVector(n, 10, vf);
    Vector y(n, 0.0);
    for (auto _ : state) {
        kernel->apply(x, y, scratch);
        benchmark::DoNotOptimize(y.data());
    }
    simd::setActive(saved);
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) * state.range(0) *
        state.range(0));
    state.SetLabel(std::string(lb ? "circulant" : "dense") + "/simd-" +
                   simd::levelName(level));
}
// n = 512 dense (512 KB of codes) stays cache-resident — that pair
// is the kernel-speedup ratio; n = 1024 dense (2 MB) streams from
// memory and shows the bandwidth ceiling instead.
BENCHMARK(BM_SimdLevelMatvec)
    ->Args({512, 0, 0})
    ->Args({512, 0, 1})
    ->Args({1024, 0, 0})
    ->Args({1024, 0, 1})
    ->Args({1024, 64, 0})
    ->Args({1024, 64, 1});

/**
 * Intra-session multicore scaling: run() at batch 64 on the
 * acceptance geometry with the session's compute pool at 1..N
 * threads. Row ranges of each timestep GEMM are split across the
 * pool; results are bit-identical at any thread count (see
 * test_simd), so items_per_second is a pure scaling curve.
 * perf-smoke reports the N-thread over 1-thread ratio. range(0):
 * backend (0 circulant-fft, whose fused gate step splits segment
 * FFTs and gate row groups, 1 dense, 2 fixed-point int16);
 * range(1): threads.
 */
void
BM_SessionThreadSweep(benchmark::State &state)
{
    const nn::ModelSpec spec = servingSpec();
    nn::StackedRnn model = nn::buildModel(spec);
    Rng rng(18);
    model.initXavier(rng);

    runtime::CompileOptions opts;
    const char *label = "";
    switch (state.range(0)) {
      case 0:
        opts.backend = runtime::BackendKind::CirculantFft;
        label = "circulant-fft";
        break;
      case 1:
        opts.backend = runtime::BackendKind::Dense;
        label = "dense";
        break;
      case 2:
        opts.backend = runtime::BackendKind::FixedPoint;
        label = "fixed-point/int16";
        break;
    }
    runtime::CompiledModel compiled = runtime::compile(model, opts);
    const auto threads = static_cast<std::size_t>(state.range(1));
    runtime::InferenceSession session =
        compiled.createSession(threads);

    const std::size_t lanes = 64, frames = 4;
    const auto batch = servingBatch(lanes, frames, spec.inputDim);

    for (auto _ : state) {
        auto result = session.run(batch);
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(lanes * frames));
    state.SetLabel(std::string(label) + "/threads" +
                   std::to_string(threads));
}
// UseRealTime: work moves onto pool workers, so the main thread's
// CPU clock would overstate the scaling; wall clock is the honest
// frames/s basis.
BENCHMARK(BM_SessionThreadSweep)
    ->ArgsProduct({{0, 1, 2}, {1, 2, 4}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * Training datapath sweep on the acceptance geometry: one epoch over
 * 16 synthetic utterances, vector-at-a-time oracle vs batch-major
 * pooled lanes at several group sizes and thread counts. perf-smoke
 * reports the batch-16-over-batch-1 and 4-thread-over-1-thread
 * epoch-throughput ratios. range(0): lanes per gradient group (0 =
 * the vector oracle datapath, i.e. one lane at a time); range(1):
 * trainer threads.
 */
void
BM_TrainerBatchSweep(benchmark::State &state)
{
    const nn::ModelSpec spec = servingSpec();
    nn::StackedRnn model = nn::buildModel(spec);
    Rng rng(18);
    model.initXavier(rng);

    const std::size_t utts = 16, frames = 8;
    nn::SequenceDataset data(utts);
    Rng drng(23);
    for (auto &ex : data) {
        ex.frames.assign(frames, Vector(spec.inputDim));
        for (auto &f : ex.frames)
            drng.fillNormal(f, 1.0);
        ex.labels.resize(frames);
        for (auto &l : ex.labels)
            l = static_cast<int>(drng.index(spec.numClasses));
    }

    nn::TrainConfig tc;
    tc.epochs = 1;
    tc.batchSize = utts;
    tc.optimizer = nn::TrainConfig::Opt::Sgd;
    // Tiny step: epoch timing must not drift as weights evolve
    // across benchmark iterations.
    tc.lr = 1e-6;
    const auto lanes = static_cast<std::size_t>(state.range(0));
    const auto threads = static_cast<std::size_t>(state.range(1));
    tc.threads = threads;
    if (lanes == 0) {
        tc.datapath = nn::TrainConfig::Datapath::Vector;
    } else {
        tc.datapath = nn::TrainConfig::Datapath::Batched;
        tc.batchLanes = lanes;
    }

    nn::Trainer trainer(model, tc);
    for (auto _ : state) {
        auto log = trainer.train(data);
        benchmark::DoNotOptimize(log);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(utts * frames));
    state.SetLabel((lanes == 0 ? std::string("vector")
                               : "lanes" + std::to_string(lanes)) +
                   "/threads" + std::to_string(threads));
}
// UseRealTime for the same reason as the session sweep: gradient
// groups run on pool workers.
BENCHMARK(BM_TrainerBatchSweep)
    ->Args({0, 1})  // vector oracle: the batch-1 baseline
    ->Args({1, 1})  // batched machinery at 1 lane (overhead floor)
    ->Args({16, 1}) // one GEMM group of 16 lanes
    ->Args({4, 1})  // 4 groups of 4 lanes, serial
    ->Args({4, 4})  // 4 groups of 4 lanes, 4 threads
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * Gate activations over 4096 values. range(0): 0 sigmoid, 1 tanh;
 * range(1): 0 the float kernel (nn::applyActivation), 1 the
 * 64-segment PWL table; range(2): 0 forces the scalar oracle, 1 the
 * best detected level (the PWL table has no SIMD form). Perf-smoke
 * prints the scalar-vs-best float-kernel ratio per function.
 */
void
BM_ActivationExactVsPwl(benchmark::State &state)
{
    const auto kind = state.range(0) == 0 ? nn::ActKind::Sigmoid
                                          : nn::ActKind::Tanh;
    const bool pwl = state.range(1) != 0;
    const simd::Level level = state.range(2) != 0
                                  ? simd::detect()
                                  : simd::Level::Scalar;
    const simd::Level saved = simd::active();
    simd::setActive(level);
    const Vector v = randomVector(4096, 7);
    const nn::PiecewiseLinear approx(kind, 64, 8.0);
    Vector work(v.size());
    for (auto _ : state) {
        std::copy(v.begin(), v.end(), work.begin());
        if (pwl)
            approx.apply(work);
        else
            nn::applyActivation(kind, work);
        benchmark::DoNotOptimize(work.data());
    }
    simd::setActive(saved);
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(v.size()));
    state.SetLabel(nn::actName(kind) + (pwl ? "/pwl" : "/exact") +
                   "/simd-" + simd::levelName(level));
}
BENCHMARK(BM_ActivationExactVsPwl)
    ->Args({0, 0, 0})
    ->Args({0, 0, 1})
    ->Args({0, 1, 0})
    ->Args({1, 0, 0})
    ->Args({1, 0, 1})
    ->Args({1, 1, 0});

// --- Fleet layer: artifact cold load and scheduler throughput ---

/** v2 and v3 artifacts of the acceptance-geometry LSTM, written to
 *  the temp dir once per process so every cold-load iteration reads
 *  the same bytes. */
struct ColdLoadFixture
{
    std::string v2;
    std::string v3;

    ColdLoadFixture()
    {
        const nn::ModelSpec spec = servingSpec();
        nn::StackedRnn model = nn::buildModel(spec);
        Rng rng(18);
        model.initXavier(rng);
        // FixedPoint: the deployed int16 datapath, whose packed code
        // blobs the v3 mapping serves in place. (The FFT backend
        // copies its generators into spectra even when mapped, so it
        // cannot show the zero-copy win.)
        runtime::CompileOptions copts;
        copts.backend = runtime::BackendKind::FixedPoint;
        const runtime::CompiledModel compiled =
            runtime::compile(model, copts);
        const std::string dir =
            std::filesystem::temp_directory_path().string();
        v2 = dir + "/ernn_bench_coldload_v2.ernn";
        v3 = dir + "/ernn_bench_coldload_v3.ernn";
        runtime::saveArtifact(compiled, v2, 2);
        runtime::saveArtifact(compiled, v3, 3);
    }
};

const ColdLoadFixture &
coldLoadFixture()
{
    static ColdLoadFixture fixture;
    return fixture;
}

/**
 * Cold load to model-ready on the 2x1024/block-64 LSTM. The
 * PR-gating number: the v3 mmap load (weights served in place from
 * the 64-byte-aligned blob section) must be >= 10x faster than the
 * v2 copy load that parses and heap-copies every weight. The
 * verified variant still streams the bytes once for per-blob
 * checksums; the trusted variant is metadata-only — microseconds to
 * first inference for a store already verified at publish time.
 * range(0): 0 v2 copy, 1 v3 mmap verified, 2 v3 mmap trusted.
 */
void
BM_ArtifactColdLoad(benchmark::State &state)
{
    const ColdLoadFixture &fixture = coldLoadFixture();
    const char *label = "";
    for (auto _ : state) {
        switch (state.range(0)) {
          case 0: {
            auto model = runtime::loadArtifactShared(fixture.v2);
            benchmark::DoNotOptimize(model);
            label = "v2-copy";
            break;
          }
          case 1: {
            auto model = runtime::loadArtifactMapped(fixture.v3);
            benchmark::DoNotOptimize(model);
            label = "v3-mmap-verified";
            break;
          }
          case 2: {
            runtime::MapOptions opts;
            opts.verifyBlobs = false;
            auto model =
                runtime::loadArtifactMapped(fixture.v3, opts);
            benchmark::DoNotOptimize(model);
            label = "v3-mmap-trusted";
            break;
          }
        }
    }
    state.SetLabel(label);
}
BENCHMARK(BM_ArtifactColdLoad)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMicrosecond);

/**
 * Continuous batching vs hold-open at equal offered load, one
 * compute thread each (workers=1 isolates the scheduler; more
 * workers would hand hold-open extra cores instead of a better
 * policy). The utterance mix is bimodal — mostly short commands
 * plus a few long dictations, the workload continuous batching was
 * invented for: under hold-open every wave that contains a long
 * utterance decays to one occupied lane until it finishes, while
 * continuous admission refills retired slots from the queue on the
 * very next step. Per BM_SessionBatchSweep the int16 datapath's
 * compute-density curve is steepest between batch 1 and 4 (116 ->
 * 271 frames/s at paper scale), so the occupancy the scheduler
 * preserves maps directly onto frames/s. items_per_second is the
 * PR-gating pair. range(0): 0 hold-open, 1 continuous.
 */
void
BM_ServeScheduler(benchmark::State &state)
{
    const bool continuous = state.range(0) != 0;
    const nn::ModelSpec spec = servingSpec();
    nn::StackedRnn model = nn::buildModel(spec);
    Rng rng(18);
    model.initXavier(rng);
    runtime::CompileOptions copts;
    copts.backend = runtime::BackendKind::FixedPoint;
    const runtime::CompiledModel compiled =
        runtime::compile(model, copts);

    Rng lens(7);
    std::vector<nn::Sequence> load(16);
    std::size_t total_frames = 0;
    for (std::size_t u = 0; u < load.size(); ++u) {
        // Every fourth utterance is a long dictation (28..35
        // frames); the rest are short commands (2..5).
        const std::size_t frames =
            u % 4 == 2 ? 28 + lens.index(8) : 2 + lens.index(4);
        total_frames += frames;
        load[u].assign(frames, Vector(spec.inputDim));
        for (auto &frame : load[u])
            lens.fillNormal(frame, 1.0);
    }

    serve::ServerOptions sopts;
    sopts.workers = 1;
    sopts.maxBatch = 4;
    sopts.queueCapacity = load.size();
    sopts.scheduler = continuous ? serve::SchedulerMode::Continuous
                                 : serve::SchedulerMode::HoldOpen;
    serve::InferenceServer server(compiled, sopts);

    for (auto _ : state) {
        std::vector<std::future<serve::InferenceReply>> futs;
        futs.reserve(load.size());
        for (const auto &utt : load)
            futs.push_back(server.submit(utt));
        for (auto &fut : futs)
            fut.get();
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(total_frames));
    state.SetLabel(continuous ? "continuous" : "hold-open");
}
// UseRealTime: the submitting thread mostly waits on futures, so CPU
// time would make items_per_second meaningless for a server bench.
BENCHMARK(BM_ServeScheduler)
    ->Arg(0)
    ->Arg(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * Acoustic frontend throughput: raw 16 kHz samples -> log-mel frames
 * through the streaming push() path (the per-stream steady state,
 * allocation-free once warm). items_per_second counts emitted
 * frames; one frame represents 10 ms of audio, so frames/s / 100 is
 * the number of real-time streams one core can front-end.
 */
void
BM_Frontend(benchmark::State &state)
{
    speech::FrontendConfig cfg; // 16 kHz / 25 ms / 10 ms / 16 bands
    const speech::AcousticFrontend fe(cfg);
    Rng rng(13);
    Vector samples(cfg.sampleRate); // one second of audio
    rng.fillNormal(samples, 0.25);

    speech::FrontendState st = fe.newState();
    std::size_t frames = 0;
    const auto count = [&](const Vector &) { ++frames; };
    for (auto _ : state) {
        fe.reset(st);
        frames = 0;
        fe.push(st, samples.data(), samples.size(), count);
        benchmark::DoNotOptimize(frames);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(frames));
}
BENCHMARK(BM_Frontend)->Unit(benchmark::kMillisecond);

/**
 * CTC decode cost over one utterance of paper-ish logits (200 frames
 * x 40 classes). Arg = beam width: 0 is the greedy argmax + collapse
 * baseline, 1 the beam decoder's parity point (its overhead over
 * greedy), 4 the accuracy setting `ernn eval --beam 4` serves.
 * items_per_second counts decoded frames.
 */
void
BM_BeamDecode(benchmark::State &state)
{
    const std::size_t beam =
        static_cast<std::size_t>(state.range(0));
    Rng rng(17);
    nn::Sequence logits(200);
    for (auto &frame : logits) {
        frame.resize(40);
        rng.fillNormal(frame, 2.0);
    }

    for (auto _ : state) {
        if (beam == 0) {
            std::vector<int> preds;
            preds.reserve(logits.size());
            for (const auto &frame : logits)
                preds.push_back(static_cast<int>(argmax(frame)));
            benchmark::DoNotOptimize(
                speech::collapseRepeats(preds));
        } else {
            speech::CtcDecodeOptions opts;
            opts.beamWidth = beam;
            benchmark::DoNotOptimize(
                speech::ctcDecode(logits, opts).labels);
        }
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(logits.size()));
    state.SetLabel(beam == 0 ? "greedy"
                             : "beam-" + std::to_string(beam));
}
BENCHMARK(BM_BeamDecode)->Arg(0)->Arg(1)->Arg(4);

} // namespace

/**
 * BENCHMARK_MAIN with one addition: unless the caller passes its own
 * --benchmark_out, results are also written to BENCH_microbench.json
 * (JSON reporter) in the working directory — the machine-readable
 * perf trail CI uploads per commit.
 */
int
main(int argc, char **argv)
{
    std::vector<char *> args(argv, argv + argc);
    bool has_out = false;
    for (int i = 1; i < argc; ++i)
        // Exactly --benchmark_out or --benchmark_out=...; a bare
        // --benchmark_out_format must not suppress the default file.
        if (std::strcmp(argv[i], "--benchmark_out") == 0 ||
            std::strncmp(argv[i], "--benchmark_out=",
                         std::strlen("--benchmark_out=")) == 0)
            has_out = true;
    std::string out_flag = "--benchmark_out=BENCH_microbench.json";
    std::string format_flag = "--benchmark_out_format=json";
    if (!has_out) {
        args.push_back(out_flag.data());
        args.push_back(format_flag.data());
    }

    int patched_argc = static_cast<int>(args.size());
    benchmark::Initialize(&patched_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(patched_argc,
                                               args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
