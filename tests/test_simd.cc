/**
 * @file
 * SIMD dispatch tests: the chunk-accumulation overflow bound at its
 * worst legal case, bit-identity of every vector level against the
 * scalar oracle (raw cores and full sessions across backends and
 * batch shapes), thread-count invariance of the pooled kernels and
 * of the fused circulant step (against 1 thread and the solo step),
 * and the ERNN_SIMD-style level parsing.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "nn/model_builder.hh"
#include "quant/fixed_point.hh"
#include "runtime/continuous_batch.hh"
#include "runtime/session.hh"
#include "runtime/thread_pool.hh"
#include "tensor/simd.hh"

using namespace ernn;
using namespace ernn::runtime;

namespace
{

/** Every level the running CPU can execute. */
std::vector<simd::Level>
supportedLevels()
{
    std::vector<simd::Level> out;
    for (simd::Level level :
         {simd::Level::Scalar, simd::Level::Avx2, simd::Level::Neon})
        if (simd::supported(level))
            out.push_back(level);
    return out;
}

/** Exact reference: naive int64 sum, no chunking at all. */
std::int64_t
dotCodesNaive(const std::int16_t *w, const std::int16_t *v,
              std::size_t n)
{
    std::int64_t acc = 0;
    for (std::size_t c = 0; c < n; ++c)
        acc += static_cast<std::int64_t>(w[c]) *
               static_cast<std::int64_t>(v[c]);
    return acc;
}

/** RAII guard so a test can never leave a forced level behind. */
struct LevelGuard
{
    simd::Level saved = simd::active();
    ~LevelGuard() { simd::setActive(saved); }
};

} // namespace

// --- safeChunkLen: the overflow bound itself ----------------------------

TEST(SimdChunkBound, MatchesTheClosedForm)
{
    // pb = wb + vb - 2; chunk = 2^(30-pb), degenerating to 1 at
    // pb >= 30.
    EXPECT_EQ(simd::safeChunkLen(12, 12), std::size_t{256});
    EXPECT_EQ(simd::safeChunkLen(12, 16), std::size_t{16});
    EXPECT_EQ(simd::safeChunkLen(14, 14), std::size_t{16});
    EXPECT_EQ(simd::safeChunkLen(16, 12), std::size_t{16});
    EXPECT_EQ(simd::safeChunkLen(16, 15), std::size_t{2});
    EXPECT_EQ(simd::safeChunkLen(15, 16), std::size_t{2});
    EXPECT_EQ(simd::safeChunkLen(16, 16), std::size_t{1});
    EXPECT_EQ(simd::safeChunkLen(8, 8), std::size_t{65536});
}

TEST(SimdChunkBound, WorstCaseChunkNeverOverflowsInt32)
{
    // Audit the bound arithmetically at every (wb, vb) pair: a full
    // chunk of the largest-magnitude product must fit int32. The
    // worst product is minQ*minQ = +2^pb (maxQ*maxQ is smaller).
    for (int wb = 2; wb <= 16; ++wb) {
        for (int vb = 2; vb <= 16; ++vb) {
            const std::int64_t worst =
                (std::int64_t{1} << (wb - 1)) *
                (std::int64_t{1} << (vb - 1));
            const std::int64_t chunkSum =
                static_cast<std::int64_t>(
                    simd::safeChunkLen(wb, vb)) *
                worst;
            EXPECT_LE(chunkSum,
                      std::int64_t{
                          std::numeric_limits<std::int32_t>::max()})
                << "wb=" << wb << " vb=" << vb;
        }
    }
}

TEST(SimdChunkBound, AllMinQCodesAtFullChunkStayExact)
{
    // The saturation regression: fill a vector much longer than one
    // chunk with the worst-case codes (every pairing of minQ/maxQ)
    // and demand the chunked dot — on every supported level — equals
    // the naive int64 sum. An int32 chunk overflow shows up as a
    // wildly wrong total.
    struct Case
    {
        int wb, vb;
    };
    for (const Case &c : {Case{12, 12}, Case{14, 14}, Case{16, 12},
                          Case{12, 16}, Case{16, 15}, Case{16, 16}}) {
        quant::FixedPointFormat wf{c.wb, c.wb - 2};
        quant::FixedPointFormat vf{c.vb, c.vb - 2};
        const std::size_t chunk = simd::safeChunkLen(c.wb, c.vb);
        // Several full chunks plus a ragged tail.
        const std::size_t n = 4 * chunk + chunk / 2 + 3;

        const auto w16 = static_cast<std::int16_t>(wf.minQ());
        const auto v16 = static_cast<std::int16_t>(vf.minQ());
        const auto wmax = static_cast<std::int16_t>(wf.maxQ());
        const auto vmax = static_cast<std::int16_t>(vf.maxQ());
        const std::vector<std::vector<std::int16_t>> wpats = {
            std::vector<std::int16_t>(n, w16),
            std::vector<std::int16_t>(n, wmax),
        };
        const std::vector<std::vector<std::int16_t>> vpats = {
            std::vector<std::int16_t>(n, v16),
            std::vector<std::int16_t>(n, vmax),
        };
        for (const auto &w : wpats) {
            for (const auto &v : vpats) {
                const std::int64_t want =
                    dotCodesNaive(w.data(), v.data(), n);
                for (simd::Level level : supportedLevels())
                    EXPECT_EQ(simd::dotCodesFnFor(level)(
                                  w.data(), v.data(), n, chunk),
                              want)
                        << "wb=" << c.wb << " vb=" << c.vb
                        << " level=" << simd::levelName(level);
            }
        }
    }
}

// --- dispatch plumbing --------------------------------------------------

TEST(SimdDispatch, ParseLevelAcceptsTheDocumentedSpellings)
{
    simd::Level level;
    bool isAuto = true;
    ASSERT_TRUE(simd::parseLevel("scalar", level, isAuto));
    EXPECT_EQ(level, simd::Level::Scalar);
    EXPECT_FALSE(isAuto);
    ASSERT_TRUE(simd::parseLevel("avx2", level, isAuto));
    EXPECT_EQ(level, simd::Level::Avx2);
    EXPECT_FALSE(isAuto);
    ASSERT_TRUE(simd::parseLevel("neon", level, isAuto));
    EXPECT_EQ(level, simd::Level::Neon);
    EXPECT_FALSE(isAuto);
    ASSERT_TRUE(simd::parseLevel("auto", level, isAuto));
    EXPECT_TRUE(isAuto);
    EXPECT_FALSE(simd::parseLevel("sse9", level, isAuto));
    EXPECT_FALSE(simd::parseLevel("", level, isAuto));
}

TEST(SimdDispatch, SetActiveSelectsDistinctImplementations)
{
    LevelGuard guard;
    EXPECT_TRUE(simd::supported(simd::Level::Scalar));
    EXPECT_TRUE(simd::supported(simd::detect()));
    for (simd::Level level : supportedLevels()) {
        simd::setActive(level);
        EXPECT_EQ(simd::active(), level);
        EXPECT_EQ(simd::dotCodesFn(), simd::dotCodesFnFor(level));
    }
    // Where a vector level exists, it must actually be a different
    // implementation — otherwise the parity tests test nothing.
    for (simd::Level level : supportedLevels()) {
        if (level == simd::Level::Scalar)
            continue;
        EXPECT_NE(simd::dotCodesFnFor(level),
                  simd::dotCodesFnFor(simd::Level::Scalar))
            << simd::levelName(level);
    }
}

// --- raw-core parity: random codes and random GEMMs ---------------------

TEST(SimdParity, DotCodesMatchesScalarOnRandomCodes)
{
    Rng rng(71);
    for (const std::size_t n : {1u, 7u, 16u, 33u, 257u, 1000u}) {
        std::vector<std::int16_t> w(n), v(n);
        for (std::size_t i = 0; i < n; ++i) {
            // Full int16 range: the dot core is format-agnostic.
            w[i] = static_cast<std::int16_t>(
                static_cast<int>(rng.index(65536)) - 32768);
            v[i] = static_cast<std::int16_t>(
                static_cast<int>(rng.index(65536)) - 32768);
        }
        for (const std::size_t chunk : {std::size_t{1},
                                        std::size_t{2},
                                        std::size_t{16},
                                        std::size_t{256}}) {
            const std::int64_t want =
                simd::dotCodesScalar(w.data(), v.data(), n, chunk);
            // chunk >= 2 keeps int32 partials safe only for narrow
            // formats; these random full-range codes can overflow a
            // chunk, so only compare levels at chunk = 1 ... except
            // every level must agree with the *scalar chunked* sum at
            // the same chunk, overflowing identically or not at all.
            // Integer wrap is UB in the scalar int32 accumulation, so
            // stay on the safe side: compare at chunk 1 and 2 with
            // clamped 12-bit codes below instead.
            if (chunk == 1) {
                for (simd::Level level : supportedLevels())
                    EXPECT_EQ(simd::dotCodesFnFor(level)(
                                  w.data(), v.data(), n, chunk),
                              want)
                        << "n=" << n
                        << " level=" << simd::levelName(level);
            }
        }
        // Clamp to a 12-bit grid and sweep every chunk size legally.
        for (auto *vec : {&w, &v})
            for (auto &q : *vec)
                q = static_cast<std::int16_t>(
                    std::max(-2048, std::min(2047, int{q})));
        for (const std::size_t chunk : {std::size_t{1},
                                        std::size_t{2},
                                        std::size_t{16},
                                        std::size_t{256}}) {
            const std::int64_t want =
                simd::dotCodesScalar(w.data(), v.data(), n, chunk);
            EXPECT_EQ(dotCodesNaive(w.data(), v.data(), n), want);
            for (simd::Level level : supportedLevels())
                EXPECT_EQ(simd::dotCodesFnFor(level)(
                              w.data(), v.data(), n, chunk),
                          want)
                    << "n=" << n << " chunk=" << chunk
                    << " level=" << simd::levelName(level);
        }
    }
}

TEST(SimdParity, GemmF64MatchesScalarBitwise)
{
    Rng rng(72);
    for (const std::size_t lanes : {1u, 3u, 4u, 7u, 16u, 64u}) {
        for (const std::size_t rows : {1u, 4u, 5u, 32u}) {
            const std::size_t cols = 17;
            std::vector<Real> w(rows * cols), x(cols * lanes);
            rng.fillNormal(w, 1.0);
            rng.fillNormal(x, 1.0);
            std::vector<Real> y0(rows * lanes);
            rng.fillNormal(y0, 1.0); // accumulate onto noise
            std::vector<Real> want = y0;
            simd::gemmAccF64Scalar(w.data(), rows, cols, x.data(),
                                   want.data(), lanes);
            for (simd::Level level : supportedLevels()) {
                LevelGuard guard;
                simd::setActive(level);
                std::vector<Real> got = y0;
                simd::gemmAccF64Fn()(w.data(), rows, cols, x.data(),
                                     got.data(), lanes);
                for (std::size_t i = 0; i < got.size(); ++i)
                    ASSERT_EQ(got[i], want[i])
                        << "lanes=" << lanes << " rows=" << rows
                        << " i=" << i
                        << " level=" << simd::levelName(level);
            }
        }
    }
}

TEST(SimdParity, GemmF32MatchesScalarBitwise)
{
    Rng rng(73);
    for (const std::size_t lanes : {1u, 5u, 8u, 11u, 64u}) {
        const std::size_t rows = 13, cols = 29;
        std::vector<Real> wr(rows * cols), xr(cols * lanes);
        rng.fillNormal(wr, 1.0);
        rng.fillNormal(xr, 1.0);
        std::vector<float> w(wr.begin(), wr.end());
        std::vector<float> x(xr.begin(), xr.end());
        std::vector<Real> want(rows * lanes, -1.0);
        simd::gemmF32Scalar(w.data(), rows, cols, x.data(),
                            want.data(), lanes);
        for (simd::Level level : supportedLevels()) {
            LevelGuard guard;
            simd::setActive(level);
            std::vector<Real> got(rows * lanes, 99.0); // overwrite
            simd::gemmF32Fn()(w.data(), rows, cols, x.data(),
                              got.data(), lanes);
            for (std::size_t i = 0; i < got.size(); ++i)
                ASSERT_EQ(got[i], want[i])
                    << "lanes=" << lanes << " i=" << i
                    << " level=" << simd::levelName(level);
        }
    }
}

TEST(SimdParity, ComplexMacLanesMatchScalarBitwise)
{
    // The conj/plain spectra MACs: every (lane, bin) accumulator is
    // independent, so vector levels must reproduce the scalar bits
    // exactly — including the real-only edge bins and ragged interior
    // bin counts that leave a scalar tail after the 2-bin vectors.
    Rng rng(74);
    for (const std::size_t lanes : {1u, 2u, 3u, 7u, 16u}) {
        for (const std::size_t bins : {2u, 3u, 6u, 17u, 33u}) {
            std::vector<Real> w(2 * bins), x(2 * lanes * bins),
                acc0(2 * lanes * bins);
            rng.fillNormal(w, 1.0);
            rng.fillNormal(x, 1.0);
            rng.fillNormal(acc0, 1.0); // accumulate onto noise
            std::vector<Real> wantC = acc0, wantP = acc0;
            simd::conjMacLanesScalar(wantC.data(), w.data(), x.data(),
                                     lanes, bins);
            simd::plainMacLanesScalar(wantP.data(), w.data(),
                                      x.data(), lanes, bins);
            for (simd::Level level : supportedLevels()) {
                LevelGuard guard;
                simd::setActive(level);
                std::vector<Real> gotC = acc0, gotP = acc0;
                simd::conjMacLanesFn()(gotC.data(), w.data(),
                                       x.data(), lanes, bins);
                simd::plainMacLanesFn()(gotP.data(), w.data(),
                                        x.data(), lanes, bins);
                for (std::size_t i = 0; i < gotC.size(); ++i) {
                    ASSERT_EQ(gotC[i], wantC[i])
                        << "conj lanes=" << lanes << " bins=" << bins
                        << " i=" << i
                        << " level=" << simd::levelName(level);
                    ASSERT_EQ(gotP[i], wantP[i])
                        << "plain lanes=" << lanes << " bins=" << bins
                        << " i=" << i
                        << " level=" << simd::levelName(level);
                }
            }
        }
    }
}

// --- end-to-end parity: sessions across backends and batch shapes -------

namespace
{

nn::Sequence
randomFrames(std::size_t t, std::size_t dim, std::uint64_t seed)
{
    Rng rng(seed);
    nn::Sequence xs(t);
    for (auto &x : xs) {
        x.resize(dim);
        rng.fillNormal(x, 1.0);
    }
    return xs;
}

nn::ModelSpec
paritySpec()
{
    nn::ModelSpec spec;
    spec.type = nn::ModelType::Lstm;
    spec.inputDim = 16;
    spec.numClasses = 9;
    spec.layerSizes = {32, 32};
    spec.blockSizes = {8, 1}; // circulant then dense
    spec.peephole = true;
    spec.projectionSize = 16;
    return spec;
}

CompiledModel
compileBackend(BackendKind backend, std::uint64_t seed,
               std::size_t computeThreads = 1,
               DensePrecision prec = DensePrecision::F64)
{
    nn::StackedRnn model = nn::buildModel(paritySpec());
    Rng rng(seed);
    model.initXavier(rng);
    CompileOptions opts;
    opts.backend = backend;
    opts.computeThreads = computeThreads;
    opts.densePrecision = prec;
    if (backend == BackendKind::FixedPoint)
        opts.fixedPointBits = 12;
    return compile(model, opts);
}

/** Batched logits of @p model over a ragged utterance set. */
BatchResult
runBatch(const CompiledModel &model,
         const std::vector<nn::Sequence> &utts,
         std::size_t computeThreads = 0)
{
    InferenceSession session =
        model.createSession(computeThreads);
    std::vector<const nn::Sequence *> ptrs;
    for (const auto &u : utts)
        ptrs.push_back(&u);
    return session.run(ptrs);
}

std::vector<nn::Sequence>
raggedUtterances(std::size_t count, std::size_t dim,
                 std::uint64_t seed)
{
    std::vector<nn::Sequence> utts(count);
    for (std::size_t u = 0; u < count; ++u)
        utts[u] = randomFrames(1 + (u * 7) % 13, dim, seed + u);
    return utts;
}

void
expectBatchesIdentical(const BatchResult &a, const BatchResult &b,
                       const char *what)
{
    ASSERT_EQ(a.logits.size(), b.logits.size()) << what;
    for (std::size_t u = 0; u < a.logits.size(); ++u) {
        ASSERT_EQ(a.logits[u].size(), b.logits[u].size()) << what;
        for (std::size_t t = 0; t < a.logits[u].size(); ++t)
            for (std::size_t k = 0; k < a.logits[u][t].size(); ++k)
                ASSERT_EQ(a.logits[u][t][k], b.logits[u][t][k])
                    << what << " u=" << u << " t=" << t
                    << " k=" << k;
    }
}

} // namespace

TEST(SimdParity, SessionsBitIdenticalAcrossLevelsBackendsBatches)
{
    LevelGuard guard;
    std::uint64_t seed = 500;
    for (BackendKind backend :
         {BackendKind::Dense, BackendKind::CirculantFft,
          BackendKind::FixedPoint}) {
        const CompiledModel model = compileBackend(backend, seed);
        for (const std::size_t batch : {1u, 7u, 16u, 64u}) {
            const auto utts = raggedUtterances(
                batch, paritySpec().inputDim, seed + batch);
            simd::setActive(simd::Level::Scalar);
            const BatchResult want = runBatch(model, utts);
            for (simd::Level level : supportedLevels()) {
                simd::setActive(level);
                expectBatchesIdentical(runBatch(model, utts), want,
                                       simd::levelName(level));
            }
        }
        seed += 100;
    }
}

TEST(SimdParity, ThreadCountNeverChangesTheBits)
{
    // Row-range partitioning never splits an accumulator chain, so
    // any thread count is bit-identical — including on the integer
    // datapath, and at thread counts above the lane/row counts.
    std::uint64_t seed = 700;
    for (BackendKind backend :
         {BackendKind::Dense, BackendKind::CirculantFft,
          BackendKind::FixedPoint}) {
        const CompiledModel model = compileBackend(backend, seed);
        const auto utts =
            raggedUtterances(16, paritySpec().inputDim, seed + 1);
        const BatchResult want = runBatch(model, utts, 1);
        for (const std::size_t threads : {2u, 4u, 7u}) {
            expectBatchesIdentical(runBatch(model, utts, threads),
                                   want, "threads");
        }
        seed += 100;
    }
}

namespace
{

/** A CirculantFFT model whose every gate matrix is circulant and
 *  which has no projection, so each layer takes the fused step. */
struct FusedCase
{
    const char *name;
    nn::ModelType type;
    bool peephole;
    std::size_t hidden, block, inputBlock;
};

/**
 * Hidden sizes give 5 and 3 fused row groups (group = the larger
 * block size): below 7 threads and not divisible by 2, 3 or 4. Input
 * and recurrent block sizes differ in both directions.
 */
const FusedCase kFusedCases[] = {
    {"lstm", nn::ModelType::Lstm, false, 40, 8, 4},
    {"lstm-peephole", nn::ModelType::Lstm, true, 24, 4, 8},
    {"gru", nn::ModelType::Gru, false, 40, 8, 2},
    {"gru-uniform", nn::ModelType::Gru, false, 48, 16, 16},
};

std::shared_ptr<const CompiledModel>
compileFused(const FusedCase &c, std::uint64_t seed)
{
    nn::ModelSpec spec;
    spec.type = c.type;
    spec.inputDim = 16;
    spec.numClasses = 7;
    spec.layerSizes = {c.hidden, c.hidden};
    spec.blockSizes = {c.block, c.block};
    spec.inputBlockSizes = {c.inputBlock, c.inputBlock};
    spec.peephole = c.peephole;
    nn::StackedRnn model = nn::buildModel(spec);
    Rng rng(seed);
    model.initXavier(rng);
    CompileOptions opts;
    opts.backend = BackendKind::CirculantFft;
    auto compiled = compileShared(model, opts);
    for (std::size_t i = 0; i < compiled->numLayers(); ++i)
        for (const LinearKernel *k : compiled->layer(i).kernels())
            EXPECT_EQ(k->backendName(), "circulant-fft") << c.name;
    return compiled;
}

} // namespace

TEST(SimdParity, FusedCirculantStepIsThreadCountInvariant)
{
    // The fused step splits segment FFTs and gate row groups across
    // the pool; every thread count must give the 1-thread bits, and
    // those must equal the solo step() path lane by lane.
    std::uint64_t seed = 1200;
    for (const FusedCase &c : kFusedCases) {
        const auto compiled = compileFused(c, seed);
        const CompiledModel &model = *compiled;
        for (const std::size_t lanes : {1u, 7u, 16u}) {
            const auto utts = raggedUtterances(lanes, 16, seed + lanes);
            const BatchResult want = runBatch(model, utts, 1);
            InferenceSession solo = model.createSession(1);
            for (std::size_t u = 0; u < utts.size(); ++u) {
                const nn::Sequence got = solo.logits(utts[u]);
                ASSERT_EQ(got.size(), want.logits[u].size());
                for (std::size_t t = 0; t < got.size(); ++t)
                    for (std::size_t k = 0; k < got[t].size(); ++k)
                        ASSERT_EQ(got[t][k], want.logits[u][t][k])
                            << c.name << " solo u=" << u << " t=" << t;
            }
            for (const std::size_t threads : {2u, 3u, 4u, 7u})
                expectBatchesIdentical(runBatch(model, utts, threads),
                                       want, c.name);
        }
        seed += 10;
    }
}

TEST(SimdParity, PooledScratchWithoutSessionMatchesSerial)
{
    // Drive stepBatch and applyBatch the way a standalone replay
    // does: a default-constructed KernelScratch with only the pool
    // set, its per-part FFT scratch grown on first use.
    std::uint64_t seed = 1300;
    for (const FusedCase &c : kFusedCases) {
        const auto compiled = compileFused(c, seed);
        const CompiledModel &model = *compiled;
        const Datapath &dp = model.datapath();
        for (const std::size_t threads : {2u, 3u, 7u}) {
            ThreadPool pool(threads);
            KernelScratch serial, pooled;
            pooled.pool = &pool;
            Rng rng(seed + threads);
            for (std::size_t i = 0; i < model.numLayers(); ++i) {
                const CompiledLayer &layer = model.layer(i);
                const std::size_t lanes = 5;
                LayerBatchState s0, s1;
                LayerBatchScratch b0, b1;
                layer.initBatchState(s0, lanes);
                layer.initBatchState(s1, lanes);
                layer.initBatchScratch(b0, lanes);
                layer.initBatchScratch(b1, lanes);
                Matrix x(layer.inputSize(), lanes);
                Matrix y0(layer.outputSize(), lanes);
                Matrix y1(layer.outputSize(), lanes);
                for (int step = 0; step < 3; ++step) {
                    rng.fillNormal(x.raw(), 0.5);
                    layer.stepBatch(x, s0, y0, b0, serial, dp);
                    layer.stepBatch(x, s1, y1, b1, pooled, dp);
                    ASSERT_EQ(y0.raw(), y1.raw())
                        << c.name << " layer " << i << " step " << step
                        << " threads " << threads;
                    ASSERT_EQ(s0.c.raw(), s1.c.raw()) << c.name;
                }
                for (const LinearKernel *k : layer.kernels()) {
                    Matrix kx(k->inDim(), lanes);
                    rng.fillNormal(kx.raw(), 0.5);
                    Matrix k0(k->outDim(), lanes), k1(k->outDim(), lanes);
                    k->applyBatch(kx, k0, serial);
                    k->applyBatch(kx, k1, pooled);
                    ASSERT_EQ(k0.raw(), k1.raw()) << c.name;
                }
            }
            // Releasing the lane staging drops the per-part scratch;
            // the next pooled call regrows it.
            pooled.releaseLaneStaging();
            EXPECT_TRUE(pooled.fftParts.empty());
        }
        seed += 10;
    }
}

TEST(SimdParity, CompileOptionThreadsFlowThroughSessions)
{
    // computeThreads baked into CompileOptions is inherited by
    // createSession(0) and overridable per session.
    const CompiledModel model =
        compileBackend(BackendKind::Dense, 900, /*computeThreads=*/3);
    const auto utts = raggedUtterances(8, paritySpec().inputDim, 901);
    const BatchResult inherited = runBatch(model, utts, 0);
    const BatchResult forced = runBatch(model, utts, 1);
    expectBatchesIdentical(inherited, forced, "inherit-vs-serial");
}

TEST(SimdParity, ContinuousBatchThreadsStayBitIdentical)
{
    const CompiledModel model =
        compileBackend(BackendKind::FixedPoint, 950);
    const auto utts =
        raggedUtterances(6, paritySpec().inputDim, 951);

    auto drive = [&](std::size_t threads) {
        ContinuousBatch engine(model, threads);
        std::vector<nn::Sequence> got(utts.size());
        for (std::size_t u = 0; u < utts.size(); ++u)
            engine.admit(
                &utts[u],
                [&got, u](std::size_t, const Vector &lg, int) {
                    got[u].push_back(lg);
                },
                nullptr);
        while (!engine.idle())
            engine.stepAll();
        return got;
    };
    const auto want = drive(1);
    const auto got = drive(4);
    for (std::size_t u = 0; u < utts.size(); ++u) {
        ASSERT_EQ(got[u].size(), want[u].size());
        for (std::size_t t = 0; t < want[u].size(); ++t)
            for (std::size_t k = 0; k < want[u][t].size(); ++k)
                ASSERT_EQ(got[u][t][k], want[u][t][k])
                    << "u=" << u << " t=" << t << " k=" << k;
    }
}

// --- f32 dense mode -----------------------------------------------------

TEST(SimdF32Mode, TracksF64WithinSinglePrecision)
{
    const CompiledModel f64 =
        compileBackend(BackendKind::Dense, 1000);
    const CompiledModel f32 = compileBackend(
        BackendKind::Dense, 1000, 1, DensePrecision::F32);
    const auto utts =
        raggedUtterances(7, paritySpec().inputDim, 1001);
    const BatchResult a = runBatch(f64, utts);
    const BatchResult b = runBatch(f32, utts);
    ASSERT_EQ(a.logits.size(), b.logits.size());
    for (std::size_t u = 0; u < a.logits.size(); ++u)
        for (std::size_t t = 0; t < a.logits[u].size(); ++t)
            for (std::size_t k = 0; k < a.logits[u][t].size(); ++k)
                EXPECT_NEAR(a.logits[u][t][k], b.logits[u][t][k],
                            2e-3)
                    << "u=" << u << " t=" << t << " k=" << k;
}

TEST(SimdF32Mode, LevelsAndBatchShapesBitIdenticalWithinF32)
{
    LevelGuard guard;
    const CompiledModel model = compileBackend(
        BackendKind::Dense, 1100, 1, DensePrecision::F32);
    const auto utts =
        raggedUtterances(16, paritySpec().inputDim, 1101);
    simd::setActive(simd::Level::Scalar);
    const BatchResult want = runBatch(model, utts);
    for (simd::Level level : supportedLevels()) {
        simd::setActive(level);
        expectBatchesIdentical(runBatch(model, utts), want,
                               simd::levelName(level));
    }
    // Solo streaming equals the batch columns: lanes = 1 goes
    // through the same f32 kernel.
    simd::setActive(simd::detect());
    InferenceSession solo = model.createSession();
    const nn::Sequence got = solo.logits(utts[0]);
    for (std::size_t t = 0; t < got.size(); ++t)
        for (std::size_t k = 0; k < got[t].size(); ++k)
            ASSERT_EQ(got[t][k], want.logits[0][t][k])
                << "t=" << t << " k=" << k;
}
