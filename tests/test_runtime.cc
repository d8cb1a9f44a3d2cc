/**
 * @file
 * Runtime (serving) API tests: backend parity against the legacy
 * StackedRnn forward on randomized specs, batched run() vs
 * per-utterance loops, streaming step() vs full-sequence run(), the
 * FixedPoint backend's bit-exact agreement with quant:: rounding,
 * registry/immutability contracts, StreamState reuse across
 * utterances, and concurrent sessions sharing one CompiledModel
 * (run under TSan/ASan in CI).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "nn/lstm.hh"
#include "nn/model_builder.hh"
#include "quant/fixed_point.hh"
#include "runtime/compiled_layers.hh"
#include "runtime/continuous_batch.hh"
#include "runtime/session.hh"
#include "runtime/wire.hh"

using namespace ernn;
using namespace ernn::runtime;

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

/** A few structurally diverse specs the parity tests sweep over. */
std::vector<nn::ModelSpec>
randomSpecs()
{
    std::vector<nn::ModelSpec> specs;

    nn::ModelSpec lstm_circ;
    lstm_circ.type = nn::ModelType::Lstm;
    lstm_circ.inputDim = 16;
    lstm_circ.numClasses = 9;
    lstm_circ.layerSizes = {32, 32};
    lstm_circ.blockSizes = {8, 4};
    lstm_circ.peephole = true;
    lstm_circ.projectionSize = 16;
    specs.push_back(lstm_circ);

    nn::ModelSpec gru_circ;
    gru_circ.type = nn::ModelType::Gru;
    gru_circ.inputDim = 8;
    gru_circ.numClasses = 5;
    gru_circ.layerSizes = {24};
    gru_circ.blockSizes = {8};
    specs.push_back(gru_circ);

    nn::ModelSpec lstm_dense;
    lstm_dense.type = nn::ModelType::Lstm;
    lstm_dense.inputDim = 12;
    lstm_dense.numClasses = 7;
    lstm_dense.layerSizes = {20};
    specs.push_back(lstm_dense);

    nn::ModelSpec gru_mixed;
    gru_mixed.type = nn::ModelType::Gru;
    gru_mixed.inputDim = 16;
    gru_mixed.numClasses = 6;
    gru_mixed.layerSizes = {16, 16};
    gru_mixed.blockSizes = {4, 1}; // circulant then dense
    specs.push_back(gru_mixed);

    return specs;
}

nn::StackedRnn
buildInit(const nn::ModelSpec &spec, std::uint64_t seed)
{
    nn::StackedRnn model = nn::buildModel(spec);
    Rng rng(seed);
    model.initXavier(rng);
    return model;
}

void
expectSequencesNear(const nn::Sequence &a, const nn::Sequence &b,
                    Real tol)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t t = 0; t < a.size(); ++t) {
        ASSERT_EQ(a[t].size(), b[t].size()) << "t=" << t;
        for (std::size_t k = 0; k < a[t].size(); ++k)
            EXPECT_NEAR(a[t][k], b[t][k], tol)
                << "t=" << t << " k=" << k;
    }
}

} // namespace

// --- Backend parity against the legacy forward -------------------------

TEST(RuntimeParity, AutoBackendMatchesLegacyForwardExactly)
{
    std::uint64_t seed = 100;
    for (const auto &spec : randomSpecs()) {
        nn::StackedRnn model = buildInit(spec, seed);
        const nn::Sequence xs = randomFrames(7, spec.inputDim, seed + 1);

        const nn::Sequence expect = model.forwardLogits(xs);
        const std::vector<int> expect_preds = model.predictFrames(xs);

        CompiledModel compiled = compile(model);
        InferenceSession session = compiled.createSession();
        const nn::Sequence got = session.logits(xs);
        const std::vector<int> preds = session.predictFrames(xs);

        // Same op order, same FFT path: bitwise-equivalent math.
        expectSequencesNear(got, expect, 1e-12);
        EXPECT_EQ(preds, expect_preds) << spec.describe();
        seed += 10;
    }
}

TEST(RuntimeParity, DenseBackendMatchesCirculantFftToFftAccuracy)
{
    for (const auto &spec : randomSpecs()) {
        nn::StackedRnn model = buildInit(spec, 7);
        const nn::Sequence xs = randomFrames(5, spec.inputDim, 8);

        CompileOptions dense_opts;
        dense_opts.backend = BackendKind::Dense;
        CompiledModel dense = compile(model, dense_opts);

        CompileOptions fft_opts;
        fft_opts.backend = BackendKind::CirculantFft;
        CompiledModel fft = compile(model, fft_opts);

        InferenceSession ds = dense.createSession();
        InferenceSession fs = fft.createSession();
        // Dense materializes the circulant blocks; only FFT roundoff
        // separates the two backends.
        expectSequencesNear(ds.logits(xs), fs.logits(xs), 1e-9);
    }
}

TEST(RuntimeParity, FixedPointTracksQuantizedLegacyModel)
{
    for (const auto &spec : randomSpecs()) {
        // Reference: the legacy model with its parameters quantized
        // in place by quant::quantizeParams (exact activations).
        nn::StackedRnn reference = buildInit(spec, 21);
        CompileOptions opts;
        opts.backend = BackendKind::FixedPoint;
        opts.fixedPointBits = 16;
        opts.activationSegments = 0; // exact activations
        CompiledModel compiled = compile(reference, opts);

        quant::quantizeParams(reference.params(),
                              opts.fixedPointBits);
        const nn::Sequence xs = randomFrames(6, spec.inputDim, 22);
        const nn::Sequence expect = reference.forwardLogits(xs);

        InferenceSession session = compiled.createSession();
        const nn::Sequence got = session.logits(xs);

        // Same quantized weights; the backend additionally rounds
        // every intermediate value to the 16-bit value grid, so the
        // logits drift by at most a few quantization steps.
        expectSequencesNear(got, expect, 0.02);
    }
}

// --- FixedPoint bit-exactness vs quant:: -------------------------------

TEST(RuntimeFixedPoint, WeightsBitExactWithQuantRounding)
{
    nn::ModelSpec spec = randomSpecs().front();
    nn::StackedRnn model = buildInit(spec, 33);

    CompileOptions opts;
    opts.backend = BackendKind::FixedPoint;
    opts.fixedPointBits = 12;
    CompiledModel compiled = compile(model, opts);

    // Quantize the training model the official way; every compiled
    // kernel must hold the byte-identical rounding result.
    quant::quantizeParams(model.params(), opts.fixedPointBits);

    std::size_t checked = 0;
    for (std::size_t l = 0; l < compiled.numLayers(); ++l) {
        for (const LinearKernel *k : compiled.layer(l).kernels()) {
            const auto *fp = dynamic_cast<const FixedPointKernel *>(k);
            ASSERT_NE(fp, nullptr) << "non-fixed-point kernel";
            EXPECT_EQ(fp->weightFormat().totalBits,
                      opts.fixedPointBits);
            ++checked;
        }
    }
    EXPECT_GE(checked, 9u); // 8 gate matrices + projection

    // Spot-check one tensor end to end: layer 0's Wix generators.
    const auto *lstm =
        dynamic_cast<const nn::LstmLayer *>(&model.layer(0));
    ASSERT_NE(lstm, nullptr);
    const auto *circ = lstm->wix().circulantWeight();
    ASSERT_NE(circ, nullptr);
    const auto *fp0 = dynamic_cast<const FixedPointKernel *>(
        compiled.layer(0).kernels()[0]);
    ASSERT_NE(fp0, nullptr);
    ASSERT_EQ(fp0->quantizedWeights().size(), circ->raw().size());
    for (std::size_t i = 0; i < circ->raw().size(); ++i)
        EXPECT_EQ(fp0->quantizedWeights()[i], circ->raw()[i])
            << "generator entry " << i;
}

// --- Native integer datapath vs the f64 emulation oracle ---------------

namespace
{

CompiledModel
compileFixedPoint(const nn::StackedRnn &model, int bits, bool emulate,
                  std::size_t segments = 128)
{
    CompileOptions opts;
    opts.backend = BackendKind::FixedPoint;
    opts.fixedPointBits = bits;
    opts.activationSegments = segments;
    opts.fixedPointEmulation = emulate;
    return compile(model, opts);
}

/** Quantize every frame onto the value grid of @p vf. */
nn::Sequence
gridFrames(nn::Sequence xs, const quant::FixedPointFormat &vf)
{
    for (auto &frame : xs)
        for (auto &v : frame)
            v = vf.quantize(v);
    return xs;
}

void
expectBitIdentical(const BatchResult &a, const BatchResult &b)
{
    ASSERT_EQ(a.logits.size(), b.logits.size());
    for (std::size_t u = 0; u < a.logits.size(); ++u) {
        ASSERT_EQ(a.logits[u].size(), b.logits[u].size());
        for (std::size_t t = 0; t < a.logits[u].size(); ++t)
            for (std::size_t k = 0; k < a.logits[u][t].size(); ++k)
                EXPECT_EQ(a.logits[u][t][k], b.logits[u][t][k])
                    << "utterance " << u << " frame " << t
                    << " logit " << k;
    }
    EXPECT_EQ(a.predictions, b.predictions);
}

/** int16 path through an armed scratch vs emulation + post. */
void
checkKernelBitExact(const FixedPointKernel &kernel, int bits,
                    std::uint64_t seed)
{
    ASSERT_TRUE(kernel.integerPacked()) << bits << " bits";
    // The same grid construction the session datapath uses.
    const quant::FixedPointFormat vf =
        quant::chooseClampFormat(bits, 8.0);

    Rng rng(seed);
    Vector x(kernel.inDim());
    rng.fillNormal(x, 2.0);
    for (auto &v : x)
        v = vf.quantize(v); // kernel inputs live on the value grid

    KernelScratch armed;
    armed.valueFormat = vf;
    Vector integer(kernel.outDim(), 0.0);
    kernel.apply(x, integer, armed);

    Vector emulated(kernel.outDim(), 0.0);
    kernel.applyEmulated(x, emulated);
    for (auto &v : emulated)
        v = vf.quantize(v); // the session's post

    for (std::size_t r = 0; r < integer.size(); ++r)
        EXPECT_EQ(integer[r], emulated[r])
            << bits << " bits, row " << r;
}

} // namespace

TEST(RuntimeIntegerDatapath, DenseKernelBitExactAcrossWidths)
{
    Rng rng(401);
    Matrix w(24, 16);
    w.initXavier(rng);
    // Mix in large magnitudes so requantization saturates sometimes.
    w.raw()[3] = 3.7;
    w.raw()[40] = -2.9;
    for (int bits = 2; bits <= 16; ++bits)
        checkKernelBitExact(FixedPointKernel(w, bits), bits,
                            500 + static_cast<std::uint64_t>(bits));
}

TEST(RuntimeIntegerDatapath, CirculantKernelBitExactAcrossWidths)
{
    Rng rng(402);
    circulant::BlockCirculantMatrix w(24, 16, 8);
    w.initXavier(rng);
    w.raw()[1] = 2.5;
    for (int bits = 2; bits <= 16; ++bits)
        checkKernelBitExact(FixedPointKernel(w, bits), bits,
                            600 + static_cast<std::uint64_t>(bits));
}

TEST(RuntimeIntegerDatapath, KernelFallsBackAboveSixteenBits)
{
    Rng rng(403);
    Matrix w(8, 8);
    w.initXavier(rng);
    const FixedPointKernel kernel(w, 20);
    EXPECT_FALSE(kernel.integerPacked());

    // Even through an armed scratch the emulation must run (and the
    // raw matvec of grid weights is what it returns).
    KernelScratch armed;
    armed.valueFormat = quant::chooseClampFormat(16, 8.0);
    const Vector x(8, 0.25);
    Vector via_apply(8, 0.0), via_emulated(8, 0.0);
    kernel.apply(x, via_apply, armed);
    kernel.applyEmulated(x, via_emulated);
    for (std::size_t r = 0; r < 8; ++r)
        EXPECT_EQ(via_apply[r], via_emulated[r]);
}

TEST(RuntimeIntegerDatapath, ModelBitExactVsEmulationOracle)
{
    for (const auto &spec : randomSpecs()) {
        const nn::StackedRnn model = buildInit(spec, 91);
        for (int bits : {6, 12, 16}) {
            const CompiledModel native =
                compileFixedPoint(model, bits, false);
            const CompiledModel oracle =
                compileFixedPoint(model, bits, true);
            ASSERT_TRUE(native.datapath().integerDatapath);
            ASSERT_FALSE(oracle.datapath().integerDatapath);

            std::vector<nn::Sequence> batch;
            batch.push_back(randomFrames(7, spec.inputDim, 92));
            batch.push_back(randomFrames(4, spec.inputDim, 93));
            batch.push_back(randomFrames(1, spec.inputDim, 94));

            InferenceSession ns = native.createSession();
            InferenceSession os = oracle.createSession();
            expectBitIdentical(ns.run(batch), os.run(batch));
        }
    }
}

TEST(RuntimeIntegerDatapath, ExactActivationsAlsoBitExact)
{
    // segments == 0 disables the PWL tables: the integer LUT must
    // then reproduce the *exact* sigmoid/tanh + post per grid code.
    const nn::ModelSpec spec = randomSpecs().front();
    const nn::StackedRnn model = buildInit(spec, 96);
    const CompiledModel native =
        compileFixedPoint(model, 12, false, 0);
    const CompiledModel oracle = compileFixedPoint(model, 12, true, 0);

    const std::vector<nn::Sequence> batch{
        randomFrames(5, spec.inputDim, 97)};
    InferenceSession ns = native.createSession();
    InferenceSession os = oracle.createSession();
    expectBitIdentical(ns.run(batch), os.run(batch));
}

TEST(RuntimeIntegerDatapath, ServingTablesArePinned)
{
    // The 12-bit sigmoid/tanh LUTs and the PWL slopes/intercepts at
    // the serving design point (128 segments over [-8, 8]). PWL
    // construction interpolates libm, not the float activation
    // kernel, so these bytes — and every fixed-point reply — stay put
    // when the float kernel changes. The digest was taken before the
    // float activations moved off libm.
    CompileOptions opts;
    opts.backend = BackendKind::FixedPoint;
    ASSERT_EQ(opts.fixedPointBits, 12);
    ASSERT_EQ(opts.activationSegments, 128u);
    ASSERT_EQ(opts.activationRange, 8.0);
    const Datapath dp = runtime::detail::makeDatapath(opts);
    ASSERT_TRUE(dp.integerDatapath);
    std::string bytes;
    for (const Vector *v :
         {dp.sigmoidLut.get(), dp.tanhLut.get(),
          &dp.sigmoidTable->slopes(), &dp.sigmoidTable->intercepts(),
          &dp.tanhTable->slopes(), &dp.tanhTable->intercepts()})
        bytes.append(reinterpret_cast<const char *>(v->data()),
                     v->size() * sizeof(Real));
    EXPECT_EQ(bytes.size(), 2u * 4096 * 8 + 4u * 128 * 8);
    EXPECT_EQ(runtime::detail::fnv1a64(bytes.data(), bytes.size()),
              0x18f9d421276e8aadull);
}

TEST(RuntimeIntegerDatapath, StreamingAndEdgeUtterancesMatchOracle)
{
    const nn::ModelSpec spec = randomSpecs().front();
    const nn::StackedRnn model = buildInit(spec, 95);
    const CompiledModel native = compileFixedPoint(model, 12, false);
    const CompiledModel oracle = compileFixedPoint(model, 12, true);

    InferenceSession ns = native.createSession();
    InferenceSession os = oracle.createSession();

    // Zero-length utterance: empty logits from both paths.
    const nn::Sequence empty;
    const BatchResult nz = ns.run({&empty});
    const BatchResult oz = os.run({&empty});
    EXPECT_TRUE(nz.logits.front().empty());
    EXPECT_TRUE(oz.logits.front().empty());

    // Single-frame utterance.
    const nn::Sequence one = randomFrames(1, spec.inputDim, 96);
    expectBitIdentical(ns.run({&one}), os.run({&one}));

    // Frame-by-frame streaming against the oracle's batched run.
    const nn::Sequence xs = randomFrames(9, spec.inputDim, 97);
    const BatchResult whole = os.run({&xs});
    StreamState stream = ns.newStream();
    for (std::size_t t = 0; t < xs.size(); ++t) {
        const Vector &lg = ns.step(stream, xs[t]);
        ASSERT_EQ(lg.size(), whole.logits.front()[t].size());
        for (std::size_t k = 0; k < lg.size(); ++k)
            EXPECT_EQ(lg[k], whole.logits.front()[t][k])
                << "t=" << t << " k=" << k;
    }
}

TEST(RuntimeIntegerDatapath, GridInputsAreServedUnchanged)
{
    // Frames already on the value grid are what the deployed
    // accelerator receives; the session's input pinning must be an
    // identity on them (native and oracle alike).
    const nn::ModelSpec spec = randomSpecs()[1]; // GRU
    const nn::StackedRnn model = buildInit(spec, 98);
    const CompiledModel native = compileFixedPoint(model, 12, false);

    const quant::FixedPointFormat vf = native.datapath().valueFormat;
    const nn::Sequence raw = randomFrames(6, spec.inputDim, 99);
    const nn::Sequence grid = gridFrames(raw, vf);

    InferenceSession session = native.createSession();
    const nn::Sequence a = session.logits(grid);
    const nn::Sequence b = session.logits(gridFrames(grid, vf));
    expectSequencesNear(a, b, 0.0);
}

// --- Batched run() semantics -------------------------------------------

TEST(RuntimeBatch, BatchedRunEqualsPerUtteranceLoops)
{
    const nn::ModelSpec spec = randomSpecs().front();
    nn::StackedRnn model = buildInit(spec, 55);
    CompiledModel compiled = compile(model);
    InferenceSession session = compiled.createSession();

    // Ragged batch: different utterance lengths.
    std::vector<nn::Sequence> batch;
    batch.push_back(randomFrames(9, spec.inputDim, 60));
    batch.push_back(randomFrames(3, spec.inputDim, 61));
    batch.push_back(randomFrames(6, spec.inputDim, 62));
    batch.push_back(randomFrames(1, spec.inputDim, 63));

    const BatchResult batched = session.run(batch);
    ASSERT_EQ(batched.logits.size(), batch.size());

    InferenceSession solo = compiled.createSession();
    for (std::size_t u = 0; u < batch.size(); ++u) {
        ASSERT_EQ(batched.logits[u].size(), batch[u].size());
        const nn::Sequence one = solo.logits(batch[u]);
        expectSequencesNear(batched.logits[u], one, 0.0);
        EXPECT_EQ(batched.predictions[u], solo.predictFrames(batch[u]));
    }
}

// --- Batch-major parity ------------------------------------------------

namespace
{

/** Solo oracle: one utterance, frame by frame, through step(). */
nn::Sequence
soloLogits(InferenceSession &session, const nn::Sequence &utt)
{
    StreamState stream = session.newStream();
    nn::Sequence out(utt.size());
    for (std::size_t t = 0; t < utt.size(); ++t)
        out[t] = session.step(stream, utt[t]);
    return out;
}

/** Ragged lengths (zero-length and single-frame mixed in). */
std::vector<std::size_t>
raggedLengths(std::size_t batch)
{
    static const std::size_t pattern[] = {5, 1, 9, 0, 3, 12, 7, 2};
    std::vector<std::size_t> out(batch);
    for (std::size_t u = 0; u < batch; ++u)
        out[u] = pattern[u % (sizeof(pattern) / sizeof(pattern[0]))];
    return out;
}

} // namespace

/**
 * The tentpole contract: batched run() routes every lane through the
 * GEMM-shaped batch-major datapath, and each lane must reproduce the
 * per-utterance step() path bit for bit — across backends, batch
 * sizes, and ragged lengths (mid-run lane retirement included).
 */
TEST(RuntimeBatchMajor, BatchedBitIdenticalToSoloAcrossBackends)
{
    struct BackendCase
    {
        CompileOptions opts;
        const char *name;
    };
    const auto makeCase = [](BackendKind kind, bool emulate,
                             const char *name) {
        BackendCase bc{{}, name};
        bc.opts.backend = kind;
        bc.opts.fixedPointEmulation = emulate;
        return bc;
    };
    const std::vector<BackendCase> backends = {
        makeCase(BackendKind::Auto, false, "auto"),
        makeCase(BackendKind::Dense, false, "dense"),
        makeCase(BackendKind::CirculantFft, false, "circulant-fft"),
        makeCase(BackendKind::FixedPoint, false, "fixed-point"),
        makeCase(BackendKind::FixedPoint, true,
                 "fixed-point-emulation"),
    };

    const std::vector<nn::ModelSpec> specs = randomSpecs();
    // LSTM (peephole + projection) and GRU, both with circulant
    // weights, cover every stepBatch code path.
    for (const nn::ModelSpec *spec : {&specs[0], &specs[1]}) {
        nn::StackedRnn model = buildInit(*spec, 131);
        for (const BackendCase &bc : backends) {
            CompiledModel compiled = compile(model, bc.opts);
            InferenceSession batched = compiled.createSession();
            InferenceSession solo = compiled.createSession();

            for (std::size_t bs : {1u, 2u, 7u, 16u, 64u}) {
                const auto lens = raggedLengths(bs);
                std::vector<nn::Sequence> batch;
                batch.reserve(bs);
                for (std::size_t u = 0; u < bs; ++u)
                    batch.push_back(randomFrames(
                        lens[u], spec->inputDim, 1000 + 17 * u));

                const BatchResult result = batched.run(batch);
                ASSERT_EQ(result.logits.size(), bs);
                ASSERT_EQ(result.predictions.size(), bs);
                for (std::size_t u = 0; u < bs; ++u) {
                    SCOPED_TRACE(std::string(bc.name) + " batch=" +
                                 std::to_string(bs) + " u=" +
                                 std::to_string(u));
                    ASSERT_EQ(result.logits[u].size(), lens[u]);
                    ASSERT_EQ(result.predictions[u].size(), lens[u]);
                    const nn::Sequence expect =
                        soloLogits(solo, batch[u]);
                    expectSequencesNear(result.logits[u], expect,
                                        0.0);
                    for (std::size_t t = 0; t < lens[u]; ++t)
                        EXPECT_EQ(result.predictions[u][t],
                                  static_cast<int>(argmax(expect[t])))
                            << "t=" << t;
                }
            }
        }
    }
}

/** Streaming step() interleaved with batched run() on one session:
 *  the stream's state must be untouched by the lane pool, and the
 *  batch must be unaffected by the live stream. */
TEST(RuntimeBatchMajor, StreamingInterleavedWithRun)
{
    const nn::ModelSpec spec = randomSpecs().front();
    nn::StackedRnn model = buildInit(spec, 141);
    CompiledModel compiled = compile(model);
    InferenceSession session = compiled.createSession();
    InferenceSession oracle = compiled.createSession();

    const nn::Sequence utt = randomFrames(10, spec.inputDim, 142);
    const nn::Sequence expect = soloLogits(oracle, utt);

    std::vector<nn::Sequence> batch;
    for (std::size_t u = 0; u < 7; ++u)
        batch.push_back(
            randomFrames(1 + 2 * u, spec.inputDim, 150 + u));

    StreamState stream = session.newStream();
    for (std::size_t t = 0; t < utt.size(); ++t) {
        const Vector &lg = session.step(stream, utt[t]);
        for (std::size_t k = 0; k < lg.size(); ++k)
            EXPECT_EQ(lg[k], expect[t][k]) << "t=" << t;
        // A batched run between every stream step: neither side may
        // perturb the other.
        const BatchResult result = session.run(batch);
        for (std::size_t u = 0; u < batch.size(); ++u)
            expectSequencesNear(result.logits[u],
                                soloLogits(oracle, batch[u]), 0.0);
    }
    EXPECT_EQ(stream.framesSeen(), utt.size());
}

/** An oversized batch releases the lane pool afterwards (high-water
 *  cap); later runs regrow it and stay bit-exact. */
TEST(RuntimeBatchMajor, OversizedBatchReleasesPoolAndStaysExact)
{
    const nn::ModelSpec spec = randomSpecs()[1]; // GRU
    nn::StackedRnn model = buildInit(spec, 161);
    CompiledModel compiled = compile(model);
    InferenceSession session = compiled.createSession();
    InferenceSession solo = compiled.createSession();

    const std::size_t oversized =
        InferenceSession::kMaxPooledLanes + 9;
    std::vector<nn::Sequence> big;
    for (std::size_t u = 0; u < oversized; ++u)
        big.push_back(randomFrames(1 + u % 5, spec.inputDim,
                                   170 + u));
    const BatchResult bigResult = session.run(big);
    for (std::size_t u = 0; u < big.size(); ++u)
        expectSequencesNear(bigResult.logits[u],
                            soloLogits(solo, big[u]), 0.0);

    // The pool was released; a small follow-up run regrows it.
    std::vector<nn::Sequence> small;
    for (std::size_t u = 0; u < 3; ++u)
        small.push_back(randomFrames(4, spec.inputDim, 180 + u));
    const BatchResult smallResult = session.run(small);
    for (std::size_t u = 0; u < small.size(); ++u)
        expectSequencesNear(smallResult.logits[u],
                            soloLogits(solo, small[u]), 0.0);
}

// --- Streaming step() semantics ----------------------------------------

TEST(RuntimeStreaming, StepMatchesRunFrameForFrame)
{
    for (const auto &spec : randomSpecs()) {
        nn::StackedRnn model = buildInit(spec, 77);
        CompiledModel compiled = compile(model);
        InferenceSession session = compiled.createSession();

        const nn::Sequence xs = randomFrames(8, spec.inputDim, 78);
        const nn::Sequence whole = session.logits(xs);

        StreamState stream = session.newStream();
        for (std::size_t t = 0; t < xs.size(); ++t) {
            const Vector &lg = session.step(stream, xs[t]);
            ASSERT_EQ(lg.size(), whole[t].size());
            for (std::size_t k = 0; k < lg.size(); ++k)
                EXPECT_EQ(lg[k], whole[t][k])
                    << "t=" << t << " k=" << k;
        }
        EXPECT_EQ(stream.framesSeen(), xs.size());

        // reset() rewinds to start-of-utterance exactly.
        stream.reset();
        const Vector &again = session.step(stream, xs[0]);
        for (std::size_t k = 0; k < again.size(); ++k)
            EXPECT_EQ(again[k], whole[0][k]);
    }
}

TEST(RuntimeStreaming, IndependentStreamsDoNotInterfere)
{
    const nn::ModelSpec spec = randomSpecs()[1]; // GRU
    nn::StackedRnn model = buildInit(spec, 91);
    CompiledModel compiled = compile(model);
    InferenceSession session = compiled.createSession();

    const nn::Sequence a = randomFrames(5, spec.inputDim, 92);
    const nn::Sequence b = randomFrames(5, spec.inputDim, 93);
    const nn::Sequence ea = session.logits(a);
    const nn::Sequence eb = session.logits(b);

    // Interleave two live streams through one session.
    StreamState sa = session.newStream();
    StreamState sb = session.newStream();
    for (std::size_t t = 0; t < 5; ++t) {
        const Vector la = session.step(sa, a[t]);
        const Vector lb = session.step(sb, b[t]);
        for (std::size_t k = 0; k < la.size(); ++k) {
            EXPECT_EQ(la[k], ea[t][k]) << "t=" << t;
            EXPECT_EQ(lb[k], eb[t][k]) << "t=" << t;
        }
    }
}

TEST(RuntimeStreaming, StreamStateReuseAcrossUtterances)
{
    const nn::ModelSpec spec = randomSpecs().front();
    nn::StackedRnn model = buildInit(spec, 95);
    CompiledModel compiled = compile(model);
    InferenceSession session = compiled.createSession();

    const nn::Sequence a = randomFrames(6, spec.inputDim, 96);
    const nn::Sequence b = randomFrames(9, spec.inputDim, 97);
    const nn::Sequence ea = session.logits(a);
    const nn::Sequence eb = session.logits(b);

    // One state object recycled across utterances: a full pass over
    // a, reset, a full pass over b — each bit-identical to a fresh
    // stream's results.
    StreamState stream = session.newStream();
    for (int round = 0; round < 3; ++round) {
        const nn::Sequence &utt = (round % 2 == 0) ? a : b;
        const nn::Sequence &expect = (round % 2 == 0) ? ea : eb;
        for (std::size_t t = 0; t < utt.size(); ++t) {
            const Vector &lg = session.step(stream, utt[t]);
            for (std::size_t k = 0; k < lg.size(); ++k)
                EXPECT_EQ(lg[k], expect[t][k])
                    << "round=" << round << " t=" << t;
        }
        EXPECT_EQ(stream.framesSeen(), utt.size());
        stream.reset();
        EXPECT_EQ(stream.framesSeen(), 0u);
    }
}

TEST(RuntimeConcurrency, ManySessionsFromOneModelAcrossThreads)
{
    const nn::ModelSpec spec = randomSpecs().front();
    nn::StackedRnn model = buildInit(spec, 101);
    CompiledModel compiled = compile(model);

    // Per-thread utterances and single-threaded reference results.
    constexpr std::size_t kThreads = 4;
    std::vector<nn::Sequence> utts;
    std::vector<nn::Sequence> expect;
    {
        InferenceSession reference = compiled.createSession();
        for (std::size_t i = 0; i < kThreads; ++i) {
            utts.push_back(
                randomFrames(5 + i, spec.inputDim, 102 + i));
            expect.push_back(reference.logits(utts.back()));
        }
    }

    // The model is immutable and shared; each thread owns a private
    // session, so concurrent inference must be race-free (this is
    // the contract the serve:: worker pool is built on; CI runs it
    // under ThreadSanitizer).
    std::atomic<std::size_t> mismatches{0};
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < kThreads; ++i) {
        threads.emplace_back([&, i] {
            InferenceSession session = compiled.createSession();
            for (int rep = 0; rep < 3; ++rep)
                if (session.logits(utts[i]) != expect[i])
                    ++mismatches;
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(mismatches.load(), 0u);
}

// --- Registry / artifact contracts -------------------------------------

TEST(RuntimeRegistry, BuiltinBackendsRegistered)
{
    auto &reg = KernelRegistry::instance();
    EXPECT_TRUE(reg.has("dense"));
    EXPECT_TRUE(reg.has("circulant-fft"));
    EXPECT_TRUE(reg.has("fixed-point"));
    EXPECT_GE(reg.names().size(), 3u);
}

TEST(RuntimeRegistry, KernelSelectionFollowsWeightStructure)
{
    const nn::ModelSpec spec = randomSpecs().back(); // circ + dense
    nn::StackedRnn model = buildInit(spec, 11);
    CompiledModel compiled = compile(model);

    // Layer 0 is block-circulant, layer 1 dense.
    for (const LinearKernel *k : compiled.layer(0).kernels())
        EXPECT_EQ(k->backendName(), "circulant-fft");
    for (const LinearKernel *k : compiled.layer(1).kernels())
        EXPECT_EQ(k->backendName(), "dense");
    EXPECT_EQ(compiled.classifier().backendName(), "dense");
}

TEST(RuntimeArtifact, CompiledModelIsFrozen)
{
    const nn::ModelSpec spec = randomSpecs().front();
    nn::StackedRnn model = buildInit(spec, 13);
    CompiledModel compiled = compile(model);
    InferenceSession session = compiled.createSession();

    const nn::Sequence xs = randomFrames(4, spec.inputDim, 14);
    const nn::Sequence before = session.logits(xs);

    // Mutating the training model after compile() must not leak into
    // the frozen artifact.
    Rng other(999);
    model.initXavier(other);
    const nn::Sequence after = session.logits(xs);
    expectSequencesNear(before, after, 0.0);

    EXPECT_EQ(compiled.storedParams() > 0, true);
    EXPECT_NE(compiled.describe().find("compiled"), std::string::npos);
}

// --- Continuous batching -----------------------------------------------

namespace
{

void
expectSequencesEqual(const nn::Sequence &got, const nn::Sequence &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t t = 0; t < got.size(); ++t) {
        ASSERT_EQ(got[t].size(), want[t].size()) << "t=" << t;
        for (std::size_t k = 0; k < got[t].size(); ++k)
            EXPECT_EQ(got[t][k], want[t][k])
                << "t=" << t << " k=" << k;
    }
}

/**
 * Drive a ContinuousBatch through a staggered admission schedule and
 * demand every lane's logits are bit-identical to running that
 * utterance alone. Lengths and admission ticks are chosen so lanes
 * retire from the middle of the pool (exercising the swap-with-last
 * path), from the tail, and while admissions land mid-flight.
 */
void
checkContinuousParity(const nn::ModelSpec &spec, BackendKind backend,
                      std::uint64_t seed)
{
    nn::StackedRnn model = buildInit(spec, seed);
    CompileOptions opts;
    opts.backend = backend;
    const CompiledModel compiled = compile(model, opts);

    const std::size_t lengths[] = {6, 3, 9, 1, 5, 4};
    const std::size_t admit_at[] = {0, 0, 2, 2, 4, 7};
    constexpr std::size_t n = std::size(lengths);
    std::vector<nn::Sequence> utts(n);
    for (std::size_t u = 0; u < n; ++u)
        utts[u] =
            randomFrames(lengths[u], spec.inputDim, seed + 100 + u);

    ContinuousBatch engine(compiled);
    std::vector<nn::Sequence> got(n);
    std::vector<bool> done(n, false);
    std::size_t admitted = 0;
    for (std::size_t tick = 0; tick < 100; ++tick) {
        for (std::size_t u = 0; u < n; ++u)
            if (admit_at[u] == tick) {
                ++admitted;
                engine.admit(
                    &utts[u],
                    [&got, u](std::size_t frame, const Vector &lg,
                              int /*pred*/) {
                        ASSERT_EQ(frame, got[u].size());
                        got[u].push_back(lg);
                    },
                    [&done, u] { done[u] = true; });
            }
        engine.stepAll();
        if (admitted == n && engine.idle())
            break;
    }
    EXPECT_TRUE(engine.idle());

    InferenceSession session = compiled.createSession();
    for (std::size_t u = 0; u < n; ++u) {
        EXPECT_TRUE(done[u]) << "utterance " << u;
        expectSequencesEqual(got[u], session.logits(utts[u]));
    }
}

} // namespace

TEST(ContinuousBatching, BitIdenticalToSoloRunsAcrossBackends)
{
    std::uint64_t seed = 900;
    for (const auto &spec : randomSpecs()) {
        for (BackendKind backend :
             {BackendKind::Auto, BackendKind::Dense,
              BackendKind::CirculantFft, BackendKind::FixedPoint}) {
            checkContinuousParity(spec, backend, seed);
            seed += 10;
        }
    }
}

TEST(ContinuousBatching, RetireThenAdmitSameStepRepacksLanes)
{
    // Regression for the lane-repack path: a lane retires at tick t
    // (its column vacated, the last live column swapped in via
    // Matrix::swapCols + shrinkCols) and a new utterance is admitted
    // before the next stepAll(), so the new lane lands in the column
    // the swap just freed. The swapped survivor and the newcomer must
    // both stay bit-identical to solo runs — a repack bug shows up as
    // the newcomer inheriting the retired lane's recurrent state or
    // the survivor's state tearing.
    for (BackendKind backend :
         {BackendKind::Dense, BackendKind::FixedPoint}) {
        nn::StackedRnn model = buildInit(randomSpecs()[0], 1200);
        CompileOptions opts;
        opts.backend = backend;
        const CompiledModel compiled = compile(model, opts);
        const std::size_t dim = randomSpecs()[0].inputDim;

        // Lane 0 ends after 2 frames; lanes 1..2 run long. At the
        // tick lane 0 retires, admit two fresh lanes back-to-back —
        // one fills the swap-vacated column, one grows the pool.
        const std::size_t lengths[] = {2, 8, 7, 6, 5};
        constexpr std::size_t n = std::size(lengths);
        std::vector<nn::Sequence> utts(n);
        for (std::size_t u = 0; u < n; ++u)
            utts[u] = randomFrames(lengths[u], dim, 1300 + u);

        ContinuousBatch engine(compiled);
        std::vector<nn::Sequence> got(n);
        auto admit = [&](std::size_t u) {
            engine.admit(&utts[u],
                         [&got, u](std::size_t, const Vector &lg,
                                   int) { got[u].push_back(lg); },
                         nullptr);
        };
        admit(0);
        admit(1);
        admit(2);
        engine.stepAll(); // frame 0
        engine.stepAll(); // frame 1: lane 0 retires, lane 2 swaps in
        ASSERT_EQ(engine.activeLanes(), 2u);
        admit(3); // occupies the column the retirement vacated
        admit(4); // grows the pool past its previous width
        while (!engine.idle())
            engine.stepAll();

        InferenceSession session = compiled.createSession();
        for (std::size_t u = 0; u < n; ++u)
            expectSequencesEqual(got[u], session.logits(utts[u]));
    }
}

TEST(ContinuousBatching, EmptyUtteranceCompletesWithoutALane)
{
    nn::StackedRnn model = buildInit(randomSpecs()[1], 5);
    const CompiledModel compiled = compile(model);
    ContinuousBatch engine(compiled);
    const nn::Sequence empty;
    bool done = false;
    engine.admit(
        &empty,
        [](std::size_t, const Vector &, int) {
            FAIL() << "no frames to deliver";
        },
        [&done] { done = true; });
    EXPECT_TRUE(done);
    EXPECT_TRUE(engine.idle());
    engine.stepAll(); // idle step is a no-op
    EXPECT_TRUE(engine.idle());
}
