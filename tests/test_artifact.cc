/**
 * @file
 * Artifact round-trip and error-path tests: a saved+loaded
 * CompiledModel must serve bit-identically to the original on every
 * backend (Dense, CirculantFFT with re-derived spectra, FixedPoint
 * with re-derived PWL tables), and a damaged file must die with the
 * specific defect named.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <gtest/gtest.h>
#include <iterator>

#include "base/random.hh"
#include "nn/model_builder.hh"
#include "runtime/artifact.hh"
#include "runtime/session.hh"
#include "serve/inference_server.hh"

using namespace ernn;

namespace
{

nn::ModelSpec
lstmSpec()
{
    nn::ModelSpec spec;
    spec.type = nn::ModelType::Lstm;
    spec.inputDim = 8;
    spec.numClasses = 6;
    spec.layerSizes = {16, 16};
    spec.blockSizes = {4, 4};
    spec.peephole = true;
    spec.projectionSize = 8;
    return spec;
}

nn::ModelSpec
gruSpec()
{
    nn::ModelSpec spec;
    spec.type = nn::ModelType::Gru;
    spec.inputDim = 8;
    spec.numClasses = 5;
    spec.layerSizes = {16};
    spec.blockSizes = {4};
    return spec;
}

nn::StackedRnn
trainedModel(const nn::ModelSpec &spec, std::uint64_t seed)
{
    nn::StackedRnn model = nn::buildModel(spec);
    Rng rng(seed);
    model.initXavier(rng);
    return model;
}

std::vector<nn::Sequence>
randomBatch(std::size_t utterances, std::size_t dim,
            std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<nn::Sequence> batch(utterances);
    for (std::size_t u = 0; u < batch.size(); ++u) {
        batch[u].assign(5 + 2 * u, Vector(dim));
        for (auto &f : batch[u])
            rng.fillNormal(f, 1.0);
    }
    return batch;
}

void
expectIdenticalResults(const runtime::BatchResult &a,
                       const runtime::BatchResult &b)
{
    ASSERT_EQ(a.logits.size(), b.logits.size());
    for (std::size_t u = 0; u < a.logits.size(); ++u) {
        ASSERT_EQ(a.logits[u].size(), b.logits[u].size());
        for (std::size_t t = 0; t < a.logits[u].size(); ++t)
            for (std::size_t k = 0; k < a.logits[u][t].size(); ++k)
                // Exact double equality: the artifact stores raw f64
                // and re-derives only deterministic state.
                EXPECT_EQ(a.logits[u][t][k], b.logits[u][t][k])
                    << "utterance " << u << " frame " << t
                    << " logit " << k;
    }
    EXPECT_EQ(a.predictions, b.predictions);
}

/** Compile, round-trip through bytes, and demand identical serving. */
void
checkRoundTrip(const nn::ModelSpec &spec,
               runtime::BackendKind backend)
{
    const nn::StackedRnn model = trainedModel(spec, 11);
    runtime::CompileOptions opts;
    opts.backend = backend;
    const runtime::CompiledModel original =
        runtime::compile(model, opts);

    const std::string bytes = runtime::serializeArtifact(original);
    const runtime::CompiledModel loaded =
        runtime::loadArtifactBytes(bytes);

    EXPECT_EQ(original.describe(), loaded.describe());
    EXPECT_EQ(original.storedParams(), loaded.storedParams());
    EXPECT_EQ(original.numLayers(), loaded.numLayers());
    for (std::size_t i = 0; i < original.numLayers(); ++i) {
        const auto orig_kernels = original.layer(i).kernels();
        const auto load_kernels = loaded.layer(i).kernels();
        ASSERT_EQ(orig_kernels.size(), load_kernels.size());
        for (std::size_t k = 0; k < orig_kernels.size(); ++k)
            EXPECT_EQ(orig_kernels[k]->backendName(),
                      load_kernels[k]->backendName());
    }

    const auto batch = randomBatch(4, spec.inputDim, 23);
    runtime::InferenceSession s1 = original.createSession();
    runtime::InferenceSession s2 = loaded.createSession();
    expectIdenticalResults(s1.run(batch), s2.run(batch));

    // A second round trip of the loaded model must byte-match: the
    // format has one canonical encoding per model.
    EXPECT_EQ(bytes, runtime::serializeArtifact(loaded));
}

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + "ernn_artifact_" + name;
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(os.good());
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size()));
}

} // namespace

TEST(Artifact, RoundTripDenseLstm)
{
    checkRoundTrip(lstmSpec(), runtime::BackendKind::Dense);
}

TEST(Artifact, RoundTripCirculantFftLstm)
{
    checkRoundTrip(lstmSpec(), runtime::BackendKind::CirculantFft);
}

TEST(Artifact, RoundTripFixedPointLstm)
{
    checkRoundTrip(lstmSpec(), runtime::BackendKind::FixedPoint);
}

TEST(Artifact, RoundTripAutoLstm)
{
    checkRoundTrip(lstmSpec(), runtime::BackendKind::Auto);
}

TEST(Artifact, RoundTripDenseGru)
{
    checkRoundTrip(gruSpec(), runtime::BackendKind::Dense);
}

TEST(Artifact, RoundTripCirculantFftGru)
{
    checkRoundTrip(gruSpec(), runtime::BackendKind::CirculantFft);
}

TEST(Artifact, RoundTripFixedPointGru)
{
    checkRoundTrip(gruSpec(), runtime::BackendKind::FixedPoint);
}

TEST(Artifact, RoundTripDenseOnlyModelWithoutBlocks)
{
    nn::ModelSpec spec = lstmSpec();
    spec.blockSizes.clear();
    spec.peephole = false;
    spec.projectionSize = 0;
    checkRoundTrip(spec, runtime::BackendKind::Auto);
}

TEST(Artifact, SaveLoadThroughFile)
{
    const nn::StackedRnn model = trainedModel(lstmSpec(), 3);
    const runtime::CompiledModel original = runtime::compile(model);
    const std::string path = tempPath("file.ernn");
    runtime::saveArtifact(original, path);

    const runtime::CompiledModel loaded =
        runtime::loadArtifact(path);
    const auto batch = randomBatch(3, 8, 5);
    runtime::InferenceSession s1 = original.createSession();
    runtime::InferenceSession s2 = loaded.createSession();
    expectIdenticalResults(s1.run(batch), s2.run(batch));
    std::remove(path.c_str());
}

TEST(Artifact, ServerLoadsArtifactWithoutTrainingStack)
{
    const nn::StackedRnn model = trainedModel(lstmSpec(), 17);
    runtime::CompileOptions opts;
    opts.backend = runtime::BackendKind::FixedPoint;
    const runtime::CompiledModel original =
        runtime::compile(model, opts);
    const std::string path = tempPath("served.ernn");
    runtime::saveArtifact(original, path);

    const auto batch = randomBatch(4, 8, 31);
    runtime::InferenceSession session = original.createSession();
    const runtime::BatchResult want = session.run(batch);

    // The artifact-loading constructor owns its model: no external
    // CompiledModel scope exists in this block.
    serve::InferenceServer server(path, serve::ServerOptions{});
    for (std::size_t u = 0; u < batch.size(); ++u) {
        const serve::InferenceReply reply = server.infer(batch[u]);
        EXPECT_EQ(reply.predictions, want.predictions[u]);
        ASSERT_EQ(reply.logits.size(), want.logits[u].size());
        for (std::size_t t = 0; t < reply.logits.size(); ++t)
            for (std::size_t k = 0; k < reply.logits[t].size(); ++k)
                EXPECT_EQ(reply.logits[t][k], want.logits[u][t][k]);
    }
    server.shutdown();
    std::remove(path.c_str());
}

TEST(Artifact, PackedFixedPointBlobsAreSmaller)
{
    // Dense weights, so every blob packs 4x; the tiny circulant spec
    // would measure alignment padding and the doubled generators.
    nn::ModelSpec spec = lstmSpec();
    spec.blockSizes.clear();
    const nn::StackedRnn model = trainedModel(spec, 29);
    runtime::CompileOptions opts;
    opts.backend = runtime::BackendKind::FixedPoint;
    const std::string packed =
        runtime::serializeArtifact(runtime::compile(model, opts));
    opts.fixedPointBits = 20;
    const std::string wide =
        runtime::serializeArtifact(runtime::compile(model, opts));
    // 12-bit weights are int16 code blobs, 20-bit ones f64 blobs: the
    // weight payload shrinks 4x; metadata, alignment padding and f64
    // biases dilute that.
    EXPECT_LT(packed.size(), wide.size() * 6 / 10)
        << "12-bit " << packed.size() << " bytes vs 20-bit "
        << wide.size();
}

TEST(Artifact, WideFixedPointFallsBackToF64Encoding)
{
    // 20-bit weights cannot pack into int16: they keep the f64
    // encoding and still round-trip bit-exactly.
    const nn::StackedRnn model = trainedModel(gruSpec(), 31);
    runtime::CompileOptions opts;
    opts.backend = runtime::BackendKind::FixedPoint;
    opts.fixedPointBits = 20;
    const runtime::CompiledModel original =
        runtime::compile(model, opts);

    const std::string bytes = runtime::serializeArtifact(original);
    const runtime::CompiledModel loaded =
        runtime::loadArtifactBytes(bytes);
    const auto batch = randomBatch(3, 8, 37);
    runtime::InferenceSession s1 = original.createSession();
    runtime::InferenceSession s2 = loaded.createSession();
    expectIdenticalResults(s1.run(batch), s2.run(batch));
    EXPECT_EQ(bytes, runtime::serializeArtifact(loaded));
}

TEST(Artifact, EmulationFlagRoundTrips)
{
    const nn::StackedRnn model = trainedModel(lstmSpec(), 41);
    runtime::CompileOptions opts;
    opts.backend = runtime::BackendKind::FixedPoint;
    opts.fixedPointEmulation = true;
    const runtime::CompiledModel original =
        runtime::compile(model, opts);
    ASSERT_FALSE(original.datapath().integerDatapath);

    const runtime::CompiledModel loaded = runtime::loadArtifactBytes(
        runtime::serializeArtifact(original));
    EXPECT_TRUE(loaded.options().fixedPointEmulation);
    EXPECT_FALSE(loaded.datapath().integerDatapath);

    const auto batch = randomBatch(3, 8, 43);
    runtime::InferenceSession s1 = original.createSession();
    runtime::InferenceSession s2 = loaded.createSession();
    expectIdenticalResults(s1.run(batch), s2.run(batch));
}

TEST(Artifact, InfoSummaryNamesBackendAndQuantization)
{
    const nn::StackedRnn model = trainedModel(lstmSpec(), 9);
    runtime::CompileOptions opts;
    opts.backend = runtime::BackendKind::FixedPoint;
    const runtime::CompiledModel compiled =
        runtime::compile(model, opts);
    const std::string path = tempPath("info.ernn");
    runtime::saveArtifact(compiled, path);

    const std::string info = runtime::describeArtifact(path);
    EXPECT_NE(info.find("fixed-point"), std::string::npos);
    EXPECT_NE(info.find("metadata and blob checksums ok"),
              std::string::npos);
    EXPECT_NE(info.find("PWL"), std::string::npos);
    EXPECT_NE(info.find("lstm"), std::string::npos);
    EXPECT_NE(info.find("format v3"), std::string::npos);
    EXPECT_NE(info.find("native int16"), std::string::npos);
    // Summaries list the blob section layout.
    EXPECT_NE(info.find("blob section"), std::string::npos);
    EXPECT_NE(info.find("mapped in place"), std::string::npos);
    std::remove(path.c_str());
}

// --- error paths -------------------------------------------------------

class ArtifactErrors : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        const nn::StackedRnn model = trainedModel(gruSpec(), 2);
        bytes_ = runtime::serializeArtifact(runtime::compile(model));
    }

    std::string bytes_;
};

TEST_F(ArtifactErrors, RejectsGarbageMagic)
{
    std::string bad = bytes_;
    bad[0] = 'X';
    EXPECT_DEATH(runtime::loadArtifactBytes(bad), "magic");
}

TEST_F(ArtifactErrors, RejectsVersionSkew)
{
    // The version field (u32 LSB at offset 8) is checked before size
    // and checksum, so retired (1, 2), never-issued (0) and future
    // (4) versions die on it and point at the command that
    // re-creates the file.
    for (const int version : {0, 1, 2, 4}) {
        std::string bad = bytes_;
        bad[8] = static_cast<char>(version);
        EXPECT_DEATH(runtime::loadArtifactBytes(bad),
                     "format version " + std::to_string(version) +
                         " is not supported by this build \\(reads "
                         "3\\).*ernn compile --spec");
    }
}

TEST_F(ArtifactErrors, RejectsTruncation)
{
    const std::string bad = bytes_.substr(0, bytes_.size() - 24);
    EXPECT_DEATH(runtime::loadArtifactBytes(bad), "truncated");
}

TEST_F(ArtifactErrors, RejectsTinyFile)
{
    EXPECT_DEATH(runtime::loadArtifactBytes("ERNN"), "truncated");
}

TEST_F(ArtifactErrors, RejectsCorruptedPayload)
{
    std::string bad = bytes_;
    bad[bytes_.size() / 2] ^= 0x20; // flip a bit mid-payload
    EXPECT_DEATH(runtime::loadArtifactBytes(bad), "checksum");
}

TEST_F(ArtifactErrors, RejectsTrailingGarbage)
{
    EXPECT_DEATH(runtime::loadArtifactBytes(bytes_ + "xx"),
                 "trailing");
}

TEST_F(ArtifactErrors, RejectsMissingFile)
{
    EXPECT_DEATH(
        runtime::loadArtifact(tempPath("does_not_exist.ernn")),
        "cannot open");
}

TEST_F(ArtifactErrors, FileRoundTripSurvivesErrorChecks)
{
    // Sanity: the bytes the error tests mutate do load when intact.
    const std::string path = tempPath("intact.ernn");
    writeBytes(path, bytes_);
    const runtime::CompiledModel loaded =
        runtime::loadArtifact(path);
    EXPECT_EQ(loaded.numLayers(), 1u);
    std::remove(path.c_str());
}

// --- zero-copy (mmap) loads --------------------------------------------

namespace
{

std::uint64_t
fnv64(const char *data, std::size_t n)
{
    std::uint64_t h = 14695981039346656037ull;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= static_cast<unsigned char>(data[i]);
        h *= 1099511628211ull;
    }
    return h;
}

std::uint64_t
readU64(const std::string &bytes, std::size_t off)
{
    std::uint64_t v;
    std::memcpy(&v, bytes.data() + off, sizeof v);
    return v;
}

void
writeU64(std::string &bytes, std::size_t off, std::uint64_t v)
{
    std::memcpy(&bytes[off], &v, sizeof v);
}

/** Offset of the first 8-byte-aligned u64 equal to @p needle in
 *  [@p from, @p to), or npos. Finds blob descriptor fields by their
 *  known values without hard-coding the metadata layout. */
std::size_t
findU64(const std::string &bytes, std::size_t from, std::size_t to,
        std::uint64_t needle)
{
    for (std::size_t off = from; off + sizeof needle <= to; ++off)
        if (readU64(bytes, off) == needle)
            return off;
    return std::string::npos;
}

/** Save, map it back, and demand bit-identical serving. */
void
checkMappedRoundTrip(const nn::ModelSpec &spec,
                     runtime::BackendKind backend)
{
    const nn::StackedRnn model = trainedModel(spec, 17);
    runtime::CompileOptions opts;
    opts.backend = backend;
    const runtime::CompiledModel original =
        runtime::compile(model, opts);

    const std::string path = tempPath("mapped.ernn");
    runtime::saveArtifact(original, path);
    const std::shared_ptr<const runtime::CompiledModel> mapped =
        runtime::loadArtifactMapped(path);
    // The file can be unlinked while mapped: the model owns the
    // mapping, not the directory entry.
    std::remove(path.c_str());

    EXPECT_TRUE(mapped->mapped());
    EXPECT_EQ(original.describe(), mapped->describe());
    EXPECT_EQ(original.storedParams(), mapped->storedParams());

    const auto batch = randomBatch(4, spec.inputDim, 29);
    runtime::InferenceSession s1 = original.createSession();
    runtime::InferenceSession s2 = mapped->createSession();
    expectIdenticalResults(s1.run(batch), s2.run(batch));

    // The mapped model re-serializes byte-identically, which also
    // exercises every lazy f64 materialization path of the borrowed
    // kernels (the writer walks denseWeight()/circulantWeight()).
    EXPECT_EQ(runtime::serializeArtifact(original),
              runtime::serializeArtifact(*mapped));
}

} // namespace

TEST(ArtifactV3, MappedRoundTripDenseLstm)
{
    checkMappedRoundTrip(lstmSpec(), runtime::BackendKind::Dense);
}

TEST(ArtifactV3, MappedRoundTripCirculantFftLstm)
{
    checkMappedRoundTrip(lstmSpec(),
                         runtime::BackendKind::CirculantFft);
}

TEST(ArtifactV3, MappedRoundTripFixedPointLstm)
{
    checkMappedRoundTrip(lstmSpec(),
                         runtime::BackendKind::FixedPoint);
}

TEST(ArtifactV3, MappedRoundTripDenseGru)
{
    checkMappedRoundTrip(gruSpec(), runtime::BackendKind::Dense);
}

TEST(ArtifactV3, MappedRoundTripFixedPointGru)
{
    checkMappedRoundTrip(gruSpec(),
                         runtime::BackendKind::FixedPoint);
}

TEST(ArtifactV3, TrustedMapSkipsBlobVerificationBitExactly)
{
    const nn::StackedRnn model = trainedModel(lstmSpec(), 31);
    runtime::CompileOptions opts;
    opts.backend = runtime::BackendKind::FixedPoint;
    const runtime::CompiledModel original =
        runtime::compile(model, opts);

    const std::string path = tempPath("trusted.ernn");
    runtime::saveArtifact(original, path);
    runtime::MapOptions mo;
    mo.verifyBlobs = false;
    const auto mapped = runtime::loadArtifactMapped(path, mo);
    std::remove(path.c_str());

    EXPECT_TRUE(mapped->mapped());
    const auto batch = randomBatch(3, 8, 37);
    runtime::InferenceSession s1 = original.createSession();
    runtime::InferenceSession s2 = mapped->createSession();
    expectIdenticalResults(s1.run(batch), s2.run(batch));
}

class ArtifactV3Errors : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        const nn::StackedRnn model = trainedModel(lstmSpec(), 2);
        runtime::CompileOptions opts;
        opts.backend = runtime::BackendKind::FixedPoint;
        bytes_ =
            runtime::serializeArtifact(runtime::compile(model, opts));
        metaEnd_ = readU64(bytes_, 20);
        firstBlob_ = (metaEnd_ + 8 + 63) & ~std::uint64_t{63};
    }

    /** Re-seal the metadata stream after a deliberate mutation so
     *  the error under test is the one that fires, not the metadata
     *  checksum. */
    void resealMetadata(std::string &bytes) const
    {
        writeU64(bytes, static_cast<std::size_t>(metaEnd_),
                 fnv64(bytes.data(),
                       static_cast<std::size_t>(metaEnd_)));
    }

    /** Death check through the real mmap path. */
    void expectMapDeath(const std::string &bytes,
                        const char *pattern) const
    {
        const std::string path = tempPath("v3bad.ernn");
        writeBytes(path, bytes);
        EXPECT_DEATH(runtime::loadArtifactMapped(path), pattern);
        std::remove(path.c_str());
    }

    std::string bytes_;
    std::uint64_t metaEnd_ = 0;
    std::uint64_t firstBlob_ = 0;
};

TEST_F(ArtifactV3Errors, RejectsTruncatedBlobSection)
{
    expectMapDeath(bytes_.substr(0, bytes_.size() - 64),
                   "truncated");
}

TEST_F(ArtifactV3Errors, RejectsMetaEndOutOfRange)
{
    std::string bad = bytes_;
    writeU64(bad, 20, bytes_.size() + 4096);
    expectMapDeath(bad, "metadata end");
}

TEST_F(ArtifactV3Errors, RejectsCorruptedMetadata)
{
    std::string bad = bytes_;
    bad[40] ^= 0x01; // inside the metadata stream
    expectMapDeath(bad, "metadata checksum mismatch");
}

TEST_F(ArtifactV3Errors, RejectsCorruptedBlob)
{
    std::string bad = bytes_;
    bad[bad.size() - 1] ^= 0x01; // last byte of the last blob
    expectMapDeath(bad, "checksum mismatch");
}

TEST_F(ArtifactV3Errors, RejectsMisalignedBlobDescriptor)
{
    std::string bad = bytes_;
    const std::size_t desc =
        findU64(bad, 28, static_cast<std::size_t>(metaEnd_),
                firstBlob_);
    ASSERT_NE(desc, std::string::npos);
    writeU64(bad, desc, firstBlob_ + 8); // 8-byte aligned only
    resealMetadata(bad);
    expectMapDeath(bad, "misaligned");
}

TEST_F(ArtifactV3Errors, RejectsBlobPastEndOfFile)
{
    std::string bad = bytes_;
    const std::size_t desc =
        findU64(bad, 28, static_cast<std::size_t>(metaEnd_),
                firstBlob_);
    ASSERT_NE(desc, std::string::npos);
    const std::uint64_t past =
        (bytes_.size() + 63) & ~std::uint64_t{63};
    writeU64(bad, desc, past);
    resealMetadata(bad);
    expectMapDeath(bad, "outside the blob section");
}

TEST_F(ArtifactV3Errors, TrustedLoadStillChecksStructure)
{
    // verifyBlobs=false skips payload checksums, never the
    // structural descriptor checks.
    std::string bad = bytes_;
    const std::size_t desc =
        findU64(bad, 28, static_cast<std::size_t>(metaEnd_),
                firstBlob_);
    ASSERT_NE(desc, std::string::npos);
    writeU64(bad, desc, firstBlob_ + 8);
    resealMetadata(bad);
    const std::string path = tempPath("v3trustbad.ernn");
    writeBytes(path, bad);
    runtime::MapOptions mo;
    mo.verifyBlobs = false;
    EXPECT_DEATH(runtime::loadArtifactMapped(path, mo),
                 "misaligned");
    std::remove(path.c_str());
}

TEST_F(ArtifactV3Errors, IntactFileSurvivesEveryErrorCheck)
{
    const std::string path = tempPath("v3intact.ernn");
    writeBytes(path, bytes_);
    const auto loaded = runtime::loadArtifactMapped(path);
    EXPECT_TRUE(loaded->mapped());
    EXPECT_EQ(loaded->numLayers(), 2u);
    std::remove(path.c_str());
}

// --- checked-in fixtures -----------------------------------------------

namespace
{

std::string
readFixture(const std::string &name)
{
    const std::string path =
        std::string(ERNN_TEST_FIXTURE_DIR) + "/" + name;
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << "missing fixture " << path;
    return std::string(std::istreambuf_iterator<char>(is), {});
}

/**
 * A checked-in artifact (tests/fixtures/README.md says how it was
 * made) must load, re-serialize to exactly its own bytes, and serve:
 * this pins the bytes a build writes across format-code changes.
 */
void
checkFixture(const std::string &name, const char *backend)
{
    const std::string bytes = readFixture(name);
    ASSERT_FALSE(bytes.empty());
    const runtime::CompiledModel loaded =
        runtime::loadArtifactBytes(bytes);
    EXPECT_EQ(runtime::backendKindName(loaded.options().backend),
              std::string(backend));
    EXPECT_EQ(bytes, runtime::serializeArtifact(loaded));

    const auto batch = randomBatch(3, loaded.inputSize(), 53);
    runtime::InferenceSession session = loaded.createSession();
    const runtime::BatchResult served = session.run(batch);
    ASSERT_EQ(served.logits.size(), batch.size());
    for (std::size_t u = 0; u < batch.size(); ++u) {
        ASSERT_EQ(served.logits[u].size(), batch[u].size());
        for (const Vector &frame : served.logits[u]) {
            ASSERT_EQ(frame.size(), loaded.numClasses());
            for (const Real v : frame)
                EXPECT_TRUE(std::isfinite(v));
        }
    }

    // The mapped load of the same bytes serves identically.
    const std::string path = tempPath("fixture_" + name);
    writeBytes(path, bytes);
    const auto mapped = runtime::loadArtifactMapped(path);
    std::remove(path.c_str());
    runtime::InferenceSession mapped_session = mapped->createSession();
    expectIdenticalResults(served, mapped_session.run(batch));
}

} // namespace

TEST(ArtifactFixture, FixedPointIsByteStable)
{
    checkFixture("lstm8x2_fixed_point.ernn", "fixed-point");
}

TEST(ArtifactFixture, CirculantFftIsByteStable)
{
    checkFixture("lstm8x2_circulant_fft.ernn", "circulant-fft");
}
