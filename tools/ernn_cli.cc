/**
 * @file
 * `ernn` — the command-line front end to the E-RNN pipeline. Every
 * scenario the library supports is drivable without writing C++:
 *
 *   ernn train       train on the synthetic ASR task; emit a spec
 *                    file, a checkpoint, and a compiled artifact
 *   ernn compile     freeze a spec+checkpoint into an artifact for
 *                    any backend (dense / circulant-fft / fixed-point)
 *   ernn info        validate an artifact and dump its summary
 *   ernn eval        PER over a dataset, served concurrently through
 *                    a serve::InferenceServer loaded from an artifact
 *                    (--beam N swaps greedy argmax for CTC prefix
 *                    beam search; --beam 1 is bit-identical to greedy)
 *   ernn serve-bench throughput sweep over workers x batch size
 *   ernn stream-bench long-form streaming scenario: live pinned
 *                    streams mixed with batch traffic, periodically
 *                    cut via stream checkpoints and resumed on fresh
 *                    streams, verified bit-identical to an
 *                    uninterrupted in-process reference
 *
 * The train -> compile -> eval path is the paper's train-once /
 * deploy-many flow as a shell pipeline: `eval` and `serve-bench`
 * only ever touch the artifact, never the training stack, and the
 * PER printed by `eval` is bit-identical to the in-process
 * speech::evaluatePer on the same checkpoint (the CLI test asserts
 * this for all three backends).
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <iomanip>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/random.hh"
#include "base/strings.hh"
#include "nn/model_builder.hh"
#include "nn/serialize.hh"
#include "nn/trainer.hh"
#include "runtime/artifact.hh"
#include "runtime/checkpoint.hh"
#include "runtime/session.hh"
#include "serve/inference_server.hh"
#include "speech/dataset.hh"
#include "speech/per.hh"

using namespace ernn;

namespace
{

// --- flag parsing ------------------------------------------------------

/** Flags that take no value; everything else is --key <value>. */
const std::set<std::string> kBoolFlags = {"--peephole", "--quiet",
                                          "--resume",
                                          "--fp-emulate",
                                          "--stats-json"};

/**
 * Minimal --key value parser. Every flag must be consumed by the
 * subcommand; leftovers are a fatal usage error so typos never pass
 * silently. Positional operands (e.g. `info <artifact>`) are
 * collected separately.
 */
class Flags
{
  public:
    Flags(int argc, char **argv, int start)
    {
        for (int i = start; i < argc; ++i) {
            const std::string arg = argv[i];
            if (!startsWith(arg, "--")) {
                positional_.push_back(arg);
                continue;
            }
            if (kBoolFlags.count(arg)) {
                values_[arg] = "1";
                continue;
            }
            if (i + 1 >= argc)
                ernn_fatal("flag " << arg << " needs a value");
            values_[arg] = argv[++i];
        }
    }

    std::string str(const std::string &name, const std::string &dflt)
    {
        auto it = values_.find(name);
        if (it == values_.end())
            return dflt;
        seen_.insert(name);
        return it->second;
    }

    std::string required(const std::string &name)
    {
        auto it = values_.find(name);
        if (it == values_.end())
            ernn_fatal("missing required flag " << name);
        seen_.insert(name);
        return it->second;
    }

    std::size_t num(const std::string &name, std::size_t dflt)
    {
        auto it = values_.find(name);
        if (it == values_.end())
            return dflt;
        seen_.insert(name);
        return parseNum(it->second, name);
    }

    Real real(const std::string &name, Real dflt)
    {
        auto it = values_.find(name);
        if (it == values_.end())
            return dflt;
        seen_.insert(name);
        char *end = nullptr;
        const Real v = std::strtod(it->second.c_str(), &end);
        if (!end || *end != '\0')
            ernn_fatal("flag " << name << ": bad number '"
                       << it->second << "'");
        return v;
    }

    bool flag(const std::string &name)
    {
        auto it = values_.find(name);
        if (it == values_.end())
            return false;
        seen_.insert(name);
        return true;
    }

    std::vector<std::size_t> numList(const std::string &name,
                                     std::vector<std::size_t> dflt)
    {
        auto it = values_.find(name);
        if (it == values_.end())
            return dflt;
        seen_.insert(name);
        return parseUnsignedList(it->second, "flag " + name);
    }

    /** Claim the positional operands (only `info` takes any). */
    const std::vector<std::string> &takePositionals()
    {
        positionalsConsumed_ = true;
        return positional_;
    }

    /** Fatal on any flag or positional operand the subcommand did
     *  not consume — typos never pass silently. */
    void finish() const
    {
        for (const auto &kv : values_)
            if (!seen_.count(kv.first))
                ernn_fatal("unknown flag " << kv.first
                           << " for this subcommand");
        if (!positionalsConsumed_ && !positional_.empty())
            ernn_fatal("unexpected operand '" << positional_.front()
                       << "' (did you mean --"
                       << positional_.front() << "?)");
    }

  private:
    static std::size_t parseNum(const std::string &s,
                                const std::string &name)
    {
        return parseUnsigned(s, "flag " + name);
    }

    std::map<std::string, std::string> values_;
    std::set<std::string> seen_;
    std::vector<std::string> positional_;
    bool positionalsConsumed_ = false;
};

// --- shared flag groups ------------------------------------------------

/** Dataset flags, shared by train/eval so both see the same data. */
speech::AsrDataConfig
dataConfig(Flags &f)
{
    speech::AsrDataConfig cfg;
    cfg.numPhones = f.num("--phones", cfg.numPhones);
    cfg.featureDim = f.num("--feature-dim", cfg.featureDim);
    cfg.trainUtterances = f.num("--train-utts", cfg.trainUtterances);
    cfg.testUtterances = f.num("--test-utts", cfg.testUtterances);
    cfg.minFrames = f.num("--min-frames", cfg.minFrames);
    cfg.maxFrames = f.num("--max-frames", cfg.maxFrames);
    cfg.seed = f.num("--data-seed", cfg.seed);
    return cfg;
}

runtime::BackendKind
parseBackend(const std::string &name)
{
    if (name == "auto")
        return runtime::BackendKind::Auto;
    if (name == "dense")
        return runtime::BackendKind::Dense;
    if (name == "circulant-fft")
        return runtime::BackendKind::CirculantFft;
    if (name == "fixed-point")
        return runtime::BackendKind::FixedPoint;
    ernn_fatal("unknown backend '" << name
               << "' (expected auto, dense, circulant-fft, or "
                  "fixed-point)");
}

runtime::CompileOptions
compileOptions(Flags &f)
{
    runtime::CompileOptions opts;
    opts.backend = parseBackend(f.str("--backend", "auto"));
    const std::size_t bits = f.num(
        "--bits", static_cast<std::size_t>(opts.fixedPointBits));
    if (bits < 2 || bits > 32)
        ernn_fatal("--bits must be in [2, 32], got " << bits);
    opts.fixedPointBits = static_cast<int>(bits);
    opts.activationSegments =
        f.num("--segments", opts.activationSegments);
    opts.activationRange = f.real("--range", opts.activationRange);
    // Debug/oracle escape hatch: freeze the f64 reference emulation
    // instead of the native int16 datapath (bit-identical results).
    opts.fixedPointEmulation = f.flag("--fp-emulate");
    return opts;
}

/** Strict two-way enum flag: anything else is a fatal typo. */
bool
parseChoice(const std::string &value, const std::string &flag,
            const std::string &a, const std::string &b)
{
    if (value == a)
        return true;
    if (value == b)
        return false;
    ernn_fatal(flag << " must be '" << a << "' or '" << b
               << "', got '" << value << "'");
}

std::string
readSpecFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        ernn_fatal("cannot open spec file " << path);
    std::string line;
    std::getline(is, line);
    return line;
}

/** Load spec + checkpoint into a runnable model. */
nn::StackedRnn
loadModel(const std::string &spec_path, const std::string &ckpt_path)
{
    const nn::ModelSpec spec = nn::parseSpec(readSpecFile(spec_path));
    nn::StackedRnn model = nn::buildModel(spec);
    nn::loadParams(model, ckpt_path);
    return model;
}

std::ostream &
fullPrecision(std::ostream &os)
{
    return os << std::setprecision(17);
}

// --- subcommands -------------------------------------------------------

int
cmdTrain(Flags &f)
{
    const std::string out_dir = f.required("--out");

    const speech::AsrDataConfig dcfg = dataConfig(f);

    nn::ModelSpec spec;
    spec.type = parseChoice(f.str("--model", "lstm"), "--model",
                            "gru", "lstm")
                    ? nn::ModelType::Gru
                    : nn::ModelType::Lstm;
    spec.inputDim = dcfg.featureDim;
    spec.numClasses = dcfg.numPhones;
    spec.layerSizes = f.numList("--layers", {32});
    spec.blockSizes = f.numList("--blocks", {});
    spec.inputBlockSizes = f.numList("--input-blocks", {});
    spec.peephole = f.flag("--peephole");
    spec.projectionSize = f.num("--projection", 0);
    spec.validate();

    nn::TrainConfig tc;
    tc.epochs = f.num("--epochs", 5);
    tc.lr = f.real("--lr", 1e-2);
    tc.batchSize = f.num("--batch-size", 4);
    tc.optimizer = parseChoice(f.str("--optimizer", "adam"),
                               "--optimizer", "sgd", "adam")
                       ? nn::TrainConfig::Opt::Sgd
                       : nn::TrainConfig::Opt::Adam;
    tc.threads = f.num("--threads", 1);
    tc.batchLanes = f.num("--batch-lanes", 0);
    tc.resume = f.flag("--resume");
    const std::size_t seed = f.num("--seed", 1);

    const runtime::CompileOptions copts = compileOptions(f);
    f.finish();

    // The checkpoint lands in the output directory, so it must exist
    // before the first epoch completes (not just before export).
    namespace fs = std::filesystem;
    fs::create_directories(out_dir);
    tc.checkpointPath = out_dir + "/train.state";

    const auto data = speech::makeSyntheticAsr(dcfg);
    nn::StackedRnn model = nn::buildModel(spec);
    Rng rng(seed);
    model.initXavier(rng);

    std::cout << "training " << spec.describe() << " ("
              << model.paramCount() << " params) on "
              << data.train.size() << " utterances\n";
    const nn::TrainResult log =
        nn::Trainer(model, tc).train(data.train);
    std::cout << "final loss " << fmtReal(log.finalLoss(), 4)
              << " after " << tc.epochs << " epochs\n";
    if (!log.epochs.empty()) {
        const nn::EpochLog &last = log.epochs.back();
        std::cout << "last epoch " << fmtReal(last.wallMs, 1)
                  << " ms (" << fmtReal(last.framesPerSec, 0)
                  << " frames/s)\n";
    }

    const std::string spec_path = out_dir + "/model.spec";
    const std::string ckpt_path = out_dir + "/model.ckpt";
    const std::string art_path = out_dir + "/model.ernn";

    std::ofstream spec_os(spec_path);
    if (!spec_os)
        ernn_fatal("cannot write spec file " << spec_path);
    spec_os << nn::formatSpec(spec) << "\n";
    spec_os.close();
    nn::saveParams(model, ckpt_path);

    const runtime::CompiledModel compiled =
        runtime::compile(model, copts);
    runtime::saveArtifact(compiled, art_path);

    const Real per = speech::evaluatePer(compiled, data.test);
    std::cout << "artifact " << compiled.describe() << "\n";
    fullPrecision(std::cout) << "PER % " << per << "\n";
    std::cout << "wrote " << spec_path << ", " << ckpt_path << ", "
              << art_path << "\n";
    return 0;
}

int
cmdCompile(Flags &f)
{
    const std::string spec_path = f.required("--spec");
    const std::string ckpt_path = f.required("--checkpoint");
    const std::string out_path = f.required("--out");
    const runtime::CompileOptions copts = compileOptions(f);
    f.finish();

    const nn::StackedRnn model = loadModel(spec_path, ckpt_path);
    const runtime::CompiledModel compiled =
        runtime::compile(model, copts);
    runtime::saveArtifact(compiled, out_path);
    namespace fs = std::filesystem;
    std::cout << "wrote " << out_path << ": " << compiled.describe()
              << " (" << compiled.storedParams()
              << " stored params, format v"
              << runtime::kArtifactFormatVersion << ", "
              << fmtBytes(static_cast<Real>(fs::file_size(out_path)))
              << ")\n";
    return 0;
}

int
cmdInfo(Flags &f)
{
    const std::vector<std::string> paths = f.takePositionals();
    f.finish();
    if (paths.empty())
        ernn_fatal("info: expected at least one artifact path");
    for (const std::string &path : paths)
        std::cout << runtime::describeArtifact(path);
    return 0;
}

int
cmdEval(Flags &f)
{
    const std::string art_path = f.required("--artifact");
    const speech::AsrDataConfig dcfg = dataConfig(f);
    const std::string split = f.str("--split", "test");
    if (split != "test" && split != "train")
        ernn_fatal("--split must be 'test' or 'train', got '"
                   << split << "'");
    speech::PerEvalOptions popts;
    popts.workers = f.num("--workers", popts.workers);
    popts.maxBatch = f.num("--max-batch", popts.maxBatch);
    popts.computeThreads = f.num("--threads", popts.computeThreads);
    // 0 keeps the historical greedy argmax path; --beam 1 runs the
    // CTC decoder, bit-identical to greedy (the parity oracle).
    popts.beamWidth = f.num("--beam", popts.beamWidth);
    f.finish();

    const auto model = runtime::loadArtifactShared(art_path);
    const auto data = speech::makeSyntheticAsr(dcfg);
    const nn::SequenceDataset &set =
        split == "train" ? data.train : data.test;

    std::size_t frames = 0;
    for (const auto &ex : set)
        frames += ex.frames.size();
    std::cout << model->describe() << " on " << set.size() << " "
              << split << " utterances (" << frames << " frames), "
              << popts.workers << " workers";
    if (popts.beamWidth > 0)
        std::cout << ", ctc beam " << popts.beamWidth;
    std::cout << "\n";

    // The serve-backed evaluation coalesces utterances into batches
    // across worker sessions; results are bit-identical to the
    // serial in-process path (see test_cli / test_serve).
    const Real per = speech::evaluatePer(*model, set, popts);
    fullPrecision(std::cout) << "PER % " << per << "\n";
    return 0;
}

int
cmdServeBench(Flags &f)
{
    const std::string art_path = f.required("--artifact");
    const std::vector<std::size_t> workers =
        f.numList("--workers", {1, 2, 4});
    const std::vector<std::size_t> batches =
        f.numList("--max-batch", {1, 8});
    const std::size_t utterances = f.num("--utterances", 64);
    const std::size_t frames = f.num("--frames", 40);
    const std::size_t seed = f.num("--seed", 42);
    const std::size_t threads = f.num("--threads", 0);
    const bool continuous =
        !parseChoice(f.str("--scheduler", "hold-open"), "--scheduler",
                     "hold-open", "continuous");
    const bool stats_json = f.flag("--stats-json");
    f.finish();

    const auto model = runtime::loadArtifactShared(art_path);
    if (!stats_json)
        std::cout << "serve-bench " << model->describe() << ", "
                  << utterances << " utterances x " << frames
                  << " frames, "
                  << (continuous ? "continuous" : "hold-open")
                  << " scheduler (hardware concurrency "
                  << std::thread::hardware_concurrency() << ")\n";

    Rng rng(seed);
    std::vector<nn::Sequence> load(utterances);
    for (auto &utt : load) {
        utt.assign(frames, Vector(model->inputSize()));
        for (auto &frame : utt)
            rng.fillNormal(frame, 1.0);
    }

    // frames/s rides the batch-major run() datapath: every coalesced
    // batch is one GEMM-shaped kernel call per weight per time step,
    // so "compute us/frame" falls as "mean batch" rises (compute
    // density, not just queueing). --stats-json swaps the table for
    // one machine-readable document carrying the full ServerStats.
    if (!stats_json)
        std::cout << padRight("workers", 9) << padRight("maxBatch", 10)
                  << padRight("frames/s", 12)
                  << padRight("mean batch", 12)
                  << padRight("compute us/frame", 17) << "\n";
    std::ostringstream json;
    fullPrecision(json) << "{\"scheduler\":\""
                        << (continuous ? "continuous" : "hold-open")
                        << "\",\"utterances\":" << utterances
                        << ",\"frames\":" << frames
                        << ",\"configs\":[";
    bool first = true;
    for (std::size_t w : workers) {
        for (std::size_t b : batches) {
            serve::ServerOptions sopts;
            sopts.workers = w;
            sopts.maxBatch = b;
            sopts.computeThreads = threads;
            sopts.scheduler = continuous
                                  ? serve::SchedulerMode::Continuous
                                  : serve::SchedulerMode::HoldOpen;
            serve::InferenceServer server(*model, sopts);
            const auto t0 = std::chrono::steady_clock::now();
            std::vector<std::future<serve::InferenceReply>> futs;
            futs.reserve(load.size());
            for (const auto &utt : load)
                futs.push_back(server.submit(utt));
            for (auto &fut : futs)
                fut.get();
            const auto t1 = std::chrono::steady_clock::now();
            const Real secs =
                std::chrono::duration<Real>(t1 - t0).count();
            const serve::ServerStats stats = server.stats();
            const Real fps =
                static_cast<Real>(utterances * frames) / secs;
            if (stats_json) {
                json << (first ? "" : ",") << "{\"workers\":" << w
                     << ",\"max_batch\":" << b
                     << ",\"frames_per_sec\":" << fps
                     << ",\"stats\":" << stats.toJson() << "}";
                first = false;
                continue;
            }
            std::cout << padRight(std::to_string(w), 9)
                      << padRight(std::to_string(b), 10)
                      << padRight(fmtReal(fps, 0), 12)
                      << padRight(fmtReal(stats.meanBatchSize(), 2),
                                  12)
                      << padRight(
                             fmtReal(stats.framesProcessed
                                         ? stats.computeMicros.sum() /
                                               static_cast<Real>(
                                                   stats
                                                       .framesProcessed)
                                         : 0.0,
                                     1),
                             17)
                      << "\n";
        }
    }
    json << "]}";
    if (stats_json)
        std::cout << json.str() << "\n";
    return 0;
}

int
cmdStreamBench(Flags &f)
{
    const std::string art_path = f.required("--artifact");
    const std::size_t streams = f.num("--streams", 4);
    const std::size_t frames = f.num("--frames", 240);
    const std::size_t ckpt_every = f.num("--checkpoint-every", 60);
    const std::size_t batch_utts = f.num("--batch-utts", 16);
    const std::size_t batch_frames = f.num("--batch-frames", 40);
    const std::size_t workers = f.num("--workers", 2);
    const std::size_t threads = f.num("--threads", 0);
    const std::size_t seed = f.num("--seed", 42);
    f.finish();
    if (streams == 0 || frames == 0)
        ernn_fatal("stream-bench: --streams and --frames must be > 0");
    if (ckpt_every == 0)
        ernn_fatal("stream-bench: --checkpoint-every must be > 0");

    const auto model = runtime::loadArtifactShared(art_path);
    serve::ServerOptions sopts;
    sopts.workers = workers;
    sopts.computeThreads = threads;
    serve::InferenceServer server(*model, sopts);

    std::cout << "stream-bench " << model->describe() << ": "
              << streams << " live streams x " << frames
              << " frames (checkpoint/resume every " << ckpt_every
              << "), " << batch_utts << " batch utterances x "
              << batch_frames << " frames, " << workers
              << " workers\n";

    // Deterministic load: per-stream frame sequences plus background
    // batch traffic submitted up front so stream steps contend with
    // batch dispatches on the same workers throughout.
    Rng rng(seed);
    std::vector<nn::Sequence> streamFrames(streams);
    for (auto &seq : streamFrames) {
        seq.assign(frames, Vector(model->inputSize()));
        for (auto &frame : seq)
            rng.fillNormal(frame, 1.0);
    }
    std::vector<std::future<serve::InferenceReply>> batchFuts;
    batchFuts.reserve(batch_utts);
    for (std::size_t u = 0; u < batch_utts; ++u) {
        nn::Sequence utt(batch_frames, Vector(model->inputSize()));
        for (auto &frame : utt)
            rng.fillNormal(frame, 1.0);
        batchFuts.push_back(server.submit(std::move(utt)));
    }

    // Shadow oracle: the same frames through an uninterrupted
    // in-process session. Every served logit vector must match it
    // bit for bit across every cut/persist/resume.
    runtime::InferenceSession ref = model->createSession();
    std::vector<runtime::StreamState> refStates;
    refStates.reserve(streams);
    std::vector<serve::InferenceServer::Stream> live;
    live.reserve(streams);
    for (std::size_t s = 0; s < streams; ++s) {
        refStates.push_back(ref.newStream());
        live.push_back(server.openStream());
    }

    std::vector<Real> stepMicros;
    stepMicros.reserve(streams * frames);
    std::size_t checkpoints = 0, ckptBytes = 0, mismatches = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t t = 0; t < frames; ++t) {
        for (std::size_t s = 0; s < streams; ++s) {
            if (t > 0 && t % ckpt_every == 0) {
                // Cut: serialize the live stream, abandon it, and
                // resume the blob on a brand-new stream (possibly a
                // different worker) — the long-form lifecycle.
                std::string blob = live[s].checkpointSync();
                ++checkpoints;
                ckptBytes += blob.size();
                serve::InferenceServer::Stream fresh =
                    server.openStream();
                fresh.restoreSync(std::move(blob));
                live[s] = std::move(fresh);
            }
            const auto a = std::chrono::steady_clock::now();
            const Vector got = live[s].stepSync(streamFrames[s][t]);
            const auto b = std::chrono::steady_clock::now();
            stepMicros.push_back(
                std::chrono::duration<Real, std::micro>(b - a)
                    .count());
            const Vector &want = ref.step(refStates[s],
                                          streamFrames[s][t]);
            if (got != want)
                ++mismatches;
        }
    }
    const auto t1 = std::chrono::steady_clock::now();
    for (auto &fut : batchFuts)
        fut.get();

    const Real secs = std::chrono::duration<Real>(t1 - t0).count();
    std::sort(stepMicros.begin(), stepMicros.end());
    const auto pct = [&](Real p) {
        const std::size_t i = static_cast<std::size_t>(
            p * static_cast<Real>(stepMicros.size() - 1));
        return stepMicros[i];
    };
    const serve::ServerStats stats = server.stats();
    std::cout << "stream steps/s "
              << fmtReal(static_cast<Real>(streams * frames) / secs, 0)
              << " (p50 " << fmtReal(pct(0.5), 1) << " us, p99 "
              << fmtReal(pct(0.99), 1) << " us per step)\n";
    std::cout << "checkpoints " << checkpoints << " (mean "
              << fmtBytes(checkpoints
                              ? static_cast<Real>(ckptBytes) /
                                    static_cast<Real>(checkpoints)
                              : 0.0)
              << " each), batch requests " << stats.requestsCompleted
              << " (" << stats.framesProcessed << " frames)\n";
    if (mismatches)
        ernn_fatal("stream-bench: " << mismatches << " of "
                   << streams * frames << " served steps diverged "
                   "from the uninterrupted reference");
    std::cout << "bit-identity vs uninterrupted reference: OK ("
              << streams * frames << " steps)\n";
    return 0;
}

int
usage(std::ostream &os, int code)
{
    os << "ernn — E-RNN train/compile/serve pipeline\n"
          "\n"
          "  ernn train --out DIR [--model lstm|gru] [--layers "
          "64,64]\n"
          "             [--blocks 8,8] [--input-blocks ...] "
          "[--peephole]\n"
          "             [--projection N] [--epochs N] [--lr R]\n"
          "             [--batch-size N] [--optimizer adam|sgd] "
          "[--seed N]\n"
          "             [--threads N]"
          " [--batch-lanes N  utterances per gradient group]\n"
          "             [--resume   continue from DIR/train.state]\n"
          "             [--backend B] [--bits N] [data flags]\n"
          "  ernn compile --spec F --checkpoint F --out F\n"
          "             [--backend auto|dense|circulant-fft|"
          "fixed-point]\n"
          "             [--bits N] [--segments N] [--range R]\n"
          "             [--fp-emulate   f64 oracle instead of int16]\n"
          "  ernn info ARTIFACT...\n"
          "  ernn eval --artifact F [--split test|train] "
          "[--workers N]\n"
          "             [--max-batch N] [--threads N] [data flags]\n"
          "             [--beam N    CTC prefix beam search (1 is\n"
          "                          bit-identical to greedy "
          "argmax)]\n"
          "  ernn serve-bench --artifact F [--workers 1,2,4]\n"
          "             [--max-batch 1,8] [--utterances N] "
          "[--frames N]\n"
          "             [--threads N    compute threads per "
          "session]\n"
          "             [--scheduler hold-open|continuous] "
          "[--stats-json]\n"
          "  ernn stream-bench --artifact F [--streams N] "
          "[--frames N]\n"
          "             [--checkpoint-every K  cut/persist/resume "
          "cadence]\n"
          "             [--batch-utts N] [--batch-frames N]\n"
          "             [--workers N] [--threads N] [--seed N]\n"
          "\n"
          "data flags (shared by train/eval; both sides must match "
          "for\n"
          "bit-identical scoring): --phones --feature-dim "
          "--train-utts\n"
          "--test-utts --min-frames --max-frames --data-seed\n";
    return code;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(std::cerr, 2);
    const std::string cmd = argv[1];
    if (cmd == "--help" || cmd == "-h" || cmd == "help")
        return usage(std::cout, 0);

    Flags flags(argc, argv, 2);
    if (flags.flag("--quiet"))
        setLogQuiet(true);

    if (cmd == "train")
        return cmdTrain(flags);
    if (cmd == "compile")
        return cmdCompile(flags);
    if (cmd == "info")
        return cmdInfo(flags);
    if (cmd == "eval")
        return cmdEval(flags);
    if (cmd == "serve-bench")
        return cmdServeBench(flags);
    if (cmd == "stream-bench")
        return cmdStreamBench(flags);

    std::cerr << "unknown subcommand '" << cmd << "'\n\n";
    return usage(std::cerr, 2);
}
