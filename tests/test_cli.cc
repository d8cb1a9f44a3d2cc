/**
 * @file
 * End-to-end tests of the `ernn` CLI binary (shelled out, not
 * linked): train -> compile -> info -> eval must work as a pipeline,
 * and the PER printed by `ernn eval` must be *bit-identical* to the
 * in-process speech::evaluatePer on the same checkpoint for all
 * three backends — the acceptance criterion of the artifact flow.
 *
 * The binary path is injected by CMake as ERNN_CLI_PATH.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <gtest/gtest.h>
#include <string>

#include "nn/model_builder.hh"
#include "nn/serialize.hh"
#include "runtime/artifact.hh"
#include "speech/dataset.hh"
#include "speech/per.hh"

#ifndef ERNN_CLI_PATH
#error "ERNN_CLI_PATH must be defined by the build"
#endif

using namespace ernn;

namespace
{

struct CmdResult
{
    int exitCode = -1;
    std::string output;
};

CmdResult
run(const std::string &args)
{
    const std::string cmd =
        std::string(ERNN_CLI_PATH) + " " + args + " 2>&1";
    CmdResult result;
    FILE *pipe = popen(cmd.c_str(), "r");
    if (!pipe)
        return result;
    char buf[4096];
    while (std::size_t n = fread(buf, 1, sizeof buf, pipe))
        result.output.append(buf, n);
    const int status = pclose(pipe);
    result.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return result;
}

/** Parse the value following "PER % " (printed with 17 digits). */
double
parsePer(const std::string &output)
{
    const auto pos = output.find("PER % ");
    EXPECT_NE(pos, std::string::npos) << output;
    if (pos == std::string::npos)
        return -1.0;
    return std::strtod(output.c_str() + pos + 6, nullptr);
}

/** Dataset flags shared by every train/eval invocation below; the
 *  in-process reference must mirror them exactly. */
const char *kDataFlags =
    "--phones 6 --feature-dim 8 --train-utts 6 --test-utts 4 "
    "--min-frames 10 --max-frames 14";

speech::AsrDataConfig
referenceDataConfig()
{
    speech::AsrDataConfig cfg;
    cfg.numPhones = 6;
    cfg.featureDim = 8;
    cfg.trainUtterances = 6;
    cfg.testUtterances = 4;
    cfg.minFrames = 10;
    cfg.maxFrames = 14;
    return cfg;
}

class CliPipeline : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        dir_ = new std::string(testing::TempDir() + "ernn_cli_test");
        const CmdResult train = run(
            "train --out " + *dir_ +
            " --model lstm --layers 8,8 --blocks 4,4 --peephole "
            "--projection 8 --epochs 2 --seed 3 " + kDataFlags);
        ASSERT_EQ(train.exitCode, 0) << train.output;
        ASSERT_NE(train.output.find("wrote"), std::string::npos)
            << train.output;
    }

    static void TearDownTestSuite()
    {
        delete dir_;
        dir_ = nullptr;
    }

    static std::string spec() { return *dir_ + "/model.spec"; }
    static std::string ckpt() { return *dir_ + "/model.ckpt"; }

    static std::string *dir_;
};

std::string *CliPipeline::dir_ = nullptr;

} // namespace

TEST(Cli, NoArgumentsPrintsUsageAndFails)
{
    const CmdResult r = run("");
    EXPECT_NE(r.exitCode, 0);
    EXPECT_NE(r.output.find("ernn"), std::string::npos);
    EXPECT_NE(r.output.find("compile"), std::string::npos);
}

TEST(Cli, HelpSucceeds)
{
    const CmdResult r = run("--help");
    EXPECT_EQ(r.exitCode, 0);
    EXPECT_NE(r.output.find("serve-bench"), std::string::npos);
}

TEST(Cli, UnknownSubcommandFails)
{
    const CmdResult r = run("frobnicate");
    EXPECT_NE(r.exitCode, 0);
    EXPECT_NE(r.output.find("unknown subcommand"), std::string::npos);
}

TEST(Cli, UnknownFlagFails)
{
    const CmdResult r = run("eval --artifact x --no-such-flag 1");
    EXPECT_NE(r.exitCode, 0);
    EXPECT_NE(r.output.find("--no-such-flag"), std::string::npos);
}

TEST(Cli, NegativeNumericFlagIsRejectedNotWrapped)
{
    const CmdResult r =
        run("train --out /tmp/ernn_cli_neg --layers -8 --epochs 1");
    EXPECT_NE(r.exitCode, 0);
    EXPECT_NE(r.output.find("non-negative"), std::string::npos)
        << r.output;
}

TEST(Cli, BogusSplitIsRejected)
{
    const CmdResult r = run("eval --artifact x --split tarin");
    EXPECT_NE(r.exitCode, 0);
    EXPECT_NE(r.output.find("--split"), std::string::npos)
        << r.output;
}

TEST(Cli, BogusModelAndOptimizerAreRejected)
{
    const CmdResult model =
        run("train --out /tmp/ernn_cli_bad --model grru");
    EXPECT_NE(model.exitCode, 0);
    EXPECT_NE(model.output.find("--model"), std::string::npos)
        << model.output;

    const CmdResult opt =
        run("train --out /tmp/ernn_cli_bad --optimizer sdg");
    EXPECT_NE(opt.exitCode, 0);
    EXPECT_NE(opt.output.find("--optimizer"), std::string::npos)
        << opt.output;
}

TEST(Cli, OutOfRangeBitsAreRejected)
{
    const CmdResult r = run(
        "train --out /tmp/ernn_cli_bad --bits 4294967298");
    EXPECT_NE(r.exitCode, 0);
    EXPECT_NE(r.output.find("--bits"), std::string::npos)
        << r.output;
}

TEST(Cli, StrayPositionalOperandIsRejected)
{
    const CmdResult r =
        run("train --out /tmp/ernn_cli_bad epochs 3");
    EXPECT_NE(r.exitCode, 0);
    EXPECT_NE(r.output.find("unexpected operand"), std::string::npos)
        << r.output;
}

TEST_F(CliPipeline, TrainEmitsSpecCheckpointAndArtifact)
{
    EXPECT_TRUE(std::ifstream(spec()).good());
    EXPECT_TRUE(std::ifstream(ckpt()).good());
    EXPECT_TRUE(std::ifstream(*dir_ + "/model.ernn").good());
}

TEST_F(CliPipeline, InfoValidatesAndSummarizes)
{
    const CmdResult r = run("info " + *dir_ + "/model.ernn");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("checksums ok"), std::string::npos);
    EXPECT_NE(r.output.find("lstm"), std::string::npos);
    // The default format is v3: info lists the blob section layout.
    EXPECT_NE(r.output.find("blob section"), std::string::npos);
}

TEST_F(CliPipeline, InfoRejectsCorruptedArtifact)
{
    // Append garbage to a copy; info must fail loudly, not summarize.
    const std::string bad = *dir_ + "/model.bad.ernn";
    {
        std::ifstream in(*dir_ + "/model.ernn", std::ios::binary);
        std::ofstream out(bad, std::ios::binary);
        out << in.rdbuf() << "tail";
    }
    const CmdResult r = run("info " + bad);
    EXPECT_NE(r.exitCode, 0);
    EXPECT_NE(r.output.find("trailing"), std::string::npos)
        << r.output;
    std::remove(bad.c_str());
}

TEST_F(CliPipeline, CompileEvalMatchesInProcessPerOnAllBackends)
{
    const auto data = speech::makeSyntheticAsr(referenceDataConfig());
    const nn::ModelSpec mspec = [&] {
        std::ifstream is(spec());
        std::string line;
        std::getline(is, line);
        return nn::parseSpec(line);
    }();

    for (const std::string backend :
         {"dense", "circulant-fft", "fixed-point"}) {
        const std::string art = *dir_ + "/" + backend + ".ernn";
        const CmdResult compile = run(
            "compile --spec " + spec() + " --checkpoint " + ckpt() +
            " --backend " + backend + " --out " + art);
        ASSERT_EQ(compile.exitCode, 0) << compile.output;

        const CmdResult eval = run(
            "eval --artifact " + art + " --workers 3 --max-batch 4 " +
            kDataFlags);
        ASSERT_EQ(eval.exitCode, 0) << eval.output;
        const double cli_per = parsePer(eval.output);

        // In-process reference: same checkpoint, same backend, the
        // serial speech::evaluatePer path. Must match to the bit.
        nn::StackedRnn model = nn::buildModel(mspec);
        nn::loadParams(model, ckpt());
        runtime::CompileOptions opts;
        opts.backend = backend == "dense"
                           ? runtime::BackendKind::Dense
                           : backend == "circulant-fft"
                                 ? runtime::BackendKind::CirculantFft
                                 : runtime::BackendKind::FixedPoint;
        const double ref_per = speech::evaluatePer(
            runtime::compile(model, opts), data.test);

        EXPECT_EQ(cli_per, ref_per)
            << backend << ": CLI " << cli_per << " vs in-process "
            << ref_per;
        std::remove(art.c_str());
    }
}

TEST_F(CliPipeline, FixedPointEmulationOracleMatchesNativeInt16)
{
    // The deployed int16 datapath and its f64 emulation oracle must
    // score identically through the whole CLI pipeline, and `info`
    // must say which one an artifact freezes.
    const std::string native_art = *dir_ + "/fp-native.ernn";
    const std::string oracle_art = *dir_ + "/fp-oracle.ernn";
    ASSERT_EQ(run("compile --spec " + spec() + " --checkpoint " +
                  ckpt() + " --backend fixed-point --out " +
                  native_art)
                  .exitCode,
              0);
    ASSERT_EQ(run("compile --spec " + spec() + " --checkpoint " +
                  ckpt() + " --backend fixed-point --fp-emulate "
                  "--out " + oracle_art)
                  .exitCode,
              0);

    const CmdResult native_info = run("info " + native_art);
    EXPECT_NE(native_info.output.find("native int16"),
              std::string::npos)
        << native_info.output;
    EXPECT_NE(native_info.output.find("format v3"), std::string::npos);

    const CmdResult oracle_info = run("info " + oracle_art);
    EXPECT_NE(oracle_info.output.find("f64 emulation"),
              std::string::npos)
        << oracle_info.output;

    const CmdResult native_eval = run("eval --artifact " + native_art +
                                      " --workers 2 " + kDataFlags);
    const CmdResult oracle_eval = run("eval --artifact " + oracle_art +
                                      " --workers 2 " + kDataFlags);
    ASSERT_EQ(native_eval.exitCode, 0) << native_eval.output;
    ASSERT_EQ(oracle_eval.exitCode, 0) << oracle_eval.output;
    EXPECT_EQ(parsePer(native_eval.output),
              parsePer(oracle_eval.output));

    std::remove(native_art.c_str());
    std::remove(oracle_art.c_str());
}

TEST_F(CliPipeline, ServeBenchRunsASweep)
{
    const CmdResult r = run("serve-bench --artifact " + *dir_ +
                            "/model.ernn --workers 1,2 --max-batch 4 "
                            "--utterances 8 --frames 6");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("frames/s"), std::string::npos);
}

TEST_F(CliPipeline, ServeBenchStatsJsonBothSchedulers)
{
    for (const std::string sched : {"hold-open", "continuous"}) {
        const CmdResult r = run(
            "serve-bench --artifact " + *dir_ +
            "/model.ernn --workers 2 --max-batch 4 --utterances 8 "
            "--frames 6 --scheduler " + sched + " --stats-json");
        ASSERT_EQ(r.exitCode, 0) << r.output;
        // One machine-readable document, no human table around it.
        EXPECT_EQ(r.output.find("frames/s"), std::string::npos)
            << r.output;
        EXPECT_NE(r.output.find("\"scheduler\":\"" + sched + "\""),
                  std::string::npos)
            << r.output;
        for (const char *key :
             {"\"frames_per_sec\":", "\"requests_completed\":8",
              "\"batches_dispatched\":", "\"compute_micros\":",
              "\"queue_micros\":", "\"mean_batch_size\":"})
            EXPECT_NE(r.output.find(key), std::string::npos)
                << key << " missing from " << r.output;
    }
}
