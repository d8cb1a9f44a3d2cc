/**
 * @file
 * CTC prefix beam-search tests: logAdd numerics, exhaustive-beam
 * agreement with a brute-force alignment enumerator (both blank and
 * no-blank modes), the beam-1 == greedy parity oracle on all three
 * compiled backends (same per-utterance labels, same PER, through
 * both the serial and server-backed evaluatePer paths), tie-break
 * conventions, beam-N never raising PER on a trained model, and
 * seeded fuzz over random logit tensors asserting the search
 * invariants (unique prefixes, probability mass <= 1, sorted output),
 * and a seeded fuzz of the flat decoder against the map-keyed prefix
 * beam it replaced, kept here as the bit-exact oracle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <set>

#include "nn/lstm.hh"
#include "nn/model_builder.hh"
#include "nn/trainer.hh"
#include "runtime/session.hh"
#include "speech/ctc_decoder.hh"
#include "speech/dataset.hh"
#include "speech/per.hh"

using namespace ernn;
using namespace ernn::speech;

namespace
{

nn::Sequence
randomLogits(std::size_t t, std::size_t classes, Rng &rng, Real scale)
{
    nn::Sequence xs(t);
    for (auto &x : xs) {
        x.resize(classes);
        rng.fillNormal(x, scale);
    }
    return xs;
}

/** Greedy baseline, written against the repo's conventions: per
 *  frame, first maximum wins; repeats collapse. */
std::vector<int>
greedyLabels(const nn::Sequence &logits)
{
    std::vector<int> preds;
    preds.reserve(logits.size());
    for (const auto &frame : logits)
        preds.push_back(static_cast<int>(
            std::max_element(frame.begin(), frame.end()) -
            frame.begin()));
    return collapseRepeats(preds);
}

/** CTC collapse of one frame-level alignment: merge consecutive
 *  repeats, then drop blanks. */
std::vector<int>
collapseAlignment(const std::vector<int> &path, int blank)
{
    std::vector<int> out;
    int prev = -1000;
    for (int c : path) {
        if (c != prev && c != blank)
            out.push_back(c);
        prev = c;
    }
    return out;
}

/** Brute force: enumerate every classes^T alignment, softmax its
 *  per-frame probabilities, and accumulate exact per-prefix mass. */
std::map<std::vector<int>, Real>
bruteForceMass(const nn::Sequence &logits, int blank)
{
    const std::size_t t_count = logits.size();
    const std::size_t classes = logits.empty() ? 0 : logits[0].size();
    std::vector<Vector> probs(t_count);
    for (std::size_t t = 0; t < t_count; ++t) {
        probs[t].resize(classes);
        Real mx = *std::max_element(logits[t].begin(), logits[t].end());
        Real z = 0.0;
        for (std::size_t c = 0; c < classes; ++c)
            z += std::exp(logits[t][c] - mx);
        for (std::size_t c = 0; c < classes; ++c)
            probs[t][c] = std::exp(logits[t][c] - mx) / z;
    }

    std::map<std::vector<int>, Real> mass;
    std::vector<int> path(t_count, 0);
    while (true) {
        Real p = 1.0;
        for (std::size_t t = 0; t < t_count; ++t)
            p *= probs[t][static_cast<std::size_t>(path[t])];
        mass[collapseAlignment(path, blank)] += p;
        std::size_t t = 0;
        for (; t < t_count; ++t) {
            if (++path[t] < static_cast<int>(classes))
                break;
            path[t] = 0;
        }
        if (t == t_count)
            break;
    }
    return mass;
}

/**
 * The map-keyed prefix beam search — the decoder's previous
 * implementation, kept as the oracle for the flat one. std::map keys
 * the beam by prefix, so duplicates merge by construction and its
 * lexicographic iteration fixes every log-sum-exp order; every frame
 * rebuilds the map and prunes it with a stable sort.
 */
std::vector<CtcHypothesis>
mapBeamOracle(const nn::Sequence &logits, const CtcDecodeOptions &opts)
{
    const Real negInf = -std::numeric_limits<Real>::infinity();
    struct Cand
    {
        Real pb, pnb;
        int tieSym = std::numeric_limits<int>::max();
        Real score() const { return logAdd(pb, pnb); }
    };
    const Cand empty{negInf, negInf};
    using Beam = std::map<std::vector<int>, Cand>;
    Beam beam;
    beam.emplace(std::vector<int>{}, Cand{0.0, negInf});

    for (const Vector &frame : logits) {
        Real m = negInf;
        for (Real x : frame)
            m = std::max(m, x);
        Real sum = 0.0;
        for (Real x : frame)
            sum += std::exp(x - m);
        const Real lse = m + std::log(sum);
        Vector lp(frame.size());
        for (std::size_t c = 0; c < frame.size(); ++c)
            lp[c] = frame[c] - lse;

        Beam next;
        const auto add = [&](const std::vector<int> &key, bool blankPath,
                             Real v, int sym) {
            Cand &d = next.emplace(key, empty).first->second;
            Real &slot = blankPath ? d.pb : d.pnb;
            slot = logAdd(slot, v);
            d.tieSym = std::min(d.tieSym, sym);
        };
        for (const auto &[prefix, cand] : beam) {
            const Real total = cand.score();
            const int last = prefix.empty() ? -1 : prefix.back();
            for (int c = 0; c < static_cast<int>(lp.size()); ++c) {
                auto ext = prefix;
                ext.push_back(c);
                if (c == opts.blank) {
                    add(prefix, true, total + lp[c], c);
                } else if (c == last) {
                    if (cand.pnb != negInf)
                        add(prefix, false, cand.pnb + lp[c], c);
                    if (cand.pb != negInf)
                        add(ext, false, cand.pb + lp[c], c);
                } else {
                    add(ext, false, total + lp[c], c);
                }
            }
        }

        std::vector<std::pair<const std::vector<int> *, const Cand *>>
            order;
        for (const auto &entry : next)
            order.emplace_back(&entry.first, &entry.second);
        std::stable_sort(
            order.begin(), order.end(),
            [](const auto &a, const auto &b) {
                if (a.second->score() != b.second->score())
                    return a.second->score() > b.second->score();
                if (a.second->tieSym != b.second->tieSym)
                    return a.second->tieSym < b.second->tieSym;
                return *a.first < *b.first;
            });
        if (order.size() > opts.beamWidth)
            order.resize(opts.beamWidth);
        Beam pruned;
        for (const auto &[prefix, cand] : order)
            pruned.emplace(*prefix, *cand);
        beam = std::move(pruned);
    }

    std::vector<CtcHypothesis> out;
    for (const auto &[prefix, cand] : beam)
        out.push_back(CtcHypothesis{prefix, cand.score()});
    std::stable_sort(out.begin(), out.end(),
                     [](const CtcHypothesis &a, const CtcHypothesis &b) {
                         if (a.logProb != b.logProb)
                             return a.logProb > b.logProb;
                         return a.labels < b.labels;
                     });
    return out;
}

std::uint64_t
bitsOf(Real v)
{
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

nn::StackedRnn
buildInit(const nn::ModelSpec &spec, std::uint64_t seed)
{
    nn::StackedRnn model = nn::buildModel(spec);
    Rng rng(seed);
    model.initXavier(rng);
    return model;
}

} // namespace

// --- logAdd ---------------------------------------------------------------

TEST(LogAdd, MatchesDefinitionAndIsStable)
{
    const Real inf = std::numeric_limits<Real>::infinity();
    EXPECT_EQ(logAdd(-inf, -inf), -inf);
    EXPECT_EQ(logAdd(-inf, -2.5), -2.5);
    EXPECT_EQ(logAdd(-2.5, -inf), -2.5);

    Rng rng(5);
    for (int i = 0; i < 100; ++i) {
        const Real a = rng.uniform(-30.0, 5.0);
        const Real b = rng.uniform(-30.0, 5.0);
        const Real expect = std::log(std::exp(a) + std::exp(b));
        EXPECT_NEAR(logAdd(a, b), expect, 1e-12);
        EXPECT_EQ(logAdd(a, b), logAdd(b, a));
    }
    // No overflow far outside exp() range; exact doubling identity.
    EXPECT_NEAR(logAdd(1000.0, 1000.0), 1000.0 + std::log(2.0), 1e-12);
    EXPECT_NEAR(logAdd(-1000.0, -1000.0), -1000.0 + std::log(2.0),
                1e-12);
    EXPECT_NEAR(logAdd(1000.0, -1000.0), 1000.0, 1e-12);
}

// --- exhaustive beam vs brute-force alignment sums --------------------------

TEST(CtcBeam, ExhaustiveBeamMatchesBruteForceNoBlank)
{
    Rng rng(31);
    for (int iter = 0; iter < 20; ++iter) {
        const std::size_t t = 1 + rng.index(4);
        const std::size_t classes = 2 + rng.index(2);
        const nn::Sequence logits = randomLogits(t, classes, rng, 2.0);

        CtcDecodeOptions opts;
        opts.beamWidth = 1024; // >= every reachable prefix
        const auto hyps = ctcDecodeBeam(logits, opts);
        const auto expect = bruteForceMass(logits, /*blank=*/-1);

        ASSERT_EQ(hyps.size(), expect.size()) << "iter " << iter;
        Real total = 0.0;
        for (const auto &h : hyps) {
            const auto it = expect.find(h.labels);
            ASSERT_NE(it, expect.end());
            EXPECT_NEAR(std::exp(h.logProb), it->second, 1e-12);
            total += std::exp(h.logProb);
        }
        EXPECT_NEAR(total, 1.0, 1e-9);
    }
}

TEST(CtcBeam, ExhaustiveBeamMatchesBruteForceWithBlank)
{
    Rng rng(32);
    for (int iter = 0; iter < 20; ++iter) {
        const std::size_t t = 1 + rng.index(4);
        const std::size_t classes = 3 + rng.index(2);
        const nn::Sequence logits = randomLogits(t, classes, rng, 2.0);

        CtcDecodeOptions opts;
        opts.beamWidth = 1024;
        opts.blank = 0;
        const auto hyps = ctcDecodeBeam(logits, opts);
        const auto expect = bruteForceMass(logits, /*blank=*/0);

        ASSERT_EQ(hyps.size(), expect.size()) << "iter " << iter;
        Real total = 0.0;
        for (const auto &h : hyps) {
            for (int l : h.labels)
                EXPECT_NE(l, 0); // blank never reaches the output
            const auto it = expect.find(h.labels);
            ASSERT_NE(it, expect.end());
            EXPECT_NEAR(std::exp(h.logProb), it->second, 1e-12);
            total += std::exp(h.logProb);
        }
        EXPECT_NEAR(total, 1.0, 1e-9);
    }
}

TEST(CtcBeam, BlankSeparatedRepeatsSurviveCollapse)
{
    // Three frames, blank = 0: the path (1, blank, 1) maps to [1, 1]
    // while (1, 1, 1) maps to [1]. Make symbol 1 dominant and check
    // both prefixes exist with the right masses.
    nn::Sequence logits(3, Vector{0.0, 3.0});
    CtcDecodeOptions opts;
    opts.beamWidth = 64;
    opts.blank = 0;
    const auto hyps = ctcDecodeBeam(logits, opts);
    const auto expect = bruteForceMass(logits, 0);
    bool saw11 = false;
    for (const auto &h : hyps)
        if (h.labels == std::vector<int>{1, 1}) {
            saw11 = true;
            EXPECT_NEAR(std::exp(h.logProb),
                        expect.at({1, 1}), 1e-12);
        }
    EXPECT_TRUE(saw11);
    EXPECT_EQ(ctcDecode(logits, opts).labels, std::vector<int>{1});
}

TEST(CtcBeam, EmptyInputDecodesToEmptyHypothesis)
{
    const auto hyps = ctcDecodeBeam(nn::Sequence{}, {});
    ASSERT_EQ(hyps.size(), 1u);
    EXPECT_TRUE(hyps[0].labels.empty());
    EXPECT_EQ(hyps[0].logProb, 0.0);
}

// --- beam-1 == greedy parity -------------------------------------------------

TEST(CtcParity, BeamOneEqualsGreedyOnRandomLogits)
{
    Rng rng(41);
    for (int iter = 0; iter < 200; ++iter) {
        const std::size_t t = 1 + rng.index(30);
        const std::size_t classes = 2 + rng.index(9);
        const nn::Sequence logits =
            randomLogits(t, classes, rng, 3.0);
        EXPECT_EQ(ctcDecode(logits).labels, greedyLabels(logits))
            << "iter " << iter;
    }
}

TEST(CtcParity, BeamOneMatchesGreedyFirstMaxOnTies)
{
    // Exactly tied logits: greedy takes the first maximum; beam-1
    // must make the same choice, frame after frame.
    nn::Sequence logits;
    logits.push_back({1.0, 1.0, 1.0}); // all tied -> 0
    logits.push_back({0.0, 2.0, 2.0}); // 1 vs 2 tied -> 1
    logits.push_back({0.0, 2.0, 2.0}); // repeat merges
    logits.push_back({5.0, 5.0, 0.0}); // 0 vs 1 tied -> 0
    EXPECT_EQ(greedyLabels(logits), (std::vector<int>{0, 1, 0}));
    EXPECT_EQ(ctcDecode(logits).labels, greedyLabels(logits));
}

TEST(CtcParity, BeamOneEqualsGreedyOnAllThreeBackends)
{
    nn::ModelSpec spec;
    spec.type = nn::ModelType::Lstm;
    spec.inputDim = 16;
    spec.numClasses = 6;
    spec.layerSizes = {16, 16};
    spec.blockSizes = {4, 4};
    nn::StackedRnn model = buildInit(spec, 71);

    AsrDataConfig dcfg;
    dcfg.numPhones = 6;
    dcfg.featureDim = 16;
    dcfg.trainUtterances = 1;
    dcfg.testUtterances = 6;
    dcfg.minFrames = 15;
    dcfg.maxFrames = 25;
    const AsrDataset data = makeSyntheticAsr(dcfg);

    for (runtime::BackendKind kind :
         {runtime::BackendKind::Dense,
          runtime::BackendKind::CirculantFft,
          runtime::BackendKind::FixedPoint}) {
        runtime::CompileOptions copts;
        copts.backend = kind;
        const runtime::CompiledModel compiled =
            runtime::compile(model, copts);
        runtime::InferenceSession session = compiled.createSession();

        // Per-utterance label sequences: beam-1 decode of the logits
        // == greedy collapse of the session's own argmax predictions.
        for (const auto &ex : data.test) {
            const nn::Sequence logits = session.logits(ex.frames);
            const auto greedy =
                collapseRepeats(session.predictFrames(ex.frames));
            EXPECT_EQ(ctcDecode(logits).labels, greedy)
                << compiled.describe();
        }

        // Dataset-level PER, serial path: beam 1 == greedy scoring.
        PerEvalOptions serial;
        serial.workers = 0;
        PerEvalOptions beam1 = serial;
        beam1.beamWidth = 1;
        EXPECT_EQ(evaluatePer(compiled, data.test, serial),
                  evaluatePer(compiled, data.test, beam1))
            << compiled.describe();
    }
}

TEST(CtcParity, ServerBackedBeamPerMatchesSerial)
{
    // The PerEvalOptions::beamWidth wiring through the server path:
    // batched, multi-worker decode must score exactly like serial.
    nn::ModelSpec spec;
    spec.type = nn::ModelType::Gru;
    spec.inputDim = 8;
    spec.numClasses = 5;
    spec.layerSizes = {12};
    nn::StackedRnn model = buildInit(spec, 72);
    const runtime::CompiledModel compiled = runtime::compile(model);

    AsrDataConfig dcfg;
    dcfg.numPhones = 5;
    dcfg.featureDim = 8;
    dcfg.trainUtterances = 1;
    dcfg.testUtterances = 9;
    const AsrDataset data = makeSyntheticAsr(dcfg);

    for (std::size_t beam : {std::size_t(1), std::size_t(4)}) {
        PerEvalOptions serial;
        serial.workers = 0;
        serial.beamWidth = beam;
        PerEvalOptions served;
        served.workers = 3;
        served.maxBatch = 4;
        served.beamWidth = beam;
        EXPECT_EQ(evaluatePer(compiled, data.test, serial),
                  evaluatePer(compiled, data.test, served))
            << "beam " << beam;
    }
}

// --- beam-N vs beam-1 on a trained model ------------------------------------

TEST(CtcBeam, WiderBeamNeverRaisesPerOnTrainedModel)
{
    AsrDataConfig dcfg;
    dcfg.numPhones = 5;
    dcfg.featureDim = 8;
    dcfg.trainUtterances = 20;
    dcfg.testUtterances = 8;
    dcfg.minFrames = 16;
    dcfg.maxFrames = 24;
    const AsrDataset data = makeSyntheticAsr(dcfg);

    nn::ModelSpec spec;
    spec.type = nn::ModelType::Gru;
    spec.inputDim = 8;
    spec.numClasses = 5;
    spec.layerSizes = {16};
    nn::StackedRnn model = buildInit(spec, 73);
    nn::TrainConfig tc;
    tc.epochs = 8;
    tc.lr = 1e-2;
    nn::Trainer(model, tc).train(data.train);

    const runtime::CompiledModel compiled = runtime::compile(model);
    PerEvalOptions opts;
    opts.workers = 0;
    opts.beamWidth = 1;
    const Real per1 = evaluatePer(compiled, data.test, opts);
    for (std::size_t beam : {std::size_t(2), std::size_t(4),
                             std::size_t(8)}) {
        opts.beamWidth = beam;
        EXPECT_LE(evaluatePer(compiled, data.test, opts), per1 + 1e-12)
            << "beam " << beam;
    }
}

// --- fuzz: search invariants --------------------------------------------------

TEST(CtcFuzz, InvariantsHoldOnRandomLogits)
{
    Rng rng(91);
    for (int iter = 0; iter < 120; ++iter) {
        const std::size_t t = 1 + rng.index(12);
        const std::size_t classes = 2 + rng.index(6);
        const bool useBlank = rng.index(2) == 1 && classes >= 3;
        const nn::Sequence logits =
            randomLogits(t, classes, rng, 4.0);

        Real prevBest = -std::numeric_limits<Real>::infinity();
        for (std::size_t beam : {std::size_t(1), std::size_t(2),
                                 std::size_t(4), std::size_t(8)}) {
            CtcDecodeOptions opts;
            opts.beamWidth = beam;
            opts.blank = useBlank ? 0 : -1;
            const auto hyps = ctcDecodeBeam(logits, opts);

            ASSERT_FALSE(hyps.empty());
            ASSERT_LE(hyps.size(), beam);

            // No duplicate prefixes; output sorted best-first; every
            // hypothesis is a plausible probability.
            std::set<std::vector<int>> seen;
            Real mass = 0.0;
            for (std::size_t i = 0; i < hyps.size(); ++i) {
                EXPECT_TRUE(seen.insert(hyps[i].labels).second)
                    << "duplicate prefix, iter " << iter;
                if (i > 0) {
                    EXPECT_LE(hyps[i].logProb,
                              hyps[i - 1].logProb + 1e-12);
                }
                EXPECT_LE(hyps[i].logProb, 1e-9);
                if (useBlank) {
                    for (int l : hyps[i].labels)
                        EXPECT_NE(l, 0);
                }
                mass += std::exp(hyps[i].logProb);
            }
            EXPECT_LE(mass, 1.0 + 1e-9) << "iter " << iter;

            // Widening the beam never loses probability mass on the
            // best hypothesis (more alignments survive pruning).
            EXPECT_GE(hyps[0].logProb, prevBest - 1e-12)
                << "beam " << beam << " iter " << iter;
            prevBest = hyps[0].logProb;
        }
    }
}

// --- fuzz: flat beam == map-keyed oracle, bit for bit --------------------------

TEST(CtcFuzz, FlatBeamMatchesMapOracleBitForBit)
{
    // Widths 1/2/4/7, no blank or a blank at either end of the class
    // range, smooth logits and rounded ones (ties in scores and in
    // tie-break symbols), and 0- and 1-frame inputs.
    Rng rng(97);
    std::size_t cases = 0;
    for (int iter = 0; iter < 600; ++iter) {
        const std::size_t t = iter % 10 == 0 ? iter % 20 / 10
                                             : 1 + rng.index(24);
        const std::size_t classes = 2 + rng.index(9);
        nn::Sequence logits = randomLogits(t, classes, rng, 3.0);
        if (iter % 2 == 1)
            for (auto &frame : logits)
                for (Real &x : frame)
                    x = std::round(x);
        const int blanks[3] = {-1, 0, static_cast<int>(classes) - 1};
        for (int blank : blanks) {
            for (std::size_t beam : {std::size_t(1), std::size_t(2),
                                     std::size_t(4), std::size_t(7)}) {
                CtcDecodeOptions opts;
                opts.beamWidth = beam;
                opts.blank = blank;
                const auto got = ctcDecodeBeam(logits, opts);
                const auto want = mapBeamOracle(logits, opts);
                ASSERT_EQ(got.size(), want.size())
                    << "iter " << iter << " beam " << beam;
                for (std::size_t i = 0; i < got.size(); ++i) {
                    ASSERT_EQ(got[i].labels, want[i].labels)
                        << "iter " << iter << " beam " << beam
                        << " blank " << blank << " hyp " << i;
                    ASSERT_EQ(bitsOf(got[i].logProb),
                              bitsOf(want[i].logProb))
                        << "iter " << iter << " beam " << beam
                        << " blank " << blank << " hyp " << i;
                }
                ++cases;
            }
        }
    }
    EXPECT_EQ(cases, 600u * 3u * 4u);
}
