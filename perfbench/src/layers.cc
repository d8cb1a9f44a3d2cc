#include "layers.hh"

#include <algorithm>
#include <map>
#include <memory>

#include "base/random.hh"
#include "nn/linear_op.hh"
#include "runtime/thread_pool.hh"

namespace perfbench
{

using namespace ernn;

double
microsPerCall(const std::function<void()> &call)
{
    call();
    auto t0 = Clock::now();
    call();
    const double one = secondsBetween(t0, Clock::now());
    const auto n = static_cast<std::size_t>(
        std::clamp(0.02 / std::max(one, 1e-9), 1.0, 100000.0));
    std::vector<double> reps;
    for (int r = 0; r < 5; ++r) {
        t0 = Clock::now();
        for (std::size_t i = 0; i < n; ++i)
            call();
        reps.push_back(1e6 * secondsBetween(t0, Clock::now()) /
                       static_cast<double>(n));
    }
    return median(reps);
}

namespace
{

/** Random activations, pinned to the value grid on fixed point. */
Matrix
randomInput(std::size_t rows, std::size_t lanes,
            const runtime::Datapath &dp, Rng &rng)
{
    Matrix x(rows, lanes);
    rng.fillNormal(x.raw(), 0.5);
    dp.post(x.raw());
    return x;
}

/** "circulant-fft" -> "circulant_fft" (metric-name form). */
std::string
metricKey(std::string backend)
{
    std::replace(backend.begin(), backend.end(), '-', '_');
    return backend;
}

/** Aggregate of every kernel of one backend. */
struct KernelTotals
{
    double micros = 0.0; //!< summed per-call medians
    double macs = 0.0;   //!< summed dense-equivalent MACs per call
    double bytes = 0.0;  //!< summed bytes per call
    std::size_t kernels = 0;
};

} // namespace

void
replayCompiledModel(const runtime::CompiledModel &model,
                    std::size_t lanes, std::size_t computeThreads,
                    Result &out)
{
    const runtime::Datapath &dp = model.datapath();
    std::unique_ptr<runtime::ThreadPool> pool;
    if (computeThreads > 1)
        pool = std::make_unique<runtime::ThreadPool>(computeThreads);
    runtime::KernelScratch ks;
    ks.pool = pool.get();
    if (dp.integerDatapath)
        ks.valueFormat = dp.valueFormat;
    Rng rng(7);

    std::map<std::string, KernelTotals> totals;
    for (std::size_t i = 0; i < model.numLayers(); ++i) {
        const runtime::CompiledLayer &layer = model.layer(i);
        runtime::LayerBatchState state;
        runtime::LayerBatchScratch scratch;
        layer.initBatchState(state, lanes);
        layer.initBatchScratch(scratch, lanes);
        const Matrix x = randomInput(layer.inputSize(), lanes, dp, rng);
        Matrix y(layer.outputSize(), lanes);
        out.set("runtime.layer." + std::to_string(i) + ".us_per_step",
                microsPerCall([&] {
                    ++ks.xqEpoch;
                    layer.stepBatch(x, state, y, scratch, ks, dp);
                }),
                "us");

        for (const runtime::LinearKernel *k : layer.kernels()) {
            if (k->backendName() == "dense")
                continue;
            const Matrix kx = randomInput(k->inDim(), lanes, dp, rng);
            Matrix ky(k->outDim(), lanes);
            KernelTotals &t = totals[metricKey(k->backendName())];
            t.micros += microsPerCall([&] {
                ++ks.xqEpoch; // every call stages its own input
                k->applyBatch(kx, ky, ks);
            });
            t.macs += static_cast<double>(k->outDim() * k->inDim() * lanes);
            // Computed, not measured: stored weights at their storage
            // width plus one read of the input and one write of the
            // output activations (f64).
            const double weightBytes = dp.integerDatapath ? 2.0 : 8.0;
            t.bytes += weightBytes * static_cast<double>(k->storedParams()) +
                       8.0 * static_cast<double>(
                                 (k->inDim() + k->outDim()) * lanes);
            ++t.kernels;
        }
    }

    const runtime::LinearKernel &cls = model.classifier();
    const Matrix cx = randomInput(cls.inDim(), lanes, dp, rng);
    Matrix cy(cls.outDim(), lanes);
    out.set("runtime.classifier.us_per_step", microsPerCall([&] {
                ++ks.xqEpoch;
                cls.applyBatch(cx, cy, ks);
            }),
            "us");

    for (const auto &[key, t] : totals) {
        const std::string p = "runtime.kernel." + key;
        out.set(p + ".us_per_call",
                t.micros / static_cast<double>(t.kernels), "us");
        out.set(p + ".gmacs", t.macs / (t.micros * 1e3), "GMAC/s");
        out.set(p + ".mac_per_byte", t.macs / t.bytes, "MAC/B");
    }
}

void
replayCirculantLinear(std::size_t rows, std::size_t cols,
                      std::size_t block, std::size_t lanes, Result &out)
{
    nn::CirculantLinear op(rows, cols, block);
    Rng rng(11);
    op.initXavier(rng);
    Matrix x(cols, lanes), dy(rows, lanes), y(rows, lanes),
        dx(cols, lanes);
    rng.fillNormal(x.raw(), 0.5);
    rng.fillNormal(dy.raw(), 0.1);
    out.set("nn.linear.circulant.fwd_us", microsPerCall([&] {
                y.setZero();
                op.forwardBatchAcc(x, y);
            }),
            "us");
    out.set("nn.linear.circulant.bwd_us", microsPerCall([&] {
                dx.setZero();
                op.backwardBatch(x, dy, &dx);
            }),
            "us");
}

} // namespace perfbench
