#include "runtime/compiled_model.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "base/logging.hh"
#include "runtime/compiled_layers.hh"

namespace ernn::runtime
{

void
Datapath::activate(nn::ActKind kind, Real *v, std::size_t n) const
{
    if (fixedPoint) {
        if (integerDatapath) {
            // Folded activate+post: inputs are on the value grid
            // (every activate call site posts first), so one lookup
            // per element replaces the segment search and the
            // follow-up post becomes an identity.
            const Vector &lut = kind == nn::ActKind::Sigmoid
                                    ? *sigmoidLut
                                    : *tanhLut;
            const std::int64_t off = -valueFormat.minQ();
            const auto last =
                static_cast<std::int64_t>(lut.size()) - 1;
            for (std::size_t i = 0; i < n; ++i) {
                const std::int64_t idx =
                    std::clamp(valueFormat.toQ(v[i]) + off,
                               std::int64_t{0}, last);
                v[i] = lut[static_cast<std::size_t>(idx)];
            }
            return;
        }
        const nn::PiecewiseLinear *table =
            kind == nn::ActKind::Sigmoid ? sigmoidTable.get()
                                         : tanhTable.get();
        if (table) {
            table->apply(v, n);
            return;
        }
    }
    nn::applyActivation(kind, v, n);
}

namespace detail
{

namespace
{

/**
 * The circulant weights of a kernel group when every member runs the
 * CirculantFFT backend with identical input geometry, else empty.
 * Such a group multiplies one shared operand (e.g. the four LSTM
 * gate matrices on x_t), so its segment FFTs are computed once and
 * shared — extending the paper's FFT decoupling across gates, which
 * the per-matrix training path cannot do.
 */
std::vector<const circulant::BlockCirculantMatrix *>
fusableGroup(std::initializer_list<const LinearKernel *> group)
{
    std::vector<const circulant::BlockCirculantMatrix *> out;
    for (const LinearKernel *k : group) {
        const auto *fft = dynamic_cast<const CirculantFftKernel *>(k);
        if (!fft)
            return {};
        const auto &w = fft->weight();
        if (!out.empty() &&
            (w.cols() != out.front()->cols() ||
             w.blockSize() != out.front()->blockSize()))
            return {};
        out.push_back(&w);
    }
    return out;
}

void
checkKernel(const LinearKernel *k, const char *name,
            std::size_t in_dim, std::size_t out_dim)
{
    ernn_assert(k, "compiled layer: missing kernel " << name);
    ernn_assert(k->inDim() == in_dim && k->outDim() == out_dim,
                "compiled layer: kernel " << name << " is "
                << k->outDim() << "x" << k->inDim() << ", expected "
                << out_dim << "x" << in_dim);
}

/**
 * Pool region of a fused step: the lane spectra of @p x (block
 * @p lbIn) into ks.fft and of @p rec (block @p lbRec) into
 * ks.fftRec, split over the two operands' concatenated segment list.
 * A null @p x transforms @p rec alone.
 */
void
fusedSpectra(KernelScratch &ks, const Matrix *x, std::size_t lbIn,
             const Matrix &rec, std::size_t lbRec)
{
    if (x)
        circulant::sizeSegmentSpectraBatch(*x, lbIn, ks.fft);
    circulant::sizeSegmentSpectraBatch(rec, lbRec, ks.fftRec);
    const std::size_t qIn = x ? ks.fft.laneSpecSegs : 0;
    ks.forEachPart(
        qIn + ks.fftRec.laneSpecSegs,
        [&](std::size_t part, std::size_t j0, std::size_t j1) {
            circulant::FftWorkspace &w = ks.fftPart(part);
            if (j0 < qIn)
                circulant::computeSegmentSpectraBatch(
                    *x, lbIn, j0, std::min(j1, qIn), ks.fft, w);
            if (j1 > qIn)
                circulant::computeSegmentSpectraBatch(
                    rec, lbRec, std::max(j0, qIn) - qIn, j1 - qIn,
                    ks.fftRec, w);
        });
}

/** Zero rows [r0, r1) of @p m. */
void
zeroRows(Matrix &m, std::size_t r0, std::size_t r1)
{
    std::fill(m.data() + r0 * m.cols(), m.data() + r1 * m.cols(), 0.0);
}

/** StepRows over a solo (Vector) or batched (Matrix) scratch. */
template <typename Scratch, typename Buf>
StepRows
stepRows(Scratch &s, const Buf &c, std::size_t lanes)
{
    return StepRows{lanes,         s.g1.data(), s.g2.data(),
                    s.g3.data(),   s.g4.data(), s.t1.data(),
                    s.t2.data(),   s.t3.data(), c.data(),
                    nullptr,       nullptr};
}

} // namespace

Datapath
makeDatapath(const CompileOptions &opts)
{
    Datapath dp;
    if (opts.backend != BackendKind::FixedPoint)
        return dp;
    dp.fixedPoint = true;
    // activationRange is a clamp bound, not an observed maximum:
    // values at the bound saturate by design, so the grid spends its
    // bits on resolution (Q3.8 at the 12-bit/range-8 design point,
    // not Q4.7).
    dp.valueFormat = quant::chooseClampFormat(opts.fixedPointBits,
                                              opts.activationRange);
    if (opts.activationSegments >= 2) {
        dp.sigmoidTable = std::make_shared<const nn::PiecewiseLinear>(
            nn::ActKind::Sigmoid, opts.activationSegments,
            opts.activationRange);
        dp.tanhTable = std::make_shared<const nn::PiecewiseLinear>(
            nn::ActKind::Tanh, opts.activationSegments,
            opts.activationRange);
    }

    dp.integerDatapath = !opts.fixedPointEmulation &&
                         opts.fixedPointBits >= 2 &&
                         opts.fixedPointBits <= 16;
    if (dp.integerDatapath) {
        // One folded activate+post output per value-grid code,
        // computed through the very objects the emulation evaluates —
        // equality with the oracle is by construction, not by proof.
        const auto build = [&dp](nn::ActKind kind,
                                 const nn::PiecewiseLinear *table) {
            const quant::FixedPointFormat &vf = dp.valueFormat;
            auto lut = std::make_shared<Vector>();
            lut->reserve(
                static_cast<std::size_t>(vf.maxQ() - vf.minQ() + 1));
            for (std::int64_t q = vf.minQ(); q <= vf.maxQ(); ++q) {
                const Real x = vf.fromQ(q);
                const Real a =
                    table ? table->eval(x)
                          : (kind == nn::ActKind::Sigmoid
                                 ? nn::sigmoid(x)
                                 : nn::tanhAct(x));
                lut->push_back(vf.quantize(a));
            }
            return lut;
        };
        dp.sigmoidLut = build(nn::ActKind::Sigmoid,
                              dp.sigmoidTable.get());
        dp.tanhLut = build(nn::ActKind::Tanh, dp.tanhTable.get());
    }
    return dp;
}

// --- CompiledLstmLayer -------------------------------------------------

CompiledLstmLayer::CompiledLstmLayer(LstmParts parts)
    : p_(std::move(parts))
{
    const std::size_t in = p_.cfg.inputSize;
    const std::size_t h = p_.cfg.hiddenSize;
    const std::size_t out = p_.cfg.outputSize();
    checkKernel(p_.wix.get(), "wix", in, h);
    checkKernel(p_.wfx.get(), "wfx", in, h);
    checkKernel(p_.wcx.get(), "wcx", in, h);
    checkKernel(p_.wox.get(), "wox", in, h);
    checkKernel(p_.wir.get(), "wir", out, h);
    checkKernel(p_.wfr.get(), "wfr", out, h);
    checkKernel(p_.wcr.get(), "wcr", out, h);
    checkKernel(p_.wor.get(), "wor", out, h);
    if (p_.cfg.projectionSize) {
        checkKernel(p_.wym.get(), "wym", h, out);
    } else {
        ernn_assert(!p_.wym,
                    "compiled lstm: projection kernel without "
                    "projectionSize");
    }
    ernn_assert(p_.bi.size() == h && p_.bf.size() == h &&
                p_.bc.size() == h && p_.bo.size() == h,
                "compiled lstm: bias size mismatch");
    if (p_.cfg.peephole)
        ernn_assert(p_.wic.size() == h && p_.wfc.size() == h &&
                    p_.woc.size() == h,
                    "compiled lstm: peephole size mismatch");

    fusedInput_ = fusableGroup(
        {p_.wix.get(), p_.wfx.get(), p_.wcx.get(), p_.wox.get()});
    fusedRec_ = fusableGroup(
        {p_.wir.get(), p_.wfr.get(), p_.wcr.get(), p_.wor.get()});
}

std::size_t
CompiledLstmLayer::inputSize() const
{
    return p_.cfg.inputSize;
}

std::size_t
CompiledLstmLayer::outputSize() const
{
    return p_.cfg.outputSize();
}

std::size_t
CompiledLstmLayer::storedParams() const
{
    std::size_t n = p_.wix->storedParams() + p_.wfx->storedParams() +
                    p_.wcx->storedParams() + p_.wox->storedParams() +
                    p_.wir->storedParams() + p_.wfr->storedParams() +
                    p_.wcr->storedParams() + p_.wor->storedParams();
    if (p_.wym)
        n += p_.wym->storedParams();
    n += p_.bi.size() + p_.bf.size() + p_.bc.size() + p_.bo.size();
    n += p_.wic.size() + p_.wfc.size() + p_.woc.size();
    return n;
}

void
CompiledLstmLayer::initState(LayerState &state) const
{
    state.h.assign(p_.cfg.outputSize(), 0.0);
    state.c.assign(p_.cfg.hiddenSize, 0.0);
}

void
CompiledLstmLayer::initScratch(LayerScratch &s) const
{
    const std::size_t h = p_.cfg.hiddenSize;
    s.g1.assign(h, 0.0);
    s.g2.assign(h, 0.0);
    s.g3.assign(h, 0.0);
    s.g4.assign(h, 0.0);
    s.t1.assign(h, 0.0);
    s.t2.assign(h, 0.0);
    s.t3.assign(h, 0.0);
}

void
CompiledLstmLayer::step(const Vector &x, LayerState &state, Vector &y,
                        LayerScratch &s, KernelScratch &ks,
                        const Datapath &dp) const
{
    // Gate matvec contributions first: i/f/g/o share x (and
    // y_{t-1}), so the fused CirculantFFT path computes each
    // operand's segment FFTs once for all four gates (q FFTs
    // instead of 4q).
    Vector *gates[4] = {&s.g1, &s.g2, &s.g3, &s.g4};
    if (!fusedInput_.empty()) {
        for (Vector *g : gates)
            std::fill(g->begin(), g->end(), 0.0);
        circulant::computeSegmentSpectra(
            x, fusedInput_.front()->blockSize(), ks.fft);
        for (std::size_t k = 0; k < 4; ++k)
            fusedInput_[k]->matvecAccFromSpectra(
                ks.fft.segSpectra, *gates[k], ks.fft);
    } else {
        p_.wix->apply(x, s.g1, ks);
        dp.post(s.g1);
        p_.wfx->apply(x, s.g2, ks);
        dp.post(s.g2);
        p_.wcx->apply(x, s.g3, ks);
        dp.post(s.g3);
        p_.wox->apply(x, s.g4, ks);
        dp.post(s.g4);
    }
    if (!fusedRec_.empty()) {
        circulant::computeSegmentSpectra(
            state.h, fusedRec_.front()->blockSize(), ks.fft);
        for (std::size_t k = 0; k < 4; ++k)
            fusedRec_[k]->matvecAccFromSpectra(
                ks.fft.segSpectra, *gates[k], ks.fft);
    } else {
        const LinearKernel *recs[4] = {p_.wir.get(), p_.wfr.get(),
                                       p_.wcr.get(), p_.wor.get()};
        for (std::size_t k = 0; k < 4; ++k) {
            recs[k]->apply(state.h, s.t1, ks);
            dp.post(s.t1);
            addInPlace(*gates[k], s.t1);
        }
    }

    StepRows v = stepRows(s, state.c, 1);
    if (!p_.wym) {
        v.y = y.data();
        v.h = state.h.data();
    }
    cellRows(v, 0, p_.cfg.hiddenSize, dp);

    // Projected output (Eqn. 1g), then commit: c_t and y_t become
    // the next step's history.
    if (p_.wym) {
        p_.wym->apply(s.t3, y, ks);
        dp.post(y);
        std::copy(y.begin(), y.end(), state.h.begin());
    }
    std::swap(state.c, s.t2);
}

void
CompiledLstmLayer::cellRows(const StepRows &v, std::size_t r0,
                            std::size_t r1, const Datapath &dp) const
{
    const std::size_t lanes = v.lanes;
    const std::size_t off = r0 * lanes;
    const std::size_t n = (r1 - r0) * lanes;
    const bool peep = p_.cfg.peephole;

    // One gate: g += peephole . cell (Eqn. 1a/1b/1e), g += bias, then
    // post / activate / post.
    const auto gate = [&](Real *g, const Vector *w, const Real *cell,
                          const Vector &bias, nn::ActKind act) {
        for (std::size_t r = r0; r < r1; ++r) {
            Real *gr = g + r * lanes;
            if (w) {
                const Real wr = (*w)[r];
                const Real *cr = cell + r * lanes;
                for (std::size_t l = 0; l < lanes; ++l)
                    gr[l] += wr * cr[l];
            }
            const Real b = bias[r];
            for (std::size_t l = 0; l < lanes; ++l)
                gr[l] += b;
        }
        dp.post(g + off, n);
        dp.activate(act, g + off, n);
        dp.post(g + off, n);
    };

    // Input and forget gates read c_{t-1}; the cell input has no
    // peephole (Eqn. 1c).
    gate(v.g1, peep ? &p_.wic : nullptr, v.c, p_.bi,
         nn::ActKind::Sigmoid);
    gate(v.g2, peep ? &p_.wfc : nullptr, v.c, p_.bf,
         nn::ActKind::Sigmoid);
    gate(v.g3, nullptr, nullptr, p_.bc, p_.cfg.cellInputAct);

    // Cell state: c = f.c' + g.i (Eqn. 1d) into t2.
    for (std::size_t k = off; k < off + n; ++k) {
        Real c = 0.0;
        c += v.g2[k] * v.c[k];
        c += v.g3[k] * v.g1[k];
        v.t2[k] = c;
    }
    dp.post(v.t2 + off, n);

    // Output gate (peephole reads the *current* c, Eqn. 1e).
    gate(v.g4, peep ? &p_.woc : nullptr, v.t2, p_.bo,
         nn::ActKind::Sigmoid);

    // Cell output m = o . h(c) (Eqn. 1f) into t3.
    Real *m = v.t3 + off;
    std::copy(v.t2 + off, v.t2 + off + n, m);
    dp.activate(p_.cfg.outputAct, m, n);
    dp.post(m, n);
    for (std::size_t k = 0; k < n; ++k)
        m[k] *= v.g4[off + k];
    dp.post(m, n);

    // Without a projection m_t is the output and the next history.
    if (v.y)
        std::copy(m, m + n, v.y + off);
    if (v.h)
        std::copy(m, m + n, v.h + off);
}

void
CompiledLstmLayer::initBatchState(LayerBatchState &state,
                                  std::size_t lanes) const
{
    state.h.reshape(p_.cfg.outputSize(), lanes);
    state.c.reshape(p_.cfg.hiddenSize, lanes);
}

void
CompiledLstmLayer::initBatchScratch(LayerBatchScratch &s,
                                    std::size_t lanes) const
{
    const std::size_t h = p_.cfg.hiddenSize;
    s.g1.reshape(h, lanes);
    s.g2.reshape(h, lanes);
    s.g3.reshape(h, lanes);
    s.g4.reshape(h, lanes);
    s.t1.reshape(h, lanes);
    s.t2.reshape(h, lanes);
    s.t3.reshape(h, lanes);
}

void
CompiledLstmLayer::stepBatch(const Matrix &x, LayerBatchState &state,
                             Matrix &y, LayerBatchScratch &s,
                             KernelScratch &ks,
                             const Datapath &dp) const
{
    // The batched mirror of step(): the same operations in the same
    // order, over feature x lanes matrices instead of vectors, so
    // every lane column computes the exact bits the solo path would.
    // Rows are independent once the gate pre-activations exist, so
    // every pool part runs the whole cell update of its own rows.
    const std::size_t h = p_.cfg.hiddenSize;
    StepRows v = stepRows(s, state.c, x.cols());
    if (!p_.wym) {
        v.y = y.data();
        v.h = state.h.data();
    }
    Matrix *gates[4] = {&s.g1, &s.g2, &s.g3, &s.g4};
    if (!fusedInput_.empty() && !fusedRec_.empty()) {
        // Region 1: the segment FFTs of x and y_{t-1}, shared by the
        // four gates. Region 2: per range of gate rows, every gate's
        // input-then-recurrent spectra MAC + IFFT and then the cell
        // update. Ranges cover whole blocks of the larger block size.
        const std::size_t lbIn = fusedInput_.front()->blockSize();
        const std::size_t lbRec = fusedRec_.front()->blockSize();
        fusedSpectra(ks, &x, lbIn, state.h, lbRec);
        const std::size_t group = std::max(lbIn, lbRec);
        ks.forEachPart(h / group, [&](std::size_t part, std::size_t g0,
                                      std::size_t g1) {
            circulant::FftWorkspace &w = ks.fftPart(part);
            const std::size_t r0 = g0 * group, r1 = g1 * group;
            for (std::size_t k = 0; k < 4; ++k) {
                zeroRows(*gates[k], r0, r1);
                fusedInput_[k]->matvecAccFromSpectraBatch(
                    *gates[k], ks.fft, r0 / lbIn, r1 / lbIn, w);
                fusedRec_[k]->matvecAccFromSpectraBatch(
                    *gates[k], ks.fftRec, r0 / lbRec, r1 / lbRec, w);
            }
            cellRows(v, r0, r1, dp);
        });
    } else {
        // Each kernel call is one GEMM-shaped pass over the weights
        // shared by every lane, split over the pool by the kernel.
        const LinearKernel *ins[4] = {p_.wix.get(), p_.wfx.get(),
                                      p_.wcx.get(), p_.wox.get()};
        const LinearKernel *recs[4] = {p_.wir.get(), p_.wfr.get(),
                                       p_.wcr.get(), p_.wor.get()};
        for (std::size_t k = 0; k < 4; ++k) {
            ins[k]->applyBatch(x, *gates[k], ks);
            dp.post(gates[k]->raw());
        }
        for (std::size_t k = 0; k < 4; ++k) {
            recs[k]->applyBatch(state.h, s.t1, ks);
            dp.post(s.t1.raw());
            addInPlace(gates[k]->raw(), s.t1.raw());
        }
        ks.forEachPart(h, [&](std::size_t, std::size_t r0,
                              std::size_t r1) {
            cellRows(v, r0, r1, dp);
        });
    }

    // Projected output (Eqn. 1g) on the pooled kernel, then commit.
    if (p_.wym) {
        p_.wym->applyBatch(s.t3, y, ks);
        dp.post(y.raw());
        std::copy(y.raw().begin(), y.raw().end(),
                  state.h.raw().begin());
    }
    std::swap(state.c, s.t2);
}

std::vector<const LinearKernel *>
CompiledLstmLayer::kernels() const
{
    std::vector<const LinearKernel *> out{
        p_.wix.get(), p_.wfx.get(), p_.wcx.get(), p_.wox.get(),
        p_.wir.get(), p_.wfr.get(), p_.wcr.get(), p_.wor.get()};
    if (p_.wym)
        out.push_back(p_.wym.get());
    return out;
}

// --- CompiledGruLayer --------------------------------------------------

CompiledGruLayer::CompiledGruLayer(GruParts parts)
    : p_(std::move(parts))
{
    const std::size_t in = p_.cfg.inputSize;
    const std::size_t h = p_.cfg.hiddenSize;
    checkKernel(p_.wzx.get(), "wzx", in, h);
    checkKernel(p_.wrx.get(), "wrx", in, h);
    checkKernel(p_.wcx.get(), "wcx", in, h);
    checkKernel(p_.wzc.get(), "wzc", h, h);
    checkKernel(p_.wrc.get(), "wrc", h, h);
    checkKernel(p_.wcc.get(), "wcc", h, h);
    ernn_assert(p_.bz.size() == h && p_.br.size() == h &&
                p_.bc.size() == h,
                "compiled gru: bias size mismatch");

    fusedInput_ = fusableGroup(
        {p_.wzx.get(), p_.wrx.get(), p_.wcx.get()});
    fusedRec_ = fusableGroup(
        {p_.wzc.get(), p_.wrc.get(), p_.wcc.get()});
}

std::size_t
CompiledGruLayer::inputSize() const
{
    return p_.cfg.inputSize;
}

std::size_t
CompiledGruLayer::outputSize() const
{
    return p_.cfg.hiddenSize;
}

std::size_t
CompiledGruLayer::storedParams() const
{
    return p_.wzx->storedParams() + p_.wrx->storedParams() +
           p_.wcx->storedParams() + p_.wzc->storedParams() +
           p_.wrc->storedParams() + p_.wcc->storedParams() +
           p_.bz.size() + p_.br.size() + p_.bc.size();
}

void
CompiledGruLayer::initState(LayerState &state) const
{
    state.h.clear(); // the GRU's output *is* its cell state
    state.c.assign(p_.cfg.hiddenSize, 0.0);
}

void
CompiledGruLayer::initScratch(LayerScratch &s) const
{
    const std::size_t h = p_.cfg.hiddenSize;
    s.g1.assign(h, 0.0);
    s.g2.assign(h, 0.0);
    s.g3.assign(h, 0.0);
    s.g4.clear();
    s.t1.assign(h, 0.0);
    s.t2.assign(h, 0.0);
    s.t3.assign(h, 0.0);
}

void
CompiledGruLayer::step(const Vector &x, LayerState &state, Vector &y,
                       LayerScratch &s, KernelScratch &ks,
                       const Datapath &dp) const
{
    const std::size_t h = p_.cfg.hiddenSize;

    // Gate matvec contributions: z/r/c~ share x, z/r share the
    // previous state, so the fused CirculantFFT path computes
    // each shared operand's segment FFTs once.
    Vector *gates[3] = {&s.g1, &s.g2, &s.g3};
    if (!fusedInput_.empty()) {
        for (Vector *g : gates)
            std::fill(g->begin(), g->end(), 0.0);
        circulant::computeSegmentSpectra(
            x, fusedInput_.front()->blockSize(), ks.fft);
        for (std::size_t k = 0; k < 3; ++k)
            fusedInput_[k]->matvecAccFromSpectra(
                ks.fft.segSpectra, *gates[k], ks.fft);
    } else {
        p_.wzx->apply(x, s.g1, ks);
        dp.post(s.g1);
        p_.wrx->apply(x, s.g2, ks);
        dp.post(s.g2);
        p_.wcx->apply(x, s.g3, ks);
        dp.post(s.g3);
    }
    if (!fusedRec_.empty()) {
        circulant::computeSegmentSpectra(
            state.c, fusedRec_.front()->blockSize(), ks.fft);
        for (std::size_t k = 0; k < 2; ++k)
            fusedRec_[k]->matvecAccFromSpectra(
                ks.fft.segSpectra, *gates[k], ks.fft);
    } else {
        p_.wzc->apply(state.c, s.t1, ks);
        dp.post(s.t1);
        addInPlace(s.g1, s.t1);
        p_.wrc->apply(state.c, s.t1, ks);
        dp.post(s.t1);
        addInPlace(s.g2, s.t1);
    }

    StepRows v = stepRows(s, state.c, 1);
    v.y = y.data();
    gateRows(v, 0, h, dp);
    p_.wcc->apply(s.t2, s.t1, ks);
    blendRows(v, 0, h, dp);
    std::swap(state.c, s.t3);
}

void
CompiledGruLayer::gateRows(const StepRows &v, std::size_t r0,
                           std::size_t r1, const Datapath &dp) const
{
    const std::size_t lanes = v.lanes;
    const std::size_t off = r0 * lanes;
    const std::size_t n = (r1 - r0) * lanes;

    // Update (Eqn. 2a) and reset (Eqn. 2b) gates.
    for (auto [g, bias] : {std::pair{v.g1, &p_.bz},
                           std::pair{v.g2, &p_.br}}) {
        for (std::size_t r = r0; r < r1; ++r) {
            const Real b = (*bias)[r];
            for (std::size_t l = 0; l < lanes; ++l)
                g[r * lanes + l] += b;
        }
        dp.post(g + off, n);
        dp.activate(nn::ActKind::Sigmoid, g + off, n);
        dp.post(g + off, n);
    }

    // The reset-gated history r . c' into t2, Wcc's operand.
    for (std::size_t k = off; k < off + n; ++k) {
        Real rc = 0.0;
        rc += v.g2[k] * v.c[k];
        v.t2[k] = rc;
    }
    dp.post(v.t2 + off, n);
}

void
CompiledGruLayer::blendRows(const StepRows &v, std::size_t r0,
                            std::size_t r1, const Datapath &dp) const
{
    const std::size_t lanes = v.lanes;
    const std::size_t off = r0 * lanes;
    const std::size_t n = (r1 - r0) * lanes;

    // Candidate from the reset-gated history (Eqn. 2c); t1 holds
    // Wcc (r . c').
    dp.post(v.t1 + off, n);
    for (std::size_t r = r0; r < r1; ++r) {
        const Real b = p_.bc[r];
        for (std::size_t k = r * lanes; k < (r + 1) * lanes; ++k) {
            v.g3[k] += v.t1[k];
            v.g3[k] += b;
        }
    }
    dp.post(v.g3 + off, n);
    dp.activate(p_.cfg.candidateAct, v.g3 + off, n);
    dp.post(v.g3 + off, n);

    // State blend (Eqn. 2d): c = (1-z).c' + z.c~ into t3 — also the
    // layer output.
    for (std::size_t k = off; k < off + n; ++k)
        v.t3[k] = (1.0 - v.g1[k]) * v.c[k] + v.g1[k] * v.g3[k];
    dp.post(v.t3 + off, n);
    std::copy(v.t3 + off, v.t3 + off + n, v.y + off);
}

void
CompiledGruLayer::initBatchState(LayerBatchState &state,
                                 std::size_t lanes) const
{
    state.h.reshape(0, 0); // the GRU's output *is* its cell state
    state.c.reshape(p_.cfg.hiddenSize, lanes);
}

void
CompiledGruLayer::initBatchScratch(LayerBatchScratch &s,
                                   std::size_t lanes) const
{
    const std::size_t h = p_.cfg.hiddenSize;
    s.g1.reshape(h, lanes);
    s.g2.reshape(h, lanes);
    s.g3.reshape(h, lanes);
    s.g4.reshape(0, 0);
    s.t1.reshape(h, lanes);
    s.t2.reshape(h, lanes);
    s.t3.reshape(h, lanes);
}

void
CompiledGruLayer::stepBatch(const Matrix &x, LayerBatchState &state,
                            Matrix &y, LayerBatchScratch &s,
                            KernelScratch &ks, const Datapath &dp) const
{
    // Batched mirror of step(): identical operation order per lane
    // column, GEMM-shaped kernel calls across lanes, and the
    // elementwise gate work split over the pool by rows. Wcc reads
    // r . c' over every row, so the step has a barrier there.
    const std::size_t h = p_.cfg.hiddenSize;
    StepRows v = stepRows(s, state.c, x.cols());
    v.y = y.data();
    if (!fusedInput_.empty() && !fusedRec_.empty()) {
        // FFT(x, c') -> z/r/c~-input rows and r . c' -> FFT(r . c')
        // -> Wcc rows, candidate and blend: four pool regions.
        const std::size_t lbIn = fusedInput_.front()->blockSize();
        const std::size_t lbRec = fusedRec_.front()->blockSize();
        fusedSpectra(ks, &x, lbIn, state.c, lbRec);
        Matrix *gates[3] = {&s.g1, &s.g2, &s.g3};
        const std::size_t group = std::max(lbIn, lbRec);
        ks.forEachPart(h / group, [&](std::size_t part, std::size_t g0,
                                      std::size_t g1) {
            circulant::FftWorkspace &w = ks.fftPart(part);
            const std::size_t r0 = g0 * group, r1 = g1 * group;
            for (std::size_t k = 0; k < 3; ++k) {
                zeroRows(*gates[k], r0, r1);
                fusedInput_[k]->matvecAccFromSpectraBatch(
                    *gates[k], ks.fft, r0 / lbIn, r1 / lbIn, w);
            }
            for (std::size_t k = 0; k < 2; ++k)
                fusedRec_[k]->matvecAccFromSpectraBatch(
                    *gates[k], ks.fftRec, r0 / lbRec, r1 / lbRec, w);
            gateRows(v, r0, r1, dp);
        });
        fusedSpectra(ks, nullptr, 0, s.t2, lbRec);
        ks.forEachPart(h / lbRec, [&](std::size_t part, std::size_t i0,
                                      std::size_t i1) {
            zeroRows(s.t1, i0 * lbRec, i1 * lbRec);
            fusedRec_[2]->matvecAccFromSpectraBatch(
                s.t1, ks.fftRec, i0, i1, ks.fftPart(part));
            blendRows(v, i0 * lbRec, i1 * lbRec, dp);
        });
    } else {
        p_.wzx->applyBatch(x, s.g1, ks);
        dp.post(s.g1.raw());
        p_.wrx->applyBatch(x, s.g2, ks);
        dp.post(s.g2.raw());
        p_.wcx->applyBatch(x, s.g3, ks);
        dp.post(s.g3.raw());
        p_.wzc->applyBatch(state.c, s.t1, ks);
        dp.post(s.t1.raw());
        addInPlace(s.g1.raw(), s.t1.raw());
        p_.wrc->applyBatch(state.c, s.t1, ks);
        dp.post(s.t1.raw());
        addInPlace(s.g2.raw(), s.t1.raw());
        ks.forEachPart(h, [&](std::size_t, std::size_t r0,
                              std::size_t r1) {
            gateRows(v, r0, r1, dp);
        });
        p_.wcc->applyBatch(s.t2, s.t1, ks);
        ks.forEachPart(h, [&](std::size_t, std::size_t r0,
                              std::size_t r1) {
            blendRows(v, r0, r1, dp);
        });
    }
    std::swap(state.c, s.t3);
}

std::vector<const LinearKernel *>
CompiledGruLayer::kernels() const
{
    return {p_.wzx.get(), p_.wrx.get(), p_.wcx.get(),
            p_.wzc.get(), p_.wrc.get(), p_.wcc.get()};
}

} // namespace detail

namespace
{

/** Shared compile-time context: kernel selection + tensor freezing. */
struct CompileContext
{
    const CompileOptions &opts;
    bool fixedPoint;

    std::unique_ptr<LinearKernel> kernel(const nn::LinearOp &op) const
    {
        return KernelRegistry::instance().make(
            resolveBackend(opts.backend, op), op, opts);
    }

    /** Copy a bias-like tensor, rounding it per-tensor when the
     *  FixedPoint backend is active (quant::quantizeParams treats
     *  every bias as its own view). */
    Vector freeze(const Vector &v) const
    {
        Vector out = v;
        if (fixedPoint && !out.empty())
            quant::quantizeWithRangeAnalysis(out,
                                             opts.fixedPointBits);
        return out;
    }
};

detail::LstmParts
freezeLstm(const nn::LstmLayer &src, const CompileContext &ctx)
{
    detail::LstmParts p;
    p.cfg = src.config();
    p.wix = ctx.kernel(src.wix());
    p.wfx = ctx.kernel(src.wfx());
    p.wcx = ctx.kernel(src.wcx());
    p.wox = ctx.kernel(src.wox());
    p.wir = ctx.kernel(src.wir());
    p.wfr = ctx.kernel(src.wfr());
    p.wcr = ctx.kernel(src.wcr());
    p.wor = ctx.kernel(src.wor());
    if (src.wym())
        p.wym = ctx.kernel(*src.wym());
    p.bi = ctx.freeze(src.bi());
    p.bf = ctx.freeze(src.bf());
    p.bc = ctx.freeze(src.bc());
    p.bo = ctx.freeze(src.bo());
    if (p.cfg.peephole) {
        p.wic = ctx.freeze(src.wic());
        p.wfc = ctx.freeze(src.wfc());
        p.woc = ctx.freeze(src.woc());
    }
    return p;
}

detail::GruParts
freezeGru(const nn::GruLayer &src, const CompileContext &ctx)
{
    detail::GruParts p;
    p.cfg = src.config();
    p.wzx = ctx.kernel(src.wzx());
    p.wrx = ctx.kernel(src.wrx());
    p.wcx = ctx.kernel(src.wcx());
    p.wzc = ctx.kernel(src.wzc());
    p.wrc = ctx.kernel(src.wrc());
    p.wcc = ctx.kernel(src.wcc());
    p.bz = ctx.freeze(src.bz());
    p.br = ctx.freeze(src.br());
    p.bc = ctx.freeze(src.bc());
    return p;
}

} // namespace

std::size_t
CompiledModel::inputSize() const
{
    ernn_assert(!layers_.empty(), "empty compiled model");
    return layers_.front()->inputSize();
}

std::size_t
CompiledModel::storedParams() const
{
    std::size_t n = 0;
    for (const auto &l : layers_)
        n += l->storedParams();
    if (classifier_)
        n += classifier_->storedParams() + classifierBias_.size();
    return n;
}

std::string
CompiledModel::describe() const
{
    std::ostringstream os;
    os << "compiled[" << backendKindName(options_.backend) << "]";
    for (const auto &l : layers_)
        os << " " << l->kindName() << l->outputSize();
    os << " -> classes" << numClasses();
    if (datapath_.fixedPoint)
        os << " @" << options_.fixedPointBits << "-bit"
           << (datapath_.integerDatapath ? " int16" : " f64-emulated");
    return os.str();
}

CompiledModel
compile(const nn::StackedRnn &model, const CompileOptions &opts)
{
    ernn_assert(model.numLayers() > 0, "compile: empty model");
    ernn_assert(model.numClasses() > 0,
                "compile: classifier not attached");

    CompiledModel out;
    out.options_ = opts;
    out.datapath_ = detail::makeDatapath(opts);

    const CompileContext ctx{opts, out.datapath_.fixedPoint};

    for (std::size_t i = 0; i < model.numLayers(); ++i) {
        const nn::RnnLayer &src = model.layer(i);
        if (const auto *lstm =
                dynamic_cast<const nn::LstmLayer *>(&src)) {
            out.layers_.push_back(
                std::make_unique<detail::CompiledLstmLayer>(
                    freezeLstm(*lstm, ctx)));
        } else if (const auto *gru =
                       dynamic_cast<const nn::GruLayer *>(&src)) {
            out.layers_.push_back(
                std::make_unique<detail::CompiledGruLayer>(
                    freezeGru(*gru, ctx)));
        } else {
            ernn_panic("compile: unknown layer kind '"
                       << src.kindName() << "'");
        }
    }

    out.classifier_ = ctx.kernel(model.classifier());
    out.classifierBias_ = ctx.freeze(model.classifierBias());
    ernn_assert(out.classifier_->outDim() == out.numClasses(),
                "compile: classifier shape mismatch");
    return out;
}

std::shared_ptr<const CompiledModel>
compileShared(const nn::StackedRnn &model, const CompileOptions &opts)
{
    // Friend access: the move constructor is private so arbitrary
    // callers cannot scatter half-moved models, but hoisting the
    // freshly compiled value onto the heap is exactly its purpose.
    return std::shared_ptr<const CompiledModel>(
        new CompiledModel(compile(model, opts)));
}

} // namespace ernn::runtime
