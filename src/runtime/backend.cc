#include "runtime/backend.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "base/logging.hh"
#include "runtime/thread_pool.hh"
#include "tensor/simd.hh"

namespace ernn::runtime
{

std::string
backendKindName(BackendKind kind)
{
    switch (kind) {
      case BackendKind::Auto:
        return "auto";
      case BackendKind::Dense:
        return "dense";
      case BackendKind::CirculantFft:
        return "circulant-fft";
      case BackendKind::FixedPoint:
        return "fixed-point";
    }
    return "unknown";
}

// --- LinearKernel (generic batched fallback) ---------------------------

void
LinearKernel::applyBatch(const Matrix &x, Matrix &y,
                         KernelScratch &scratch) const
{
    ernn_assert(x.rows() == inDim() && y.rows() == outDim() &&
                x.cols() == y.cols(),
                "applyBatch: x is " << x.rows() << "x" << x.cols()
                << ", y is " << y.rows() << "x" << y.cols()
                << " for a " << outDim() << "x" << inDim()
                << " kernel");
    const std::size_t lanes = x.cols();
    scratch.laneIn.resize(inDim());
    scratch.laneOut.resize(outDim());
    for (std::size_t l = 0; l < lanes; ++l) {
        for (std::size_t r = 0; r < x.rows(); ++r)
            scratch.laneIn[r] = x.at(r, l);
        // The gather buffer is reused across lanes under a stable
        // address, so any input-code staging from the previous lane
        // must be retired before apply() sees the new contents.
        ++scratch.xqEpoch;
        apply(scratch.laneIn, scratch.laneOut, scratch);
        for (std::size_t r = 0; r < y.rows(); ++r)
            y.at(r, l) = scratch.laneOut[r];
    }
}

namespace
{

/**
 * f32 input staging for dense f32 kernels: the input narrowed to
 * float once, epoch-scoped and address-keyed like the fixed-point
 * code staging, so the gate kernels sharing one step's input convert
 * it once.
 */
const float *
stageInputF32(const Real *src, std::size_t count,
              KernelScratch &scratch)
{
    if (scratch.xfSource != src || scratch.xfSize != count ||
        scratch.xfStampedEpoch != scratch.xqEpoch) {
        scratch.xf.resize(count);
        for (std::size_t i = 0; i < count; ++i)
            scratch.xf[i] = static_cast<float>(src[i]);
        scratch.xfSource = src;
        scratch.xfSize = count;
        scratch.xfStampedEpoch = scratch.xqEpoch;
    }
    return scratch.xf.data();
}

} // namespace

// --- DenseKernel -------------------------------------------------------

DenseKernel::DenseKernel(Matrix w, DensePrecision prec)
    : w_(std::move(w)), wd_(w_.data()), rows_(w_.rows()),
      cols_(w_.cols()), f32_(prec == DensePrecision::F32)
{
    if (f32_) {
        wf_.resize(rows_ * cols_);
        for (std::size_t i = 0; i < wf_.size(); ++i)
            wf_[i] = static_cast<float>(wd_[i]);
    }
}

DenseKernel::DenseKernel(const Real *w, std::size_t rows,
                         std::size_t cols)
    : wd_(w), rows_(rows), cols_(cols), borrowed_(true)
{
    ernn_assert(w != nullptr && rows > 0 && cols > 0,
                "DenseKernel: null or empty borrowed weights");
}

const Matrix &
DenseKernel::weight() const
{
    std::call_once(materialize_, [this] {
        if (!borrowed_)
            return;
        Matrix m(rows_, cols_);
        std::copy(wd_, wd_ + rows_ * cols_, m.data());
        w_ = std::move(m);
    });
    return w_;
}

void
DenseKernel::apply(const Vector &x, Vector &y,
                   KernelScratch &scratch) const
{
    ernn_assert(y.size() == rows_, "DenseKernel: y presize");
    if (f32_) {
        // The one-lane GEMM runs each row as a single ascending
        // float chain — the same chain a batch lane runs, so solo
        // and batch stay bit-identical within f32.
        const float *xf = stageInputF32(x.data(), cols_, scratch);
        simd::gemmF32Fn()(wf_.data(), rows_, cols_, xf, y.data(), 1);
        return;
    }
    std::fill(y.begin(), y.end(), 0.0);
    matvecAccRaw(wd_, rows_, cols_, x, y);
}

void
DenseKernel::applyBatch(const Matrix &x, Matrix &y,
                        KernelScratch &scratch) const
{
    ernn_assert(x.rows() == cols_ && y.rows() == rows_ &&
                x.cols() == y.cols(),
                "DenseKernel: batch shape mismatch");
    const std::size_t lanes = x.cols();
    if (lanes == 1) {
        // A one-column matrix is a vector; the solo matvec avoids
        // the lane-tile overhead.
        apply(x.raw(), y.raw(), scratch);
        return;
    }

    if (f32_) {
        // Stage the float input serially, then split output rows
        // across the pool: every row's chains are untouched by the
        // partition, so 1 thread and N threads agree bitwise.
        const float *xf =
            stageInputF32(x.data(), cols_ * lanes, scratch);
        const simd::GemmF32Fn gemm = simd::gemmF32Fn();
        const float *wf = wf_.data();
        Real *yd = y.data();
        const std::size_t cols = cols_;
        auto rows = [&](std::size_t r0, std::size_t r1) {
            gemm(wf + r0 * cols, r1 - r0, cols, xf,
                 yd + r0 * lanes, lanes);
        };
        if (scratch.pool)
            scratch.pool->parallelFor(rows_, rows);
        else
            rows(0, rows_);
        return;
    }

    y.setZero();
    const simd::GemmF64Fn gemm = simd::gemmAccF64Fn();
    const Real *xd = x.data();
    Real *yd = y.data();
    const std::size_t cols = cols_;
    auto rows = [&](std::size_t r0, std::size_t r1) {
        gemm(wd_ + r0 * cols, r1 - r0, cols, xd, yd + r0 * lanes,
             lanes);
    };
    if (scratch.pool)
        scratch.pool->parallelFor(rows_, rows);
    else
        rows(0, rows_);
}

// --- CirculantFftKernel ------------------------------------------------

CirculantFftKernel::CirculantFftKernel(
    circulant::BlockCirculantMatrix w)
    : w_(std::move(w))
{
    // Generator FFTs are part of the frozen artifact: pay them here,
    // never on the serving path.
    w_.warmSpectra();
}

void
CirculantFftKernel::apply(const Vector &x, Vector &y,
                          KernelScratch &scratch) const
{
    ernn_assert(y.size() == w_.rows(), "CirculantFftKernel: y presize");
    std::fill(y.begin(), y.end(), 0.0);
    w_.matvecAcc(x, y, scratch.fft);
}

void
CirculantFftKernel::applyBatch(const Matrix &x, Matrix &y,
                               KernelScratch &scratch) const
{
    // Block size 1 runs the naive path in apply(); keep the batched
    // form on the same arithmetic via the per-lane fallback.
    if (w_.blockSize() < 2) {
        LinearKernel::applyBatch(x, y, scratch);
        return;
    }
    ernn_assert(x.rows() == w_.cols() && y.rows() == w_.rows() &&
                x.cols() == y.cols(),
                "CirculantFftKernel: batch shape mismatch");
    if (x.cols() == 1) {
        // A one-column matrix is a vector; skip the lane staging.
        apply(x.raw(), y.raw(), scratch);
        return;
    }
    // Size the shared spectra table serially, then transform disjoint
    // segment ranges and accumulate disjoint block-row ranges on the
    // pool, each part in its own staging: every output row keeps its
    // one accumulation chain, so any thread count gives these bits.
    const std::size_t lb = w_.blockSize();
    const std::size_t lanes = x.cols();
    circulant::sizeSegmentSpectraBatch(x, lb, scratch.fft);
    scratch.forEachPart(
        w_.blockCols(),
        [&](std::size_t part, std::size_t j0, std::size_t j1) {
            circulant::computeSegmentSpectraBatch(
                x, lb, j0, j1, scratch.fft, scratch.fftPart(part));
        });
    scratch.forEachPart(
        w_.blockRows(),
        [&](std::size_t part, std::size_t i0, std::size_t i1) {
            std::fill(y.data() + i0 * lb * lanes,
                      y.data() + i1 * lb * lanes, 0.0);
            w_.matvecAccFromSpectraBatch(y, scratch.fft, i0, i1,
                                         scratch.fftPart(part));
        });
}

// --- FixedPointKernel --------------------------------------------------

FixedPointKernel::FixedPointKernel(const Matrix &w, int bits)
    : dense_(w), rows_(dense_.rows()), cols_(dense_.cols())
{
    format_ = quant::quantizeWithRangeAnalysis(dense_.raw(), bits);
    packWeights();
}

FixedPointKernel::FixedPointKernel(
    const circulant::BlockCirculantMatrix &w, int bits)
    : circulant_(true), circ_(w), rows_(circ_.rows()),
      cols_(circ_.cols()), block_(circ_.blockSize())
{
    format_ = quant::quantizeWithRangeAnalysis(circ_.raw(), bits);
    circ_.invalidateSpectra();
    packWeights();
}

FixedPointKernel::FixedPointKernel(Matrix quantized,
                                   quant::FixedPointFormat fmt)
    : format_(fmt), dense_(std::move(quantized)),
      rows_(dense_.rows()), cols_(dense_.cols())
{
    packWeights();
}

FixedPointKernel::FixedPointKernel(
    circulant::BlockCirculantMatrix quantized,
    quant::FixedPointFormat fmt)
    : format_(fmt), circulant_(true), circ_(std::move(quantized)),
      rows_(circ_.rows()), cols_(circ_.cols()),
      block_(circ_.blockSize())
{
    circ_.invalidateSpectra();
    packWeights();
}

FixedPointKernel::FixedPointKernel(Borrowed,
                                   const std::int16_t *codes,
                                   std::size_t rows,
                                   std::size_t cols,
                                   quant::FixedPointFormat fmt)
    : format_(fmt), qwData_(codes), qwCount_(rows * cols),
      rows_(rows), cols_(cols), packed_(true), borrowed_(true)
{
    ernn_assert(codes != nullptr && rows > 0 && cols > 0,
                "FixedPointKernel: null or empty borrowed codes");
    ernn_assert(format_.totalBits >= 2 && format_.totalBits <= 16,
                "FixedPointKernel: borrowed codes need a packed "
                "width, got " << format_.totalBits << " bits");
}

FixedPointKernel::FixedPointKernel(Borrowed,
                                   const std::int16_t *doubledCodes,
                                   std::size_t rows,
                                   std::size_t cols,
                                   std::size_t block,
                                   quant::FixedPointFormat fmt)
    : format_(fmt), circulant_(true), qwData_(doubledCodes),
      rows_(rows), cols_(cols), block_(block), packed_(true),
      borrowed_(true)
{
    ernn_assert(doubledCodes != nullptr && block > 0 &&
                rows % block == 0 && cols % block == 0,
                "FixedPointKernel: bad borrowed circulant geometry "
                << rows << "x" << cols << " block " << block);
    ernn_assert(format_.totalBits >= 2 && format_.totalBits <= 16,
                "FixedPointKernel: borrowed codes need a packed "
                "width, got " << format_.totalBits << " bits");
    qwCount_ = (rows_ / block_) * (cols_ / block_) * 2 * block_;
}

void
FixedPointKernel::ensureF64() const
{
    std::call_once(materialize_, [this] {
        if (!borrowed_)
            return;
        // Decode the grid values back out of the codes. Exact: every
        // code maps to one grid point, so a materialize -> re-pack
        // round trip reproduces the codes bit-for-bit.
        if (!circulant_) {
            Matrix m(rows_, cols_);
            for (std::size_t i = 0; i < rows_ * cols_; ++i)
                m.data()[i] = format_.fromQ(qwData_[i]);
            dense_ = std::move(m);
            return;
        }
        // The doubled layout repeats each generator twice; the first
        // block_ entries of each 2*block_ slice are the generator.
        circulant::BlockCirculantMatrix c(rows_, cols_, block_);
        const std::size_t blocks =
            (rows_ / block_) * (cols_ / block_);
        for (std::size_t b = 0; b < blocks; ++b)
            for (std::size_t j = 0; j < block_; ++j)
                c.raw()[b * block_ + j] =
                    format_.fromQ(qwData_[b * 2 * block_ + j]);
        c.invalidateSpectra();
        circ_ = std::move(c);
    });
}

void
FixedPointKernel::packWeights()
{
    packed_ = false;
    qw_.clear();
    qwData_ = nullptr;
    qwCount_ = 0;
    if (format_.totalBits < 2 || format_.totalBits > 16 ||
        format_.fracBits < 0 || format_.fracBits > 62)
        return;

    const std::vector<Real> &vals =
        circulant_ ? circ_.raw() : dense_.raw();
    const Real lo = static_cast<Real>(format_.minQ());
    const Real hi = static_cast<Real>(format_.maxQ());

    // Codes in storage order first; verify while converting. The
    // quantizing constructors produce on-grid values by definition;
    // only a crafted artifact can fail here, and it falls back to
    // the emulation instead of dying.
    std::vector<std::int16_t> codes(vals.size());
    for (std::size_t i = 0; i < vals.size(); ++i) {
        const Real scaled = std::ldexp(vals[i], format_.fracBits);
        if (!(scaled >= lo && scaled <= hi))
            return;
        const auto q = static_cast<std::int64_t>(std::llrint(scaled));
        if (format_.fromQ(q) != vals[i])
            return; // off the quantization grid
        codes[i] = static_cast<std::int16_t>(q);
    }

    if (!circulant_) {
        qw_ = std::move(codes);
    } else {
        // Doubled generators: gd[k] = gen[k % Lb] for k in [0, 2Lb),
        // so block row r of W (W[r][c] = gen[(c - r) mod Lb]) is the
        // contiguous slice gd[Lb - r .. 2Lb - r).
        const std::size_t lb = circ_.blockSize();
        const std::size_t blocks =
            circ_.blockRows() * circ_.blockCols();
        qw_.resize(blocks * 2 * lb);
        for (std::size_t b = 0; b < blocks; ++b) {
            const std::int16_t *g = codes.data() + b * lb;
            std::int16_t *gd = qw_.data() + b * 2 * lb;
            std::copy(g, g + lb, gd);
            std::copy(g, g + lb, gd + lb);
        }
    }
    qwData_ = qw_.data();
    qwCount_ = qw_.size();
    packed_ = true;
}

const Matrix &
FixedPointKernel::denseWeight() const
{
    ernn_assert(!circulant_,
                "FixedPointKernel: dense view of circulant storage");
    ensureF64();
    return dense_;
}

const circulant::BlockCirculantMatrix &
FixedPointKernel::circulantWeight() const
{
    ernn_assert(circulant_,
                "FixedPointKernel: circulant view of dense storage");
    ensureF64();
    return circ_;
}

std::size_t
FixedPointKernel::inDim() const
{
    return cols_;
}

std::size_t
FixedPointKernel::outDim() const
{
    return rows_;
}

std::size_t
FixedPointKernel::storedParams() const
{
    return circulant_ ? rows_ * cols_ / block_ : rows_ * cols_;
}

const std::vector<Real> &
FixedPointKernel::quantizedWeights() const
{
    ensureF64();
    return circulant_ ? circ_.raw() : dense_.raw();
}

void
FixedPointKernel::apply(const Vector &x, Vector &y,
                        KernelScratch &scratch) const
{
    ernn_assert(y.size() == outDim(), "FixedPointKernel: y presize");
    if (packed_ && scratch.valueFormat.totalBits >= 2 &&
        scratch.valueFormat.totalBits <= 16) {
        applyInteger(x, y, scratch);
        return;
    }
    applyEmulated(x, y);
}

void
FixedPointKernel::applyBatch(const Matrix &x, Matrix &y,
                             KernelScratch &scratch) const
{
    if (packed_ && scratch.valueFormat.totalBits >= 2 &&
        scratch.valueFormat.totalBits <= 16) {
        applyIntegerBatch(x, y, scratch);
        return;
    }
    // Emulation oracle: route each lane through the exact solo f64
    // path (the fallback calls apply(), which lands in applyEmulated
    // whenever the integer path is off).
    LinearKernel::applyBatch(x, y, scratch);
}

void
FixedPointKernel::applyEmulated(const Vector &x, Vector &y) const
{
    ernn_assert(y.size() == outDim(), "FixedPointKernel: y presize");
    ensureF64();
    std::fill(y.begin(), y.end(), 0.0);
    if (circulant_) {
        // Time-domain MACs, as the PE array evaluates a circulant
        // block in fixed point.
        circ_.matvecAcc(x, y, circulant::MatvecMode::Naive);
    } else {
        dense_.matvecAcc(x, y);
    }
}

namespace
{

/**
 * Solo-path input-code staging. The session keeps every kernel
 * input on the value grid (frames included), so the conversion is
 * exact — and the staging is reused when the same vector feeds
 * several kernels within one step (epoch-scoped, see
 * KernelScratch::xq). The batched path stages its own lane-major
 * int16 transpose (KernelScratch::xqh) instead.
 */
const std::int16_t *
stageInputCodes(const Real *src, std::size_t n,
                KernelScratch &scratch)
{
    const quant::FixedPointFormat &vf = scratch.valueFormat;
    if (scratch.xqSource != src || scratch.xqSize != n ||
        scratch.xqStampedEpoch != scratch.xqEpoch) {
        scratch.xq.resize(n);
        // Codes fit int16 because the session pins every kernel
        // input to the <= 16-bit value grid — the same argument the
        // batched staging relies on.
        for (std::size_t i = 0; i < n; ++i)
            scratch.xq[i] = static_cast<std::int16_t>(vf.toQ(src[i]));
        scratch.xqSource = src;
        scratch.xqSize = n;
        scratch.xqStampedEpoch = scratch.xqEpoch;
    }
    return scratch.xq.data();
}

} // namespace

void
FixedPointKernel::applyInteger(const Vector &x, Vector &y,
                               KernelScratch &scratch) const
{
    const quant::FixedPointFormat &vf = scratch.valueFormat;
    const int shift = format_.fracBits;

    const std::size_t n = x.size();
    const std::int16_t *xq = stageInputCodes(x.data(), n, scratch);
    const std::size_t chunk =
        simd::safeChunkLen(format_.totalBits, vf.totalBits);
    const simd::DotCodesFn dot = simd::dotCodesFn();

    if (!circulant_) {
        // Row-blocked matvec: the vector levels share each x load
        // across four weight rows (the single-row dot is load-port
        // bound). Same per-row sums, so same bits at every level.
        scratch.yq.resize(rows_);
        simd::matvecCodesFn()(qwData_, rows_, n, xq,
                              scratch.yq.data(), chunk);
        for (std::size_t r = 0; r < rows_; ++r)
            y[r] = vf.fromQ(vf.requantize(scratch.yq[r], shift));
        return;
    }

    const std::size_t lb = block_;
    const std::size_t p = rows_ / lb;
    const std::size_t q = cols_ / lb;
    for (std::size_t i = 0; i < p; ++i) {
        for (std::size_t r = 0; r < lb; ++r) {
            std::int64_t acc = 0;
            for (std::size_t j = 0; j < q; ++j) {
                // Contiguous row slice of the doubled generator.
                const std::int16_t *g =
                    qwData_ + (i * q + j) * 2 * lb + (lb - r);
                acc += dot(g, xq + j * lb, lb, chunk);
            }
            y[i * lb + r] = vf.fromQ(vf.requantize(acc, shift));
        }
    }
}

void
FixedPointKernel::applyIntegerBatch(const Matrix &x, Matrix &y,
                                    KernelScratch &scratch) const
{
    ernn_assert(x.rows() == inDim() && y.rows() == outDim() &&
                x.cols() == y.cols(),
                "FixedPointKernel: batch shape mismatch");
    const quant::FixedPointFormat &vf = scratch.valueFormat;
    const int shift = format_.fracBits;
    const std::size_t n = x.rows();
    const std::size_t lanes = x.cols();

    // A single lane is exactly the solo path; skip the transpose.
    if (lanes == 1) {
        applyInteger(x.raw(), y.raw(), scratch);
        return;
    }

    // Stage the matrix as lane-major int16 codes (epoch-scoped like
    // the solo staging; the gate kernels sharing this input within
    // one step reuse the same transpose). Codes fit int16 because
    // the session pins every input to the <= 16-bit value grid.
    if (scratch.xqhSource != x.data() ||
        scratch.xqhSize != n * lanes ||
        scratch.xqhStampedEpoch != scratch.xqEpoch) {
        scratch.xqh.resize(n * lanes);
        const Real *xd = x.data();
        for (std::size_t l = 0; l < lanes; ++l) {
            std::int16_t *dst = scratch.xqh.data() + l * n;
            for (std::size_t c = 0; c < n; ++c)
                dst[c] = static_cast<std::int16_t>(
                    vf.toQ(xd[c * lanes + l]));
        }
        scratch.xqhSource = x.data();
        scratch.xqhSize = n * lanes;
        scratch.xqhStampedEpoch = scratch.xqEpoch;
    }
    const std::int16_t *xqh = scratch.xqh.data();
    const std::size_t chunk = simd::safeChunkLen(format_.totalBits,
                                                 vf.totalBits);
    const simd::DotCodesFn dot = simd::dotCodesFn();
    Real *yd = y.data();

    if (!circulant_) {
        // Staging done, the rest is embarrassingly parallel over
        // output rows: each row writes its own y slice, so the pool
        // split changes nothing about the arithmetic.
        auto rowRange = [&](std::size_t r0, std::size_t r1) {
            for (std::size_t r = r0; r < r1; ++r) {
                // The weight row stays cache-hot across every lane:
                // the batch streams the weights once per call, not
                // per lane.
                const std::int16_t *row = qwData_ + r * n;
                Real *yr = yd + r * lanes;
                for (std::size_t l = 0; l < lanes; ++l)
                    yr[l] = vf.fromQ(vf.requantize(
                        dot(row, xqh + l * n, n, chunk), shift));
            }
        };
        if (scratch.pool)
            scratch.pool->parallelFor(rows_, rowRange);
        else
            rowRange(0, rows_);
        return;
    }

    const std::size_t lb = block_;
    const std::size_t p = rows_ / lb;
    const std::size_t q = cols_ / lb;
    // Parallel over block rows: block row i owns y rows
    // [i*lb, (i+1)*lb), so ranges of i write disjoint output.
    auto blockRange = [&](std::size_t i0, std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i) {
            for (std::size_t r = 0; r < lb; ++r) {
                Real *yr = yd + (i * lb + r) * lanes;
                for (std::size_t l = 0; l < lanes; ++l) {
                    const std::int16_t *xh = xqh + l * n;
                    std::int64_t acc = 0;
                    for (std::size_t j = 0; j < q; ++j) {
                        // Contiguous row slice of the doubled
                        // generator against the lane's contiguous
                        // segment codes.
                        const std::int16_t *g =
                            qwData_ + (i * q + j) * 2 * lb + (lb - r);
                        acc += dot(g, xh + j * lb, lb, chunk);
                    }
                    yr[l] = vf.fromQ(vf.requantize(acc, shift));
                }
            }
        }
    };
    if (scratch.pool)
        scratch.pool->parallelFor(p, blockRange);
    else
        blockRange(0, p);
}

// --- Registry ----------------------------------------------------------

KernelRegistry::KernelRegistry()
{
    registerFactory(
        "dense",
        [](const nn::LinearOp &op, const CompileOptions &opts)
            -> std::unique_ptr<LinearKernel> {
            if (const auto *circ = op.circulantWeight())
                return std::make_unique<DenseKernel>(
                    circ->toDense(), opts.densePrecision);
            const auto *w = op.denseWeight();
            ernn_assert(w, "dense backend: operator exposes no weight");
            return std::make_unique<DenseKernel>(
                *w, opts.densePrecision);
        });

    registerFactory(
        "circulant-fft",
        [](const nn::LinearOp &op, const CompileOptions &)
            -> std::unique_ptr<LinearKernel> {
            const auto *circ = op.circulantWeight();
            ernn_assert(circ, "circulant-fft backend: operator has "
                              "no circulant weight");
            return std::make_unique<CirculantFftKernel>(*circ);
        });

    registerFactory(
        "fixed-point",
        [](const nn::LinearOp &op, const CompileOptions &opts)
            -> std::unique_ptr<LinearKernel> {
            if (const auto *circ = op.circulantWeight())
                return std::make_unique<FixedPointKernel>(
                    *circ, opts.fixedPointBits);
            const auto *w = op.denseWeight();
            ernn_assert(w, "fixed-point backend: operator exposes no "
                           "weight");
            return std::make_unique<FixedPointKernel>(
                *w, opts.fixedPointBits);
        });
}

KernelRegistry &
KernelRegistry::instance()
{
    static KernelRegistry registry;
    return registry;
}

void
KernelRegistry::registerFactory(const std::string &name,
                                KernelFactory fn)
{
    ernn_assert(fn, "KernelRegistry: null factory for " << name);
    factories_[name] = std::move(fn);
}

bool
KernelRegistry::has(const std::string &name) const
{
    return factories_.count(name) != 0;
}

std::vector<std::string>
KernelRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(factories_.size());
    for (const auto &kv : factories_)
        out.push_back(kv.first);
    return out;
}

std::unique_ptr<LinearKernel>
KernelRegistry::make(const std::string &name, const nn::LinearOp &op,
                     const CompileOptions &opts) const
{
    auto it = factories_.find(name);
    ernn_assert(it != factories_.end(),
                "KernelRegistry: unknown backend '" << name << "'");
    auto kernel = it->second(op, opts);
    ernn_assert(kernel, "KernelRegistry: factory '" << name
                << "' returned nothing");
    ernn_assert(kernel->inDim() == op.inDim() &&
                kernel->outDim() == op.outDim(),
                "KernelRegistry: kernel '" << name
                << "' shape mismatch");
    return kernel;
}

std::string
resolveBackend(BackendKind kind, const nn::LinearOp &op)
{
    switch (kind) {
      case BackendKind::Dense:
        return "dense";
      case BackendKind::FixedPoint:
        return "fixed-point";
      case BackendKind::Auto:
      case BackendKind::CirculantFft:
        return op.circulantWeight() ? "circulant-fft" : "dense";
    }
    return "dense";
}

} // namespace ernn::runtime
