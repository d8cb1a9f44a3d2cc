#include "circulant/block_circulant.hh"

#include <cmath>

#include "base/logging.hh"
#include "tensor/simd.hh"

namespace ernn::circulant
{

namespace
{

/**
 * acc += w ⊙ x over packed real-spectrum bins (plain product, used by
 * the transposed matvec, which is a circular convolution).
 */
void
accumulatePlainProduct(fft::CVector &acc, const Complex *w,
                       const fft::CVector &x)
{
    simd::plainMacLanesFn()(
        reinterpret_cast<Real *>(acc.data()),
        reinterpret_cast<const Real *>(w),
        reinterpret_cast<const Real *>(x.data()), 1, acc.size());
    if (fft::OpCount::enabled())
        fft::OpCount::addEltwiseMults(2 + 4 * (acc.size() - 2));
}

/**
 * Lane-contiguous form of accumulatePlainProduct: acc and x hold
 * [lane][bin] runs, w is one generator spectrum shared by every lane.
 * Per lane the arithmetic and order match the scalar form exactly.
 */
void
accumulatePlainProductLanes(Complex *acc, const Complex *w,
                            const Complex *x, std::size_t lanes,
                            std::size_t bins)
{
    // std::complex<Real> is layout-compatible with Real[2]; the SIMD
    // core runs the scalar per-bin arithmetic at every level.
    simd::plainMacLanesFn()(reinterpret_cast<Real *>(acc),
                            reinterpret_cast<const Real *>(w),
                            reinterpret_cast<const Real *>(x), lanes,
                            bins);
    if (fft::OpCount::enabled())
        fft::OpCount::addEltwiseMults(lanes * (2 + 4 * (bins - 2)));
}

} // namespace

BlockCirculantMatrix::BlockCirculantMatrix(std::size_t rows,
                                           std::size_t cols,
                                           std::size_t block_size)
    : rows_(rows), cols_(cols), blockSize_(block_size)
{
    ernn_assert(block_size >= 1, "block size must be positive");
    ernn_assert(fft::isPowerOfTwo(block_size),
                "block size " << block_size << " is not a power of two");
    ernn_assert(rows % block_size == 0,
                "rows " << rows << " not divisible by block size "
                        << block_size);
    ernn_assert(cols % block_size == 0,
                "cols " << cols << " not divisible by block size "
                        << block_size);
    blockRows_ = rows / block_size;
    blockCols_ = cols / block_size;
    gen_.assign(blockRows_ * blockCols_ * blockSize_, 0.0);
}

BlockCirculantMatrix
BlockCirculantMatrix::fromDense(const Matrix &dense,
                                std::size_t block_size)
{
    BlockCirculantMatrix out(dense.rows(), dense.cols(), block_size);
    const std::size_t lb = block_size;
    const Real inv = 1.0 / static_cast<Real>(lb);
    for (std::size_t i = 0; i < out.blockRows_; ++i) {
        for (std::size_t j = 0; j < out.blockCols_; ++j) {
            Real *g = out.generator(i, j);
            for (std::size_t d = 0; d < lb; ++d) {
                Real sum = 0.0;
                for (std::size_t r = 0; r < lb; ++r) {
                    sum += dense.at(i * lb + r,
                                    j * lb + (r + d) % lb);
                }
                g[d] = sum * inv;
            }
        }
    }
    return out;
}

Matrix
BlockCirculantMatrix::toDense() const
{
    Matrix out(rows_, cols_);
    const std::size_t lb = blockSize_;
    for (std::size_t i = 0; i < blockRows_; ++i) {
        for (std::size_t j = 0; j < blockCols_; ++j) {
            const Real *g = generator(i, j);
            for (std::size_t r = 0; r < lb; ++r)
                for (std::size_t c = 0; c < lb; ++c)
                    out.at(i * lb + r, j * lb + c) =
                        g[(c + lb - r) % lb];
        }
    }
    return out;
}

Real
BlockCirculantMatrix::compressionRatio() const
{
    if (gen_.empty())
        return 1.0;
    return static_cast<Real>(rows_ * cols_) /
           static_cast<Real>(paramCount());
}

Real *
BlockCirculantMatrix::generator(std::size_t i, std::size_t j)
{
    return gen_.data() + (i * blockCols_ + j) * blockSize_;
}

const Real *
BlockCirculantMatrix::generator(std::size_t i, std::size_t j) const
{
    return gen_.data() + (i * blockCols_ + j) * blockSize_;
}

void
BlockCirculantMatrix::initXavier(Rng &rng)
{
    // Match the dense-equivalent variance: each generator entry is
    // replicated Lb times in the dense matrix, but fan-in/out are
    // those of the dense matrix.
    const Real bound = std::sqrt(6.0 / static_cast<Real>(rows_ + cols_));
    rng.fillUniform(gen_, bound);
    invalidateSpectra();
}

void
BlockCirculantMatrix::invalidateSpectra()
{
    spectraValid_ = false;
}

void
BlockCirculantMatrix::ensureSpectra() const
{
    if (spectraValid_)
        return;
    const std::size_t bins = blockSize_ / 2 + 1;
    spectra_.assign(blockRows_ * blockCols_ * bins, Complex(0, 0));
    Vector tmp(blockSize_);
    for (std::size_t b = 0; b < blockRows_ * blockCols_; ++b) {
        const Real *g = gen_.data() + b * blockSize_;
        tmp.assign(g, g + blockSize_);
        const fft::CVector spec = fft::rfft(tmp);
        std::copy(spec.begin(), spec.end(),
                  spectra_.begin() + b * bins);
    }
    spectraValid_ = true;
}

Vector
BlockCirculantMatrix::matvec(const Vector &x, MatvecMode mode) const
{
    Vector y(rows_, 0.0);
    matvecAcc(x, y, mode);
    return y;
}

void
BlockCirculantMatrix::matvecAcc(const Vector &x, Vector &y,
                                MatvecMode mode) const
{
    // The signature without scratch reuses a thread-local workspace,
    // so repeated matvecs stay allocation-free.
    thread_local FftWorkspace ws;
    matvecAcc(x, y, ws, mode);
}

void
BlockCirculantMatrix::matvecAcc(const Vector &x, Vector &y,
                                FftWorkspace &ws, MatvecMode mode) const
{
    ernn_assert(x.size() == cols_, "matvec: x size " << x.size()
                << " != cols " << cols_);
    ernn_assert(y.size() == rows_, "matvec: y size mismatch");
    const std::size_t lb = blockSize_;

    if (mode == MatvecMode::Naive || lb == 1) {
        for (std::size_t i = 0; i < blockRows_; ++i) {
            for (std::size_t j = 0; j < blockCols_; ++j) {
                const Real *g = generator(i, j);
                for (std::size_t r = 0; r < lb; ++r) {
                    Real s = 0.0;
                    for (std::size_t c = 0; c < lb; ++c)
                        s += g[(c + lb - r) % lb] * x[j * lb + c];
                    y[i * lb + r] += s;
                }
            }
        }
        return;
    }

    // FFT(x_j) once per input segment (decoupling, Fig. 7): q FFTs,
    // then frequency-domain accumulation and p IFFTs.
    computeSegmentSpectra(x, lb, ws);
    matvecAccFromSpectra(ws.segSpectra, y, ws);
}

void
computeSegmentSpectra(const Vector &x, std::size_t block_size,
                      FftWorkspace &ws)
{
    ernn_assert(block_size >= 1 && x.size() % block_size == 0,
                "computeSegmentSpectra: x size " << x.size()
                << " not a multiple of block " << block_size);
    const std::size_t q = x.size() / block_size;
    if (ws.segSpectra.size() < q)
        ws.segSpectra.resize(q);
    for (std::size_t j = 0; j < q; ++j) {
        ws.seg.assign(x.begin() + j * block_size,
                      x.begin() + (j + 1) * block_size);
        fft::rfftInto(ws.seg, ws.segSpectra[j], ws.packed);
    }
}

void
sizeSegmentSpectraBatch(const Matrix &x, std::size_t block_size,
                        FftWorkspace &ws)
{
    ernn_assert(block_size >= 1 && x.rows() % block_size == 0,
                "computeSegmentSpectraBatch: " << x.rows()
                << " rows not a multiple of block " << block_size);
    const std::size_t q = x.rows() / block_size;
    const std::size_t lanes = x.cols();
    const std::size_t bins = block_size / 2 + 1;
    ws.laneSpec.resize(q * lanes * bins);
    ws.laneSpecLanes = lanes;
    ws.laneSpecSegs = q;
    ws.laneSpecBins = bins;
}

void
computeSegmentSpectraBatch(const Matrix &x, std::size_t block_size,
                           FftWorkspace &ws)
{
    sizeSegmentSpectraBatch(x, block_size, ws);
    computeSegmentSpectraBatch(x, block_size, 0, ws.laneSpecSegs, ws,
                               ws);
}

void
computeSegmentSpectraBatch(const Matrix &x, std::size_t block_size,
                           std::size_t j0, std::size_t j1,
                           FftWorkspace &ws, FftWorkspace &scratch)
{
    const std::size_t lanes = x.cols();
    const std::size_t bins = block_size / 2 + 1;
    ernn_assert(ws.laneSpecLanes == lanes &&
                ws.laneSpecSegs * block_size == x.rows() &&
                ws.laneSpecBins == bins && j0 <= j1 &&
                j1 <= ws.laneSpecSegs,
                "computeSegmentSpectraBatch: segments [" << j0 << ", "
                << j1 << ") outside the sized lane spectra");
    scratch.seg.resize(block_size);
    for (std::size_t j = j0; j < j1; ++j) {
        for (std::size_t l = 0; l < lanes; ++l) {
            // Gather the lane's segment out of its strided column;
            // the transform itself is the one the solo path runs.
            for (std::size_t r = 0; r < block_size; ++r)
                scratch.seg[r] = x.at(j * block_size + r, l);
            fft::rfftInto(scratch.seg,
                          ws.laneSpec.data() + (j * lanes + l) * bins,
                          scratch.packed);
        }
    }
}

void
BlockCirculantMatrix::matvecAccFromSpectraBatch(Matrix &y,
                                                FftWorkspace &ws) const
{
    ensureSpectra();
    matvecAccFromSpectraBatch(y, ws, 0, blockRows_, ws);
}

void
BlockCirculantMatrix::matvecAccFromSpectraBatch(
    Matrix &y, const FftWorkspace &spec, std::size_t i0,
    std::size_t i1, FftWorkspace &scratch) const
{
    const std::size_t lanes = y.cols();
    ernn_assert(y.rows() == rows_,
                "matvecAccFromSpectraBatch: y rows");
    const std::size_t lb = blockSize_;
    const std::size_t bins = lb / 2 + 1;
    ernn_assert(spec.laneSpecLanes == lanes &&
                spec.laneSpecSegs == blockCols_ &&
                spec.laneSpecBins == bins,
                "matvecAccFromSpectraBatch: lane spectra were built "
                "for a different geometry");
    ernn_assert(i0 <= i1 && i1 <= blockRows_,
                "matvecAccFromSpectraBatch: block rows [" << i0 << ", "
                << i1 << ") outside " << blockRows_);
    ernn_assert(spectraValid_, "matvecAccFromSpectraBatch: generator "
                               "spectra are cold (warmSpectra first)");

    scratch.laneAcc.resize(lanes * bins);

    for (std::size_t i = i0; i < i1; ++i) {
        std::fill(scratch.laneAcc.begin(), scratch.laneAcc.end(),
                  Complex(0, 0));
        for (std::size_t j = 0; j < blockCols_; ++j) {
            // One pass over the cached generator spectrum serves
            // every lane (generator-major streaming over the
            // lane-contiguous spectra of segment j).
            const Complex *w =
                spectra_.data() + (i * blockCols_ + j) * bins;
            fft::accumulateConjProductLanes(
                scratch.laneAcc.data(), w,
                spec.laneSpec.data() + j * lanes * bins, lanes, bins);
        }
        for (std::size_t l = 0; l < lanes; ++l) {
            fft::irfftInto(scratch.laneAcc.data() + l * bins, lb,
                           scratch.outSeg, scratch.packed);
            for (std::size_t r = 0; r < lb; ++r)
                y.at(i * lb + r, l) += scratch.outSeg[r];
        }
    }
}

void
BlockCirculantMatrix::matvecAccFromSpectra(
    const std::vector<fft::CVector> &xfft, Vector &y,
    FftWorkspace &ws) const
{
    ernn_assert(y.size() == rows_, "matvecAccFromSpectra: y size");
    ernn_assert(xfft.size() >= blockCols_,
                "matvecAccFromSpectra: expected >= " << blockCols_
                << " segment spectra, got " << xfft.size());
    ensureSpectra();
    const std::size_t lb = blockSize_;
    const std::size_t bins = lb / 2 + 1;

    for (std::size_t i = 0; i < blockRows_; ++i) {
        ws.acc.assign(bins, Complex(0, 0));
        for (std::size_t j = 0; j < blockCols_; ++j) {
            const Complex *w =
                spectra_.data() + (i * blockCols_ + j) * bins;
            fft::accumulateConjProduct(ws.acc, w, xfft[j]);
        }
        fft::irfftInto(ws.acc, lb, ws.outSeg, ws.packed);
        for (std::size_t r = 0; r < lb; ++r)
            y[i * lb + r] += ws.outSeg[r];
    }
}

void
BlockCirculantMatrix::matvecTransposeAcc(const Vector &dy,
                                         Vector &dx) const
{
    ernn_assert(dy.size() == rows_, "matvecT: dy size mismatch");
    ernn_assert(dx.size() == cols_, "matvecT: dx size mismatch");
    const std::size_t lb = blockSize_;

    if (lb == 1) {
        for (std::size_t i = 0; i < blockRows_; ++i)
            for (std::size_t j = 0; j < blockCols_; ++j)
                dx[j] += generator(i, j)[0] * dy[i];
        return;
    }

    ensureSpectra();
    const std::size_t bins = lb / 2 + 1;

    std::vector<fft::CVector> dyfft(blockRows_);
    Vector seg(lb);
    for (std::size_t i = 0; i < blockRows_; ++i) {
        seg.assign(dy.begin() + i * lb, dy.begin() + (i + 1) * lb);
        dyfft[i] = fft::rfft(seg);
    }

    fft::CVector acc(bins);
    for (std::size_t j = 0; j < blockCols_; ++j) {
        std::fill(acc.begin(), acc.end(), Complex(0, 0));
        for (std::size_t i = 0; i < blockRows_; ++i) {
            const Complex *w =
                spectra_.data() + (i * blockCols_ + j) * bins;
            accumulatePlainProduct(acc, w, dyfft[i]);
        }
        const Vector dxj = fft::irfft(acc, lb);
        for (std::size_t c = 0; c < lb; ++c)
            dx[j * lb + c] += dxj[c];
    }
}

void
BlockCirculantMatrix::generatorGradAcc(const Vector &x,
                                       const Vector &dy,
                                       BlockCirculantMatrix &grad) const
{
    ernn_assert(x.size() == cols_ && dy.size() == rows_,
                "generatorGradAcc: size mismatch");
    ernn_assert(grad.rows_ == rows_ && grad.cols_ == cols_ &&
                grad.blockSize_ == blockSize_,
                "generatorGradAcc: grad shape mismatch");
    const std::size_t lb = blockSize_;

    if (lb == 1) {
        for (std::size_t i = 0; i < blockRows_; ++i)
            for (std::size_t j = 0; j < blockCols_; ++j)
                grad.generator(i, j)[0] += dy[i] * x[j];
        return;
    }

    const std::size_t bins = lb / 2 + 1;
    std::vector<fft::CVector> xfft(blockCols_), dyfft(blockRows_);
    Vector seg(lb);
    for (std::size_t j = 0; j < blockCols_; ++j) {
        seg.assign(x.begin() + j * lb, x.begin() + (j + 1) * lb);
        xfft[j] = fft::rfft(seg);
    }
    for (std::size_t i = 0; i < blockRows_; ++i) {
        seg.assign(dy.begin() + i * lb, dy.begin() + (i + 1) * lb);
        dyfft[i] = fft::rfft(seg);
    }

    fft::CVector acc(bins);
    for (std::size_t i = 0; i < blockRows_; ++i) {
        for (std::size_t j = 0; j < blockCols_; ++j) {
            std::fill(acc.begin(), acc.end(), Complex(0, 0));
            fft::accumulateConjProduct(acc, dyfft[i], xfft[j]);
            const Vector g = fft::irfft(acc, lb);
            Real *gptr = grad.generator(i, j);
            for (std::size_t d = 0; d < lb; ++d)
                gptr[d] += g[d];
        }
    }
    grad.invalidateSpectra();
}

void
BlockCirculantMatrix::matvecTransposeAccFromSpectraBatch(
    Matrix &dx, FftWorkspace &ws) const
{
    const std::size_t lanes = dx.cols();
    ernn_assert(blockSize_ > 1,
                "matvecTransposeAccFromSpectraBatch: block size 1 "
                "goes through the direct per-lane path");
    ernn_assert(dx.rows() == cols_,
                "matvecTransposeAccFromSpectraBatch: dx rows");
    const std::size_t lb = blockSize_;
    const std::size_t bins = lb / 2 + 1;
    ernn_assert(ws.laneSpecLanes == lanes &&
                ws.laneSpecSegs == blockRows_ &&
                ws.laneSpecBins == bins,
                "matvecTransposeAccFromSpectraBatch: lane spectra "
                "were built for a different geometry");
    ensureSpectra();

    ws.laneAcc.resize(lanes * bins);

    for (std::size_t j = 0; j < blockCols_; ++j) {
        std::fill(ws.laneAcc.begin(), ws.laneAcc.end(), Complex(0, 0));
        for (std::size_t i = 0; i < blockRows_; ++i) {
            // Generator-major: one pass over the cached spectrum of
            // block (i, j) serves every lane, mirroring the batched
            // forward's weight-traffic amortization.
            const Complex *w =
                spectra_.data() + (i * blockCols_ + j) * bins;
            accumulatePlainProductLanes(
                ws.laneAcc.data(), w,
                ws.laneSpec.data() + i * lanes * bins, lanes, bins);
        }
        for (std::size_t l = 0; l < lanes; ++l) {
            fft::irfftInto(ws.laneAcc.data() + l * bins, lb, ws.outSeg,
                           ws.packed);
            for (std::size_t c = 0; c < lb; ++c)
                dx.at(j * lb + c, l) += ws.outSeg[c];
        }
    }
}

void
BlockCirculantMatrix::generatorGradAccFromSpectraBatch(
    FftWorkspace &wsX, FftWorkspace &wsDy, std::size_t lanes,
    BlockCirculantMatrix &grad) const
{
    ernn_assert(blockSize_ > 1,
                "generatorGradAccFromSpectraBatch: block size 1 "
                "goes through the direct per-lane path");
    ernn_assert(grad.rows_ == rows_ && grad.cols_ == cols_ &&
                grad.blockSize_ == blockSize_,
                "generatorGradAccFromSpectraBatch: grad shape");
    const std::size_t lb = blockSize_;
    const std::size_t bins = lb / 2 + 1;
    ernn_assert(wsX.laneSpecLanes == lanes &&
                wsX.laneSpecSegs == blockCols_ &&
                wsX.laneSpecBins == bins,
                "generatorGradAccFromSpectraBatch: input spectra "
                "were built for a different geometry");
    ernn_assert(wsDy.laneSpecLanes == lanes &&
                wsDy.laneSpecSegs == blockRows_ &&
                wsDy.laneSpecBins == bins,
                "generatorGradAccFromSpectraBatch: gradient spectra "
                "were built for a different geometry");

    for (std::size_t i = 0; i < blockRows_; ++i) {
        const Complex *dyBase =
            wsDy.laneSpec.data() + i * lanes * bins;
        for (std::size_t j = 0; j < blockCols_; ++j) {
            const Complex *xBase =
                wsX.laneSpec.data() + j * lanes * bins;
            wsX.acc.assign(bins, Complex(0, 0));
            for (std::size_t l = 0; l < lanes; ++l)
                fft::accumulateConjProduct(wsX.acc.data(),
                                           dyBase + l * bins,
                                           xBase + l * bins, bins);
            fft::irfftInto(wsX.acc, lb, wsX.outSeg, wsX.packed);
            Real *gptr = grad.generator(i, j);
            for (std::size_t d = 0; d < lb; ++d)
                gptr[d] += wsX.outSeg[d];
        }
    }
    grad.invalidateSpectra();
}

Real
BlockCirculantMatrix::distanceFromDense(const Matrix &dense) const
{
    ernn_assert(dense.rows() == rows_ && dense.cols() == cols_,
                "distanceFromDense: shape mismatch");
    const std::size_t lb = blockSize_;
    Real s = 0.0;
    for (std::size_t i = 0; i < blockRows_; ++i) {
        for (std::size_t j = 0; j < blockCols_; ++j) {
            const Real *g = generator(i, j);
            for (std::size_t r = 0; r < lb; ++r) {
                for (std::size_t c = 0; c < lb; ++c) {
                    const Real d = dense.at(i * lb + r, j * lb + c) -
                                   g[(c + lb - r) % lb];
                    s += d * d;
                }
            }
        }
    }
    return std::sqrt(s);
}

Real
BlockCirculantMatrix::frobeniusNorm() const
{
    // Each generator entry appears Lb times in the dense matrix.
    Real s = 0.0;
    for (auto v : gen_)
        s += v * v;
    return std::sqrt(s * static_cast<Real>(blockSize_));
}

} // namespace ernn::circulant
