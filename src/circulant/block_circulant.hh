/**
 * @file
 * Block-circulant weight matrix (Sec. III of the paper).
 *
 * A rows x cols matrix is partitioned into p x q square blocks of
 * size Lb; each block is a circulant matrix fully described by its
 * first row ("generator"): W[r][c] = w[(c - r) mod Lb]. Storage drops
 * from O(rows*cols) to O(rows*cols/Lb) and the matvec drops to
 * O(n log n) via the FFT (Fig. 4):
 *
 *     a_i = IFFT( sum_j conj(FFT(w_ij)) ∘ FFT(x_j) )
 *
 * The conjugate appears because a first-row circulant matvec is a
 * circular correlation — this is the "Conj" block in the paper's PE
 * (Fig. 10). FFT/IFFT decoupling (Sec. V-A1, Fig. 7) is structural:
 * the q input-segment FFTs are computed once, accumulation happens in
 * the frequency domain, and only p IFFTs run per matvec.
 */

#ifndef ERNN_CIRCULANT_BLOCK_CIRCULANT_HH
#define ERNN_CIRCULANT_BLOCK_CIRCULANT_HH

#include <cstddef>
#include <vector>

#include "base/random.hh"
#include "base/types.hh"
#include "tensor/fft.hh"
#include "tensor/matrix.hh"
#include "tensor/vector_ops.hh"

namespace ernn::circulant
{

/** Strategy used by matvec-type entry points. */
enum class MatvecMode
{
    Fft,   //!< decoupled FFT path (production)
    Naive, //!< direct O(rows*cols) evaluation from generators (oracle)
};

/**
 * Reusable FFT scratch for the matvec entry points. One workspace
 * serves matrices of any geometry: every buffer is resized on use and
 * keeps its capacity, so after a warm-up pass over the shapes in play
 * the steady-state matvec performs no heap allocation. The runtime's
 * CirculantFFT inference backend owns one of these per session, plus
 * one per compute-pool part for the staging of pooled regions; the
 * legacy allocation-free entry points share a thread-local one.
 */
struct FftWorkspace
{
    std::vector<fft::CVector> segSpectra; //!< FFT(x_j) per input segment
    fft::CVector acc;                     //!< frequency-domain accumulator
    fft::CVector packed;                  //!< half-size complex FFT scratch
    Vector seg;                           //!< real segment staging
    Vector outSeg;                        //!< IFFT output staging

    /// @{ Batch-major staging (one utterance lane per column of the
    /// activation matrix). laneSpec is one flat seg-major table of
    /// every lane's segment spectra, laid out [seg][lane][bin] so the
    /// generator-major MAC kernels stream lane-contiguous runs while
    /// one cached generator spectrum stays hot; laneAcc holds the
    /// per-lane frequency-domain accumulators as [lane][bin]. Sized
    /// by the batched entry points; like every other buffer here they
    /// keep their capacity, so a warm workspace serves the batch hot
    /// loop allocation-free.
    fft::CVector laneSpec;
    fft::CVector laneAcc;
    std::size_t laneSpecLanes = 0; //!< lanes captured in laneSpec
    std::size_t laneSpecSegs = 0;  //!< segments captured in laneSpec
    std::size_t laneSpecBins = 0;  //!< packed bins per segment
    /// @}
};

/**
 * Stage 1 of the decoupled matvec (Fig. 7): FFT every @p block_size
 * segment of @p x into ws.segSpectra (the q input FFTs).
 */
void computeSegmentSpectra(const Vector &x, std::size_t block_size,
                           FftWorkspace &ws);

/**
 * Batch-major form of computeSegmentSpectra: @p x is a (cols x lanes)
 * activation matrix, one utterance lane per column; every lane's
 * segment spectra land in ws.laneSpec. Each lane runs the exact
 * transforms the solo entry point runs, so downstream results stay
 * bit-identical per lane. The [0, q) case of the range form below.
 */
void computeSegmentSpectraBatch(const Matrix &x,
                                std::size_t block_size,
                                FftWorkspace &ws);

/**
 * Size ws.laneSpec (and its geometry tags) for the segment spectra
 * of @p x without transforming anything: the serial prologue of a
 * pooled computeSegmentSpectraBatch.
 */
void sizeSegmentSpectraBatch(const Matrix &x, std::size_t block_size,
                             FftWorkspace &ws);

/**
 * Range form: FFT input segments [j0, j1) of every lane into
 * ws.laneSpec, which sizeSegmentSpectraBatch must already have sized
 * for @p x. The seg/packed staging comes from @p scratch, so
 * disjoint segment ranges can run concurrently, each with its own
 * scratch (@p scratch may be @p ws itself).
 */
void computeSegmentSpectraBatch(const Matrix &x,
                                std::size_t block_size,
                                std::size_t j0, std::size_t j1,
                                FftWorkspace &ws,
                                FftWorkspace &scratch);

class BlockCirculantMatrix
{
  public:
    BlockCirculantMatrix() = default;

    /**
     * Construct an all-zero block-circulant matrix.
     *
     * @param rows, cols overall dimensions; both must be divisible by
     *                   @p block_size
     * @param block_size Lb, a power of two (the paper constrains
     *                   block sizes to powers of two)
     */
    BlockCirculantMatrix(std::size_t rows, std::size_t cols,
                         std::size_t block_size);

    /**
     * Euclidean projection of a dense matrix onto the block-circulant
     * set (Eqn. 6 / Fig. 5): each generator entry is the mean of its
     * wrapped block diagonal. This is the optimal (closest in
     * Frobenius norm) circulant approximation, used as the ADMM
     * proximal step.
     */
    static BlockCirculantMatrix fromDense(const Matrix &dense,
                                          std::size_t block_size);

    /** Materialize the dense equivalent. */
    Matrix toDense() const;

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t blockSize() const { return blockSize_; }
    std::size_t blockRows() const { return blockRows_; } //!< p
    std::size_t blockCols() const { return blockCols_; } //!< q

    /** Number of stored parameters: p * q * Lb. */
    std::size_t paramCount() const { return gen_.size(); }

    /** Dense-to-circulant parameter compression ratio (= Lb). */
    Real compressionRatio() const;

    /** Mutable view of the generator of block (i, j), Lb entries. */
    Real *generator(std::size_t i, std::size_t j);
    const Real *generator(std::size_t i, std::size_t j) const;

    /** Flat generator storage (p*q*Lb entries, trainable params). */
    std::vector<Real> &raw() { return gen_; }
    const std::vector<Real> &raw() const { return gen_; }

    /** Xavier init matching the dense equivalent's fan-in/out. */
    void initXavier(Rng &rng);

    /**
     * Mark cached generator spectra stale. Must be called after any
     * direct mutation of raw()/generator() contents.
     */
    void invalidateSpectra();

    /** y = W x. */
    Vector matvec(const Vector &x, MatvecMode mode = MatvecMode::Fft)
        const;

    /** y += W x. */
    void matvecAcc(const Vector &x, Vector &y,
                   MatvecMode mode = MatvecMode::Fft) const;

    /**
     * y += W x with caller-owned scratch: the hot-loop form, free of
     * heap allocation once @p ws has warmed to this geometry.
     */
    void matvecAcc(const Vector &x, Vector &y, FftWorkspace &ws,
                   MatvecMode mode = MatvecMode::Fft) const;

    /**
     * Stage 2 of the decoupled matvec (Fig. 7): y += W x given the
     * segment spectra of x already in @p xfft (frequency-domain
     * accumulation + p IFFTs; @p ws supplies acc/outSeg/packed).
     * Callers that multiply several matrices of equal geometry by
     * the same vector — the four gate matrices of an LSTM — compute
     * the q input FFTs once via computeSegmentSpectra() and share
     * them, which a per-matrix matvec cannot do.
     */
    void matvecAccFromSpectra(const std::vector<fft::CVector> &xfft,
                              Vector &y, FftWorkspace &ws) const;

    /**
     * Batch-major stage 2: Y += W X for every lane at once, given
     * each lane's segment spectra in ws.laneSpec (from
     * computeSegmentSpectraBatch). Y is (rows x lanes). The loop
     * order is generator-major: each cached generator spectrum is
     * loaded once per call and accumulated against every lane before
     * moving on — the weight traffic one solo matvec pays, amortized
     * over the whole batch. Per lane the accumulation order matches
     * matvecAccFromSpectra exactly (bit-identical columns). The
     * [0, blockRows()) case of the range form below.
     */
    void matvecAccFromSpectraBatch(Matrix &y, FftWorkspace &ws) const;

    /**
     * Range form: block rows [i0, i1) of Y += W X, reading the lane
     * spectra of @p spec and staging laneAcc/outSeg/packed in
     * @p scratch (which may be @p spec itself). Every block row owns
     * its accumulator and its output rows, so disjoint ranges run
     * concurrently — each with its own scratch — and produce the
     * whole-matrix bits. Needs warm generator spectra (warmSpectra()):
     * the lazy rebuild is not thread-safe, so this form only checks.
     */
    void matvecAccFromSpectraBatch(Matrix &y, const FftWorkspace &spec,
                                   std::size_t i0, std::size_t i1,
                                   FftWorkspace &scratch) const;

    /**
     * Build the cached generator spectra now (normally lazy). The
     * runtime compiler calls this so that frozen models never pay the
     * FFT precompute on the serving path.
     */
    void warmSpectra() const { ensureSpectra(); }

    /** dx += Wᵀ dy (circular convolution per block, FFT path). */
    void matvecTransposeAcc(const Vector &dy, Vector &dx) const;

    /**
     * grad.gen += dL/dgen given upstream gradient dy and input x.
     * The generator gradient of block (i,j) is the circular
     * correlation of dy_i with x_j.
     */
    void generatorGradAcc(const Vector &x, const Vector &dy,
                          BlockCirculantMatrix &grad) const;

    /**
     * Batch-major transpose backprop: dX += Wᵀ dY for every lane at
     * once, given each lane's dY segment spectra in ws.laneSpec
     * (from computeSegmentSpectraBatch on the upstream-gradient
     * matrix). dX is (cols x lanes). Generator-major like the batched
     * forward; per lane the block accumulation runs in the exact
     * order matvecTransposeAcc uses. Callers route block size 1
     * through the direct per-lane path (no spectra exist there).
     */
    void matvecTransposeAccFromSpectraBatch(Matrix &dx,
                                            FftWorkspace &ws) const;

    /**
     * Batch-major generator gradient: grad.gen += the lane sum of the
     * circular correlation of dy_i with x_j, with per-lane input
     * spectra in wsX.laneSpec and upstream-gradient spectra in
     * wsDy.laneSpec. The lane sum accumulates in the frequency
     * domain (ascending lane order), so each block pays one IFFT per
     * batch instead of one per lane; the IFFT is linear, so this
     * equals the per-lane solo sum up to rounding. wsX also lends the
     * acc/outSeg/packed scratch.
     */
    void generatorGradAccFromSpectraBatch(FftWorkspace &wsX,
                                          FftWorkspace &wsDy,
                                          std::size_t lanes,
                                          BlockCirculantMatrix &grad)
        const;

    /** Frobenius distance ‖this - dense‖_F without materializing. */
    Real distanceFromDense(const Matrix &dense) const;

    /** Frobenius norm of the (implicit) dense matrix. */
    Real frobeniusNorm() const;

  private:
    void ensureSpectra() const;

    std::size_t rows_ = 0, cols_ = 0;
    std::size_t blockSize_ = 0;
    std::size_t blockRows_ = 0, blockCols_ = 0;

    /** Generators, laid out [i][j][d] contiguously. */
    std::vector<Real> gen_;

    /**
     * Cached rfft of every generator, (Lb/2+1) bins per block, laid
     * out [i][j][bin]. Rebuilt lazily after invalidateSpectra().
     */
    mutable std::vector<Complex> spectra_;
    mutable bool spectraValid_ = false;
};

} // namespace ernn::circulant

#endif // ERNN_CIRCULANT_BLOCK_CIRCULANT_HH
