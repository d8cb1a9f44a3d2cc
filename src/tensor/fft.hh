/**
 * @file
 * Radix-2 FFT engine with real-input specialization and runtime
 * multiplication accounting.
 *
 * The paper's computation-reduction analysis (Sec. V) relies on three
 * structural properties that this implementation realizes rather than
 * simulates:
 *
 *  - trivial twiddle factors (1, -1, i, -i) perform no multiplication
 *    (the first two butterfly levels are multiplication-free);
 *  - real-input FFTs of size N are computed via a complex FFT of size
 *    N/2 plus a split/merge pass (the "symmetry" saving);
 *  - the IFFT output scaling by 1/N maps to right-shift registers in
 *    the PE (Fig. 10) and therefore costs no multiplier.
 *
 * When counting is enabled (see OpCount), every real multiplication
 * actually executed by the butterflies is tallied, which lets the
 * Fig. 8 bench cross-check the analytic model against reality.
 */

#ifndef ERNN_TENSOR_FFT_HH
#define ERNN_TENSOR_FFT_HH

#include <cstdint>
#include <vector>

#include "base/types.hh"
#include "tensor/vector_ops.hh"

namespace ernn::fft
{

/** Snapshot of the multiplication/transform counters. */
struct OpCounters
{
    std::uint64_t realMults = 0; //!< real multiplications in butterflies
    std::uint64_t cmplxMults = 0; //!< non-trivial complex multiplications
    std::uint64_t fftCalls = 0; //!< forward transforms executed
    std::uint64_t ifftCalls = 0; //!< inverse transforms executed
    std::uint64_t eltwiseMults = 0; //!< real mults in frequency products
};

/**
 * Global (thread-local) operation accounting. Disabled by default;
 * enable around a region of interest with OpCountScope. Only the
 * calling thread's work is tallied: transforms a session runs on its
 * compute pool's workers are not counted, so count through a
 * 1-thread session.
 */
class OpCount
{
  public:
    static void setEnabled(bool on);
    static bool enabled();
    static void reset();
    static OpCounters snapshot();

    /// @{ Internal hooks used by the transform kernels.
    static void addRealMults(std::uint64_t n);
    static void addComplexMults(std::uint64_t n);
    static void addEltwiseMults(std::uint64_t n);
    static void countFft();
    static void countIfft();
    /// @}
};

/** RAII guard that enables and resets counting within a scope. */
class OpCountScope
{
  public:
    OpCountScope();
    ~OpCountScope();

    /** Counters accumulated since the scope opened. */
    OpCounters counters() const { return OpCount::snapshot(); }

  private:
    bool prev_;
};

/** @return true when n is a power of two (n >= 1). */
bool isPowerOfTwo(std::size_t n);

/** @return ceil(log2(n)) for n >= 1. */
std::size_t log2Ceil(std::size_t n);

/** Vector of complex bins. */
using CVector = std::vector<Complex>;

/**
 * In-place complex FFT (inverse includes the 1/n scaling).
 *
 * @param a buffer of n complex values, n a power of two
 * @param inverse run the inverse transform when true
 */
void fftInPlace(CVector &a, bool inverse);

/** Out-of-place complex DFT by definition; O(n^2), for testing. */
CVector naiveDft(const CVector &a, bool inverse);

/**
 * Real-input FFT. Returns the n/2 + 1 non-redundant bins of the
 * length-n spectrum (bins 0 and n/2 have zero imaginary part).
 * Computed via a complex FFT of size n/2 (packing trick) for n >= 4.
 */
CVector rfft(const Vector &x);

/**
 * rfft into caller-provided buffers: @p out receives the n/2 + 1
 * bins, @p scratch holds the half-size packed complex FFT. Both are
 * resized as needed; once they have seen size n, repeated calls
 * perform no heap allocation (the hot-loop form).
 */
void rfftInto(const Vector &x, CVector &out, CVector &scratch);

/**
 * Raw-pointer form of rfftInto: @p out must provide n/2 + 1 slots
 * (e.g. one segment's bins inside a flat lane-spectra table).
 */
void rfftInto(const Vector &x, Complex *out, CVector &scratch);

/**
 * Inverse of rfft: reconstruct n real samples from n/2 + 1 bins.
 *
 * @param spectrum n/2 + 1 bins as produced by rfft
 * @param n        original (power-of-two) length
 */
Vector irfft(const CVector &spectrum, std::size_t n);

/** irfft into caller-provided buffers (allocation-free once warm). */
void irfftInto(const CVector &spectrum, std::size_t n, Vector &out,
               CVector &scratch);

/**
 * Raw-pointer form of irfftInto: @p spectrum points at n/2 + 1
 * packed bins (e.g. one lane's accumulator inside a flat table).
 */
void irfftInto(const Complex *spectrum, std::size_t n, Vector &out,
               CVector &scratch);

/**
 * acc += conj(w) ⊙ x over packed real-spectrum bins.
 *
 * This is the PE's "dot product after conjugation" (Fig. 10): the
 * block-circulant matvec with first-row generators is a circular
 * correlation, hence the conjugate. Bins 0 and n/2 are real-real
 * products (1 real mult each); interior bins are complex products
 * (4 real mults each).
 */
void accumulateConjProduct(CVector &acc, const CVector &w,
                           const CVector &x);

/**
 * Same as above with @p w pointing at acc.size() packed bins inside a
 * flat spectrum table — the no-copy form used by the block-circulant
 * matvec hot loop.
 */
void accumulateConjProduct(CVector &acc, const Complex *w,
                           const CVector &x);

/** All-raw form over @p bins packed bins (flat-workspace hot loop). */
void accumulateConjProduct(Complex *acc, const Complex *w,
                           const Complex *x, std::size_t bins);

/**
 * acc += conj(w) ⊙ x for @p lanes lanes at once: @p acc and @p x hold
 * lane-contiguous [lane][bin] runs of @p bins packed bins each, and
 * @p w is one generator spectrum shared by every lane. Per lane this
 * runs exactly accumulateConjProduct, in ascending lane order — the
 * batched matvec stays bit-identical per lane while the shared @p w
 * and the contiguous streams keep the hot loop in cache.
 */
void accumulateConjProductLanes(Complex *acc, const Complex *w,
                                const Complex *x, std::size_t lanes,
                                std::size_t bins);

/**
 * Number of real multiplications one complex FFT of size n performs
 * under the trivial-twiddle convention implemented here (analytic
 * mirror of the runtime counter).
 */
std::uint64_t complexFftRealMults(std::size_t n);

/** Analytic real-mult count of rfft (size n), matching the kernels. */
std::uint64_t rfftRealMults(std::size_t n);

/** Analytic real-mult count of irfft (size n), matching the kernels. */
std::uint64_t irfftRealMults(std::size_t n);

/** Analytic real-mult count of accumulateConjProduct for size n. */
std::uint64_t eltwiseRealMults(std::size_t n);

} // namespace ernn::fft

#endif // ERNN_TENSOR_FFT_HH
