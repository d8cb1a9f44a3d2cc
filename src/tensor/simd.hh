/**
 * @file
 * Runtime-dispatched SIMD kernel cores. One scalar implementation of
 * each core is the *oracle* — kept verbatim from the pre-SIMD code —
 * and every vector implementation must produce bit-identical results:
 *
 *  - int16 dot (dotCodes): exact integer arithmetic, so any
 *    summation order reproduces the scalar bits. The AVX2 form runs
 *    `_mm256_madd_epi16` (two int16 MACs per int32 lane — exactly the
 *    paper's two-MACs-per-DSP packing, mulPerDSP = 2) and widens the
 *    int32 partials to int64 before they can overflow, under the same
 *    chunk bound the scalar path proves safe.
 *  - f64 GEMM (gemmAccF64): the vector form keeps each (row, lane)
 *    accumulator as its own mul-then-add chain over ascending c —
 *    the scalar order — by vectorizing *across lanes*, never inside
 *    a single dot product. No FMA is ever used (a fused multiply-add
 *    rounds once where mul+add rounds twice, which would break the
 *    oracle).
 *  - f32 GEMM (gemmF32): the opt-in dense f32 mode. Scalar and AVX2
 *    forms are bit-identical to each other by the same
 *    across-the-lanes argument; f32 vs f64 is approximate by nature.
 *  - f64 sigmoid/tanh (sigmoidF64 / tanhF64): a repo-owned exp
 *    (mul and add only), evaluated lane-wise — every element is an
 *    independent fixed sequence of IEEE operations, so the AVX2 form
 *    reproduces the scalar bits lane for lane.
 *
 * Dispatch is per-process: detect() probes the CPU once, the
 * ERNN_SIMD environment variable (scalar|avx2|neon|auto) can force a
 * level, and tests/benches flip levels with setActive(). Kernel
 * implementations fetch the function pointer once per call, so a
 * concurrent setActive never tears a half-switched kernel.
 */

#ifndef ERNN_TENSOR_SIMD_HH
#define ERNN_TENSOR_SIMD_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "base/types.hh"

/**
 * Keep a function's loops scalar. GCC's vectorizer turns a paired
 * complex mul-add / mul-sub into vfmaddsub / vfmsubadd on FMA targets
 * even under -ffp-contract=off, fusing what the vector levels round
 * twice. The scalar complex-MAC oracles carry this so they stay
 * unfused on -march=haswell / native builds, and fft::naiveDft so
 * the library holds no fused instruction at all (CI checks it).
 */
#if defined(__GNUC__) && !defined(__clang__)
#define ERNN_NO_VECTORIZE __attribute__((optimize("no-tree-vectorize")))
#else
#define ERNN_NO_VECTORIZE
#endif

namespace ernn::simd
{

/** Instruction-set levels the dispatcher can select. */
enum class Level
{
    Scalar = 0, //!< portable C++ (the bit-exactness oracle)
    Avx2 = 1,   //!< x86-64 AVX2 (256-bit int16/f64/f32 lanes)
    Neon = 2,   //!< aarch64 NEON (int16 dot only; GEMMs stay scalar)
};

/** Human-readable level name ("scalar", "avx2", "neon"). */
const char *levelName(Level level);

/** True when the running CPU can execute @p level. */
bool supported(Level level);

/** Best level the running CPU supports. */
Level detect();

/**
 * Currently selected level. The first call resolves the ERNN_SIMD
 * environment override: "scalar" / "avx2" / "neon" force a level
 * (falling back to detect() with a warning when unsupported), "auto"
 * or unset takes detect().
 */
Level active();

/** Force a dispatch level (tests and benches). Dies when the CPU
 *  cannot execute it — check supported() first. */
void setActive(Level level);

/**
 * Parse an ERNN_SIMD value. @p isAuto comes back true for "auto";
 * returns false (and assigns nothing) on unknown strings.
 */
bool parseLevel(const std::string &text, Level &out, bool &isAuto);

// --- int16 code dot (FixedPoint integer datapath) ----------------------

/**
 * Exact int16 dot product of @p n code pairs, chunked so every int32
 * partial sum is provably overflow-free (see safeChunkLen). All
 * implementations return the exact integer sum, so every level is
 * bit-identical by construction.
 */
using DotCodesFn = std::int64_t (*)(const std::int16_t *w,
                                    const std::int16_t *v,
                                    std::size_t n, std::size_t chunk);

/** The scalar oracle: int32 chunk accumulation, int64 total. */
std::int64_t dotCodesScalar(const std::int16_t *w,
                            const std::int16_t *v, std::size_t n,
                            std::size_t chunk);

/** dotCodes for the active() level. */
DotCodesFn dotCodesFn();

/** dotCodes for an explicit level (parity tests). */
DotCodesFn dotCodesFnFor(Level level);

/**
 * Whole int16 matvec: out[r] = dot(w row r, x) for rows consecutive
 * rows, same chunk bound per row. The solo dense fixed-point kernel
 * calls this instead of a per-row dot so the vector levels can block
 * across rows — one load of x feeds four weight rows, roughly
 * halving load traffic per MAC (the single-row dot is load-port
 * bound, not multiply bound). Row blocking never reorders a row's
 * own accumulation, so every level stays bit-identical to the
 * scalar per-row oracle.
 */
using MatvecCodesFn = void (*)(const std::int16_t *w,
                               std::size_t rows, std::size_t n,
                               const std::int16_t *x,
                               std::int64_t *out, std::size_t chunk);

/** The scalar oracle: dotCodesScalar row by row. */
void matvecCodesScalar(const std::int16_t *w, std::size_t rows,
                       std::size_t n, const std::int16_t *x,
                       std::int64_t *out, std::size_t chunk);

/** matvecCodes for the active() level. */
MatvecCodesFn matvecCodesFn();

/** matvecCodes for an explicit level (parity tests). */
MatvecCodesFn matvecCodesFnFor(Level level);

/**
 * Largest chunk length whose int32 partial sums cannot overflow,
 * given weight/value formats of @p wb and @p vb total bits:
 * |w*v| <= 2^(wb-1) * 2^(vb-1) = 2^pb, so 2^(30-pb) terms stay
 * within +-2^30 < 2^31 - 1. At pb >= 30 (both formats 16-bit) the
 * chunk degenerates to a single product, which still fits: the
 * worst case minQ*minQ = +2^30.
 */
std::size_t safeChunkLen(int wb, int vb);

// --- f64 GEMM (dense batch-major datapath) -----------------------------

/**
 * Y += W X, batch-major: @p w row-major rows x cols, @p x cols x
 * lanes, @p y rows x lanes. Every (r, l) accumulator sums c
 * ascending in its own mul-then-add chain — the solo matvecAcc
 * order — so every level and any row-partitioning of a call are
 * bit-identical.
 */
using GemmF64Fn = void (*)(const Real *w, std::size_t rows,
                           std::size_t cols, const Real *x, Real *y,
                           std::size_t lanes);

/** The scalar oracle: the register-blocked 4x4 tile GEMM. */
void gemmAccF64Scalar(const Real *w, std::size_t rows,
                      std::size_t cols, const Real *x, Real *y,
                      std::size_t lanes);

/** gemmAccF64 for the active() level. */
GemmF64Fn gemmAccF64Fn();

// --- complex spectra MACs (block-circulant FFT datapath) ---------------

/**
 * Per-lane multiply-accumulate over packed real-FFT spectra stored as
 * interleaved (re, im) doubles: @p acc and @p x hold @p lanes
 * lane-contiguous runs of @p bins pairs, @p w is one generator
 * spectrum shared by every lane. The conj form runs
 * acc += conj(w) . x (the circulant matvec / generator gradient), the
 * plain form acc += w . x (the transpose matvec). Bins 0 and bins-1
 * of a real spectrum are purely real and accumulate real-only.
 *
 * Every (lane, bin) accumulator is independent, and each level runs
 * the scalar per-bin products and adds verbatim (mul then add, never
 * fmadd; the AVX2 addsub consumes a negated operand, and IEEE
 * a - (-b) is exactly a + b), so every level is bit-identical to the
 * scalar oracle.
 */
using CplxMacLanesFn = void (*)(Real *acc, const Real *w,
                                const Real *x, std::size_t lanes,
                                std::size_t bins);

/** The scalar conj oracle (kept verbatim from the pre-SIMD code). */
void conjMacLanesScalar(Real *acc, const Real *w, const Real *x,
                        std::size_t lanes, std::size_t bins);

/** The scalar plain oracle. */
void plainMacLanesScalar(Real *acc, const Real *w, const Real *x,
                         std::size_t lanes, std::size_t bins);

/** conjMacLanes for the active() level. */
CplxMacLanesFn conjMacLanesFn();

/** plainMacLanes for the active() level. */
CplxMacLanesFn plainMacLanesFn();

// --- f32 GEMM (opt-in dense f32 mode) ----------------------------------

/**
 * Y = Wf Xf (overwrite), batch-major with f32 weights and inputs and
 * f64 output: each (r, l) entry is one float chain over ascending c,
 * widened to Real on store. Scalar and vector levels bit-identical
 * within f32; f32 vs the f64 path is approximate.
 */
using GemmF32Fn = void (*)(const float *w, std::size_t rows,
                           std::size_t cols, const float *x, Real *y,
                           std::size_t lanes);

/** The scalar f32 core (lane-tiled, per-lane float chains). */
void gemmF32Scalar(const float *w, std::size_t rows, std::size_t cols,
                   const float *x, Real *y, std::size_t lanes);

/** gemmF32 for the active() level. */
GemmF32Fn gemmF32Fn();

// --- f64 activations (float LSTM/GRU gate tail) -----------------------

/**
 * In-place logistic sigmoid / tanh over @p n doubles: the one
 * production implementation behind nn::sigmoid, nn::tanhAct and
 * nn::applyActivation.
 *
 * The exp both use is repo-owned. Cody–Waite reduction writes
 * y = k ln2 + r with |r| <= ln2/2 (ln2 split hi/lo so k * ln2_hi is
 * exact), e^r - 1 is the degree-13 Taylor polynomial by Horner (mul
 * and add only, never FMA), and 2^k is built in the exponent field.
 *
 *  - sigmoid(x) = 1 / (1 + e^-|x|) for x >= 0 and
 *    e^-|x| / (1 + e^-|x|) below 0 — the libm formula, one division.
 *  - tanh of a = |x| (clamped at 20, where tanh rounds to 1), sign
 *    restored: a - a u C(u) / A(u) with u = a^2 below a = 0.625 —
 *    Lambert's continued fraction, written as a minus a small
 *    correction so it keeps relative accuracy down to subnormal a —
 *    and 1 - 2 / (e^2a + 1) above. tanh(-x) = -tanh(x) exactly.
 *
 * Both stay within 4 ulp of libm over [-40, 40] (tests sweep it;
 * measured at most 2). sigmoid(0) = 0.5, tanh(+-0) = +-0, NaN stays
 * NaN and +-inf saturates. The AVX2 form runs the same operations in
 * the same order four lanes at a time, so every level is
 * bit-identical to the scalar oracle by construction, tails included.
 * NEON keeps the scalar oracle, as the f64 GEMMs do.
 */
using ActivationF64Fn = void (*)(Real *v, std::size_t n);

/** The scalar sigmoid oracle. */
void sigmoidF64Scalar(Real *v, std::size_t n);

/** The scalar tanh oracle. */
void tanhF64Scalar(Real *v, std::size_t n);

/** sigmoidF64 for the active() level. */
ActivationF64Fn sigmoidF64Fn();

/** tanhF64 for the active() level. */
ActivationF64Fn tanhF64Fn();

} // namespace ernn::simd

#endif // ERNN_TENSOR_SIMD_HH
