/**
 * @file
 * Inference kernel backends. A trained nn::LinearOp is *frozen* into
 * an immutable LinearKernel selected from the backend registry:
 *
 *  - Dense        plain row-major matvec (baseline rows, classifier);
 *  - CirculantFFT the paper's production datapath: precomputed
 *                 generator FFTs, frequency-domain accumulation, and
 *                 a reusable per-session workspace so the steady
 *                 state performs no heap allocation (Fig. 4/7);
 *  - FixedPoint   the deployed-accelerator datapath: weights rounded
 *                 bit-exactly as quant::quantizeParams would round
 *                 them, then *packed as int16 codes* and evaluated
 *                 with int64-accumulated integer MACs plus
 *                 shift-based requantization — the arithmetic the
 *                 12-bit PE array performs (Sec. VIII). The f64
 *                 emulation is kept as applyEmulated(), the
 *                 bit-exactness oracle; both produce identical bits
 *                 because every product and partial sum is an exact
 *                 integer multiple of the grid step.
 *
 * Kernels are shared by every session of a CompiledModel and hold no
 * mutable state; all scratch lives in the session's KernelScratch.
 */

#ifndef ERNN_RUNTIME_BACKEND_HH
#define ERNN_RUNTIME_BACKEND_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "circulant/block_circulant.hh"
#include "nn/linear_op.hh"
#include "quant/fixed_point.hh"
#include "runtime/thread_pool.hh"

namespace ernn::runtime
{

/** Backend families a model can be compiled against. */
enum class BackendKind
{
    Auto,         //!< per-weight: CirculantFFT where circulant, else Dense
    Dense,        //!< force dense kernels (circulant weights materialized)
    CirculantFft, //!< FFT path for circulant weights, dense elsewhere
    FixedPoint,   //!< bit-accurate deployed datapath
};

/** Human-readable backend name ("auto", "dense", ...). */
std::string backendKindName(BackendKind kind);

/** Arithmetic width of the Dense backend's kernels. */
enum class DensePrecision
{
    F64, //!< double weights and accumulation (the default)
    F32, //!< float weights and accumulation (opt-in, approximate
         //!< vs F64; scalar and SIMD f32 are bit-identical)
};

/** Options fixed at compile() time and immutable afterwards. */
struct CompileOptions
{
    BackendKind backend = BackendKind::Auto;

    /** FixedPoint backend: total bits per weight and per value
     *  (the paper's 12-bit design point). */
    int fixedPointBits = 12;

    /** FixedPoint backend: PWL activation table segments and range
     *  (Phase II's activation implementation, Sec. VIII-B1). */
    std::size_t activationSegments = 128;
    Real activationRange = 8.0;

    /**
     * FixedPoint backend: run the f64 reference emulation instead of
     * the native int16 datapath. Results are bit-identical by
     * construction (the emulation is the oracle the integer path is
     * tested against); emulation is also what widths above 16 bits
     * fall back to regardless of this flag.
     */
    bool fixedPointEmulation = false;

    /**
     * Dense backend: arithmetic width of owned dense kernels. F32
     * halves the weight footprint and doubles the SIMD lane count;
     * outputs differ from F64 within float rounding. Kernels that
     * *borrow* their weights (mmap artifacts) always serve f64.
     * Runtime-only: NOT serialized into artifacts — a loaded
     * artifact rehydrates with the default (F64).
     */
    DensePrecision densePrecision = DensePrecision::F64;

    /**
     * Default intra-session parallelism: how many threads each
     * InferenceSession splits its per-timestep kernel row blocks
     * across. 1 = serial (today's behavior). Sessions and servers
     * can override per instance (createSession / ServerOptions).
     * Runtime-only: NOT serialized into artifacts.
     */
    std::size_t computeThreads = 1;
};

/**
 * Per-session mutable scratch handed to every kernel call. Buffers
 * grow to the largest geometry seen and are reused, so the steady
 * state allocates nothing.
 */
struct KernelScratch
{
    /** Solo-path FFT scratch; in pooled regions also the input's lane
     *  spectra and part 0's staging (see fftPart). */
    circulant::FftWorkspace fft;

    /** The recurrent operand's lane spectra during a fused compiled
     *  step, live beside fft's (the input's): one pool region
     *  transforms both, the next reads both. */
    circulant::FftWorkspace fftRec;

    /**
     * Per-part staging (seg/packed/laneAcc/outSeg) of pooled FFT
     * regions, so parts never share a scratch buffer: part 0 stages
     * in fft, part k > 0 in fftParts[k - 1]. forEachPart grows the
     * list before entering the pool; each workspace grows on its
     * part's first use and keeps its capacity.
     */
    std::vector<circulant::FftWorkspace> fftParts;

    /**
     * The session's compute pool (owned by the session, null = run
     * serial). Kernels with independent output-row blocks split them
     * across the pool; outputs are bit-identical either way because
     * every row keeps its own accumulation chain. Kernels must stage
     * shared inputs (xq/xqh/xf, lane spectra sizes) *before* entering
     * the pool — staging is not thread-safe.
     */
    ThreadPool *pool = nullptr;

    /** FFT staging of pool part @p part (see fftParts). */
    circulant::FftWorkspace &fftPart(std::size_t part)
    {
        return part == 0 ? fft : fftParts[part - 1];
    }

    /**
     * Split [0, n) into min(pool threads, n) contiguous parts with
     * the pool's fixed arithmetic and run f(part, begin, end) once
     * per part, on the pool (inline without one). @p part indexes
     * fftPart(), whose workspaces exist before any part starts.
     */
    template <typename F>
    void forEachPart(std::size_t n, F &&f)
    {
        const std::size_t parts =
            pool ? std::min(pool->threads(), n) : 1;
        if (parts < 2) {
            if (n != 0)
                f(std::size_t{0}, std::size_t{0}, n);
            return;
        }
        if (fftParts.size() + 1 < parts)
            fftParts.resize(parts - 1);
        pool->parallelFor(parts, [&](std::size_t p0, std::size_t p1) {
            for (std::size_t p = p0; p < p1; ++p)
                f(p, ThreadPool::partBegin(n, parts, p),
                  ThreadPool::partBegin(n, parts, p + 1));
        });
    }

    /**
     * Armed (totalBits != 0) by sessions over a native-integer
     * FixedPoint model: the value grid every kernel input arrives on
     * and every kernel output is requantized to. Unarmed scratch
     * makes FixedPoint kernels fall back to the f64 emulation, so
     * non-fixed-point backends and the oracle mode pay nothing.
     */
    quant::FixedPointFormat valueFormat{0, 0};

    /**
     * Input value-code staging, reused across the kernels of one
     * step: the four LSTM gate matrices all consume the same x (and
     * the same y_{t-1}), so their conversion is done once. Validity
     * is scoped by xqEpoch — the session bumps it every step(),
     * after which the recurrent state mutates under an unchanged
     * address. Anything driving kernels directly with vectors that
     * may alias must bump xqEpoch between calls the same way.
     */
    std::vector<std::int16_t> xq;
    const Real *xqSource = nullptr;    //!< address the codes came from
    std::size_t xqSize = 0;
    std::uint64_t xqEpoch = 0;         //!< bumped per session step
    std::uint64_t xqStampedEpoch = ~std::uint64_t{0};

    /** Raw int64 row accumulators of one solo integer matvec (the
     *  simd::matvecCodes output, requantized into y right after).
     *  Plain scratch — no staging/epoch semantics. */
    std::vector<std::int64_t> yq;

    /**
     * Batched input value-code staging: the (features x lanes)
     * activation matrix transposed into lane-major int16 codes
     * (lane l's codes at xqh[l * features], contiguous), so the
     * integer GEMM runs int16 x int16 dot products over two
     * contiguous streams — the multiply-accumulate shape compilers
     * turn into widening-multiply SIMD. Epoch-scoped exactly like
     * xq; the four gate kernels of one step share one staging.
     */
    std::vector<std::int16_t> xqh;
    const Real *xqhSource = nullptr;
    std::size_t xqhSize = 0;
    std::uint64_t xqhStampedEpoch = ~std::uint64_t{0};

    /**
     * f32 input staging for the opt-in dense f32 mode: the input
     * narrowed to float once per step (feature-major, the f64
     * layout), shared by the gate kernels exactly like xq/xqh.
     * Epoch-scoped the same way.
     */
    std::vector<float> xf;
    const Real *xfSource = nullptr;
    std::size_t xfSize = 0;
    std::uint64_t xfStampedEpoch = ~std::uint64_t{0};

    /** Per-lane gather/scatter staging for the generic applyBatch
     *  fallback (kernels without a native batched path). */
    Vector laneIn, laneOut;

    /**
     * Release every lane-proportional staging buffer (the batched
     * int16 transpose and the per-lane FFT spectra/accumulators).
     * Called by the session's lane-pool high-water cap so one
     * oversized batch cannot pin per-lane scratch either.
     */
    void releaseLaneStaging()
    {
        xqh.clear();
        xqh.shrink_to_fit();
        xqhSource = nullptr;
        xqhSize = 0;
        xqhStampedEpoch = ~std::uint64_t{0};
        xf.clear();
        xf.shrink_to_fit();
        xfSource = nullptr;
        xfSize = 0;
        xfStampedEpoch = ~std::uint64_t{0};
        fft.laneSpec.clear();
        fft.laneSpec.shrink_to_fit();
        fft.laneSpecLanes = fft.laneSpecSegs = fft.laneSpecBins = 0;
        fft.laneAcc.clear();
        fft.laneAcc.shrink_to_fit();
        fftRec = circulant::FftWorkspace();
        fftParts.clear();
        fftParts.shrink_to_fit();
    }
};

/** Immutable y = W x kernel, shared across sessions. */
class LinearKernel
{
  public:
    virtual ~LinearKernel() = default;

    virtual std::size_t inDim() const = 0;
    virtual std::size_t outDim() const = 0;

    /**
     * y = W x. @p y must be presized to outDim(); implementations
     * must not allocate once @p scratch is warm.
     */
    virtual void apply(const Vector &x, Vector &y,
                       KernelScratch &scratch) const = 0;

    /**
     * Batch-major form: Y = W X over a (inDim x lanes) activation
     * matrix, one utterance lane per column. Every built-in backend
     * overrides this with a GEMM-shaped kernel that streams the
     * weights once per call instead of once per lane; the base-class
     * fallback gathers each lane through apply(), so column l of Y is
     * bit-identical to apply() on column l of X for every
     * implementation. @p y must be presized to outDim() x X.cols();
     * implementations must not allocate once @p scratch is warm.
     */
    virtual void applyBatch(const Matrix &x, Matrix &y,
                            KernelScratch &scratch) const;

    /** Registry name of the backend that produced this kernel. */
    virtual std::string backendName() const = 0;

    /** Stored parameter count (after compression). */
    virtual std::size_t storedParams() const = 0;
};

/**
 * Dense kernel: row-major matvec over weights it either owns or
 * *borrows*. A borrowed kernel points straight into an artifact v3
 * mapping (zero copy; the mapping must outlive the kernel) and runs
 * the exact arithmetic of the owned form — both delegate to the same
 * raw matvec/GEMM cores.
 */
class DenseKernel : public LinearKernel
{
  public:
    /** Own the weights; F32 additionally materializes a float copy
     *  and runs the f32 datapath (see CompileOptions::densePrecision). */
    explicit DenseKernel(Matrix w,
                         DensePrecision prec = DensePrecision::F64);

    /** Borrow a row-major rows x cols weight blob (no copy). Always
     *  f64: the blob is the artifact's, so there is nowhere to put a
     *  float copy without defeating zero-copy. */
    DenseKernel(const Real *w, std::size_t rows, std::size_t cols);

    std::size_t inDim() const override { return cols_; }
    std::size_t outDim() const override { return rows_; }
    void apply(const Vector &x, Vector &y,
               KernelScratch &scratch) const override;

    /** Cache-blocked GEMM: one pass over the weights per call. */
    void applyBatch(const Matrix &x, Matrix &y,
                    KernelScratch &scratch) const override;
    std::string backendName() const override { return "dense"; }
    std::size_t storedParams() const override { return rows_ * cols_; }

    /** The weight matrix; a borrowed kernel materializes a private
     *  copy on first use (serialization/introspection only — the
     *  serving path never calls this). Thread-safe. */
    const Matrix &weight() const;

    /** Row-major weight data, owned or borrowed. */
    const Real *weightData() const { return wd_; }

    /** True when the weights point into an external mapping. */
    bool borrowed() const { return borrowed_; }

    /** True when this kernel runs the f32 datapath. */
    bool f32() const { return f32_; }

  private:
    mutable Matrix w_;
    mutable std::once_flag materialize_;
    const Real *wd_ = nullptr;
    std::size_t rows_ = 0, cols_ = 0;
    bool borrowed_ = false;

    /** f32 mode: float weight copy (row-major) and the flag. */
    std::vector<float> wf_;
    bool f32_ = false;
};

/**
 * Block-circulant FFT kernel: owns the generators with their spectra
 * precomputed at compile() time; matvecs run the decoupled FFT path
 * through the session's shared workspace. The batched form splits
 * its segment FFTs and then its block rows across the session pool.
 */
class CirculantFftKernel : public LinearKernel
{
  public:
    explicit CirculantFftKernel(circulant::BlockCirculantMatrix w);

    std::size_t inDim() const override { return w_.cols(); }
    std::size_t outDim() const override { return w_.rows(); }
    void apply(const Vector &x, Vector &y,
               KernelScratch &scratch) const override;

    /** Per-lane segment FFTs, then generator-major frequency-domain
     *  accumulation: each cached generator spectrum is streamed once
     *  per call and reused across every lane. Two pool regions (over
     *  segments, then over block rows), one scratch per part. */
    void applyBatch(const Matrix &x, Matrix &y,
                    KernelScratch &scratch) const override;
    std::string backendName() const override { return "circulant-fft"; }
    std::size_t storedParams() const override { return w_.paramCount(); }

    const circulant::BlockCirculantMatrix &weight() const { return w_; }

  private:
    circulant::BlockCirculantMatrix w_;
};

/**
 * Fixed-point kernel: weights quantized per-tensor exactly as
 * quant::quantizeParams rounds them (range analysis -> chooseFormat
 * -> round-to-nearest with saturation), evaluated with time-domain
 * MACs as the PE array computes them. Dense and circulant weights
 * both supported; circulant storage stays compressed (generators).
 *
 * Weights at width <= 16 are additionally packed as contiguous int16
 * codes (dense: row-major; circulant: each generator stored doubled,
 * so every block row is one contiguous 16-bit dot product). apply()
 * through an armed KernelScratch runs the integer datapath: int64
 * accumulation of weight-code x value-code products, then
 * quant::FixedPointFormat::requantize onto the value grid — the
 * exact bits the f64 emulation followed by Datapath::post produces,
 * at int16 memory traffic instead of f64.
 */
class FixedPointKernel : public LinearKernel
{
  public:
    /** Quantize a dense operator's weights. */
    FixedPointKernel(const Matrix &w, int bits);

    /** Quantize a circulant operator's generators. */
    FixedPointKernel(const circulant::BlockCirculantMatrix &w,
                     int bits);

    /**
     * Rehydrate from *already-quantized* dense weights and the format
     * range analysis chose for them (artifact load path). No rounding
     * is applied: the values are trusted to be on the quantization
     * grid, so a loaded kernel is bit-identical to the saved one.
     */
    FixedPointKernel(Matrix quantized, quant::FixedPointFormat fmt);

    /** Rehydrate from already-quantized circulant generators. */
    FixedPointKernel(circulant::BlockCirculantMatrix quantized,
                     quant::FixedPointFormat fmt);

    /** Tag selecting the zero-copy (borrowed-codes) constructors. */
    struct Borrowed
    {
    };

    /**
     * Serve dense int16 weight codes *in place* (artifact v3 blob,
     * row-major, already validated in-range for @p fmt): no copy, no
     * re-verification. The codes must outlive the kernel. The f64
     * grid weights are materialized lazily and only if something
     * asks for them (emulation, re-serialization, introspection).
     */
    FixedPointKernel(Borrowed, const std::int16_t *codes,
                     std::size_t rows, std::size_t cols,
                     quant::FixedPointFormat fmt);

    /**
     * Serve circulant codes in place. @p doubledCodes is the compute
     * layout packWeights builds: per block, the generator codes
     * repeated twice (2*block entries), so each block row is one
     * contiguous slice.
     */
    FixedPointKernel(Borrowed, const std::int16_t *doubledCodes,
                     std::size_t rows, std::size_t cols,
                     std::size_t block, quant::FixedPointFormat fmt);

    std::size_t inDim() const override;
    std::size_t outDim() const override;

    /**
     * Integer datapath when @p scratch is armed with a value format
     * of width <= 16 and the weights are packed; the f64 emulation
     * otherwise. On the integer path @p y comes back already on the
     * value grid (requantized), so the session's Datapath::post is
     * an identity on it; the emulation returns the raw matvec and
     * relies on post for the rounding — bit-identical end to end.
     */
    void apply(const Vector &x, Vector &y,
               KernelScratch &scratch) const override;

    /** int16 x int16 -> int64 GEMM with the same round-half-even
     *  requantization as applyInteger on the armed path; the per-lane
     *  emulation fallback otherwise. Bit-identical per lane to
     *  apply() either way. */
    void applyBatch(const Matrix &x, Matrix &y,
                    KernelScratch &scratch) const override;
    std::string backendName() const override { return "fixed-point"; }
    std::size_t storedParams() const override;

    /**
     * The f64 reference datapath (the bit-exactness oracle): grid
     * weights stored as doubles, double-precision MACs, output NOT
     * requantized. Every product and partial sum is an exact integer
     * multiple of 2^-(wfrac+vfrac), which is what makes the integer
     * path reproduce it bit-for-bit.
     */
    void applyEmulated(const Vector &x, Vector &y) const;

    /** The per-tensor static scaling chosen by range analysis. */
    const quant::FixedPointFormat &weightFormat() const
    {
        return format_;
    }

    /** Flat quantized weight storage (dense entries or generators). */
    const std::vector<Real> &quantizedWeights() const;

    /** True when int16 weight codes are packed (width <= 16 and all
     *  stored weights verified on-grid and in-range). */
    bool integerPacked() const { return packed_; }

    /** True when the codes point into an external mapping. */
    bool borrowed() const { return borrowed_; }

    /** The packed int16 codes in compute layout (dense: row-major;
     *  circulant: doubled generators). Null when not packed. */
    const std::int16_t *packedCodes() const { return qwData_; }
    std::size_t packedCodeCount() const { return qwCount_; }

    /** Circulant block size (0 for dense storage). Available without
     *  materializing the f64 weights. */
    std::size_t circulantBlockSize() const { return block_; }

    /// @{ Storage introspection (artifact serialization). A borrowed
    /// kernel materializes the f64 grid weights on first call
    /// (thread-safe); the serving path never needs them.
    bool isCirculant() const { return circulant_; }
    const Matrix &denseWeight() const;
    const circulant::BlockCirculantMatrix &circulantWeight() const;
    /// @}

  private:
    /** Pack qw_ from the grid f64 storage; clears packed_ instead of
     *  dying when a stored weight is off-grid or out of range (only
     *  possible via a crafted artifact), falling back to emulation. */
    void packWeights();

    /** Borrowed mode: decode the f64 grid weights from the codes. */
    void ensureF64() const;

    void applyInteger(const Vector &x, Vector &y,
                      KernelScratch &scratch) const;

    void applyIntegerBatch(const Matrix &x, Matrix &y,
                           KernelScratch &scratch) const;

    quant::FixedPointFormat format_;
    bool circulant_ = false;
    mutable Matrix dense_;
    mutable circulant::BlockCirculantMatrix circ_;
    mutable std::once_flag materialize_;

    std::vector<std::int16_t> qw_;
    const std::int16_t *qwData_ = nullptr;
    std::size_t qwCount_ = 0;
    std::size_t rows_ = 0, cols_ = 0, block_ = 0;
    bool packed_ = false;
    bool borrowed_ = false;
};

/** Factory: freeze one trained operator into a kernel. */
using KernelFactory = std::function<std::unique_ptr<LinearKernel>(
    const nn::LinearOp &op, const CompileOptions &opts)>;

/**
 * Name -> factory registry the compiler selects kernels from. The
 * three built-in backends ("dense", "circulant-fft", "fixed-point")
 * are registered on first use; extensions may add their own.
 */
class KernelRegistry
{
  public:
    static KernelRegistry &instance();

    void registerFactory(const std::string &name, KernelFactory fn);
    bool has(const std::string &name) const;
    std::vector<std::string> names() const;

    std::unique_ptr<LinearKernel> make(const std::string &name,
                                       const nn::LinearOp &op,
                                       const CompileOptions &opts) const;

  private:
    KernelRegistry();
    std::map<std::string, KernelFactory> factories_;
};

/**
 * Resolve the registry name for one operator under a backend choice:
 * Auto and CirculantFft pick "circulant-fft" for circulant weights
 * and "dense" otherwise; Dense materializes everything dense;
 * FixedPoint quantizes everything.
 */
std::string resolveBackend(BackendKind kind, const nn::LinearOp &op);

} // namespace ernn::runtime

#endif // ERNN_RUNTIME_BACKEND_HH
