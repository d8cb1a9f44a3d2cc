/**
 * @file
 * Immutable deployed-model artifact. runtime::compile() freezes a
 * trained nn::StackedRnn into a CompiledModel, mirroring the paper's
 * train -> compress -> quantize -> deploy pipeline: per-layer matvec
 * kernels are selected from the backend registry, circulant spectra
 * are precomputed, and (for the FixedPoint backend) weights are
 * rounded to their per-tensor static scaling and activations replaced
 * by the Phase II piecewise-linear tables.
 *
 * A CompiledModel is shared, read-only state. All mutable buffers
 * (recurrent state, gate scratch, FFT workspaces) belong to the
 * InferenceSession objects it creates.
 *
 * A compiled model is also *portable*: runtime/artifact.hh persists
 * it to a versioned, checksummed binary file and loads it back
 * bit-exactly, so serving processes (serve::InferenceServer, the
 * `ernn` CLI) never need the training stack.
 */

#ifndef ERNN_RUNTIME_COMPILED_MODEL_HH
#define ERNN_RUNTIME_COMPILED_MODEL_HH

#include <memory>
#include <string>
#include <vector>

#include "nn/activation.hh"
#include "nn/rnn.hh"
#include "runtime/backend.hh"

namespace ernn::runtime
{

class InferenceSession;

namespace detail
{
struct ArtifactAccess;
} // namespace detail

/**
 * Frozen datapath semantics shared by every compiled layer: exact
 * arithmetic for the float backends, or value quantization after
 * every operation plus PWL activation tables for FixedPoint (the
 * discipline the HLS interpreter applies in hardware mode).
 */
struct Datapath
{
    bool fixedPoint = false;
    quant::FixedPointFormat valueFormat{}; //!< used when fixedPoint
    std::shared_ptr<const nn::PiecewiseLinear> sigmoidTable;
    std::shared_ptr<const nn::PiecewiseLinear> tanhTable;

    /**
     * Native integer datapath armed: FixedPoint kernels run int16
     * MACs with int64 accumulation and activations resolve through
     * the integer-indexed LUTs below. False in emulation mode
     * (CompileOptions::fixedPointEmulation) and above 16 bits, where
     * the f64 reference semantics run instead — bit-identical either
     * way.
     */
    bool integerDatapath = false;

    /**
     * Folded activate+post lookup tables for the integer datapath:
     * one already-requantized output value per value-grid code
     * (2^totalBits entries, indexed by code - minQ). Precomputed from
     * the exact same PWL/exact activation + post the emulation runs,
     * so equality is by construction.
     */
    std::shared_ptr<const Vector> sigmoidLut;
    std::shared_ptr<const Vector> tanhLut;

    /** Quantize a produced value vector (no-op when exact). */
    void post(Vector &v) const { post(v.data(), v.size()); }

    /** post() over the @p n values at @p v. */
    void post(Real *v, std::size_t n) const
    {
        if (!fixedPoint)
            return;
        for (std::size_t i = 0; i < n; ++i)
            v[i] = valueFormat.quantize(v[i]);
    }

    /** Apply an activation through the configured implementation to
     *  the @p n values at @p v. */
    void activate(nn::ActKind kind, Real *v, std::size_t n) const;
};

/** Per-layer recurrent state: owned by streams, sized by the layer. */
struct LayerState
{
    Vector h; //!< previous output y_{t-1} (empty when unused)
    Vector c; //!< cell state c_{t-1}
};

/** Per-layer preallocated step scratch: owned by sessions. */
struct LayerScratch
{
    Vector g1, g2, g3, g4; //!< gate buffers
    Vector t1, t2, t3;     //!< cell/candidate temporaries
};

/**
 * Batch-major recurrent state of one layer: feature x lanes matrices,
 * one utterance lane per column. Owned by the session's run() pool;
 * lane l's column holds exactly the bits the per-utterance LayerState
 * would hold after the same frames.
 */
struct LayerBatchState
{
    Matrix h; //!< previous outputs y_{t-1} (empty when unused)
    Matrix c; //!< cell states c_{t-1}
};

/** Batch-major per-layer step scratch (see LayerScratch). */
struct LayerBatchScratch
{
    Matrix g1, g2, g3, g4; //!< gate buffers
    Matrix t1, t2, t3;     //!< cell/candidate temporaries
};

/** One frozen recurrent layer: immutable kernels + step semantics. */
class CompiledLayer
{
  public:
    virtual ~CompiledLayer() = default;

    virtual std::size_t inputSize() const = 0;
    virtual std::size_t outputSize() const = 0;
    virtual std::string kindName() const = 0;
    virtual std::size_t storedParams() const = 0;

    /** Size (and zero) a state object for this layer. */
    virtual void initState(LayerState &state) const = 0;

    /** Presize a scratch object for this layer. */
    virtual void initScratch(LayerScratch &scratch) const = 0;

    /**
     * One recurrent step: read @p x and @p state (t-1), write the
     * layer output into the presized @p y, and advance @p state.
     * Must not allocate once scratch and state are warm.
     */
    virtual void step(const Vector &x, LayerState &state, Vector &y,
                      LayerScratch &scratch, KernelScratch &kernels,
                      const Datapath &dp) const = 0;

    /** Size (and zero) batch-major state for @p lanes utterances.
     *  Reuses the matrices' backing storage across calls. */
    virtual void initBatchState(LayerBatchState &state,
                                std::size_t lanes) const = 0;

    /** Presize batch-major scratch for @p lanes utterances. */
    virtual void initBatchScratch(LayerBatchScratch &scratch,
                                  std::size_t lanes) const = 0;

    /**
     * One recurrent step over every lane at once: read the
     * (inputSize x lanes) matrix @p x and @p state (t-1), write the
     * layer outputs into the presized (outputSize x lanes) @p y, and
     * advance @p state. Each kernel runs one GEMM-shaped batched call
     * instead of a matvec per lane; column l of every result is
     * bit-identical to step() on lane l alone. Must not allocate once
     * scratch and state are warm.
     */
    virtual void stepBatch(const Matrix &x, LayerBatchState &state,
                           Matrix &y, LayerBatchScratch &scratch,
                           KernelScratch &kernels,
                           const Datapath &dp) const = 0;

    /** All kernels of this layer (introspection / reporting). */
    virtual std::vector<const LinearKernel *> kernels() const = 0;
};

/**
 * Immutable deployed model; create with runtime::compile(). Pinned
 * in place once constructed (not movable or copyable): sessions hold
 * a reference to their model, so moving one would silently dangle
 * every outstanding session. Wrap in a smart pointer to store in
 * containers.
 */
class CompiledModel
{
  public:
    std::size_t numLayers() const { return layers_.size(); }
    const CompiledLayer &layer(std::size_t i) const
    {
        return *layers_[i];
    }

    std::size_t inputSize() const;
    std::size_t numClasses() const
    {
        return classifierBias_.size();
    }

    const LinearKernel &classifier() const { return *classifier_; }
    const Vector &classifierBias() const { return classifierBias_; }

    const Datapath &datapath() const { return datapath_; }
    const CompileOptions &options() const { return options_; }

    /** Total stored parameters across kernels and biases. */
    std::size_t storedParams() const;

    /** e.g. "compiled[circulant-fft] lstm64->lstm64->classes10". */
    std::string describe() const;

    /**
     * Create an inference session bound to this model. The session
     * borrows the model: keep the model alive while sessions run.
     */
    /** @p computeThreads 0 inherits options().computeThreads; any
     *  other value overrides it for this session alone. */
    InferenceSession createSession(std::size_t computeThreads = 0) const;

    /**
     * True when this model serves weights borrowed from an mmapped
     * artifact (v3 zero-copy load). The model owns the mapping, so
     * no extra caller-side lifetime management is needed.
     */
    bool mapped() const { return mapping_ != nullptr; }

  private:
    friend CompiledModel compile(const nn::StackedRnn &,
                                 const CompileOptions &);
    friend std::shared_ptr<const CompiledModel>
    compileShared(const nn::StackedRnn &, const CompileOptions &);
    /** The artifact loader (runtime/artifact.hh) assembles a model
     *  directly from deserialized kernels. */
    friend CompiledModel loadArtifactBytes(const std::string &);
    /** Private-access key for the mmap loader (runtime/artifact.cc):
     *  assembles a model in place and attaches the mapping that owns
     *  its borrowed weight blobs. */
    friend struct detail::ArtifactAccess;
    CompiledModel() = default;

    /** Only compile() may move its result out (NRVO return path);
     *  callers receive a prvalue, which binds without moving. */
    CompiledModel(CompiledModel &&) = default;
    CompiledModel &operator=(CompiledModel &&) = delete;

    std::vector<std::unique_ptr<CompiledLayer>> layers_;
    std::unique_ptr<LinearKernel> classifier_;
    Vector classifierBias_;
    Datapath datapath_;
    CompileOptions options_;

    /** Keeps an mmapped artifact alive for the life of the model
     *  when kernels borrow their weight blobs from it. */
    std::shared_ptr<const void> mapping_;
};

/**
 * Freeze a trained model into an immutable serving artifact. The
 * model is read, never modified; the result shares nothing with it.
 */
CompiledModel compile(const nn::StackedRnn &model,
                      const CompileOptions &opts = {});

/**
 * compile() onto the heap under shared ownership — the form the
 * fleet layer wants: a serve::ModelRegistry (or InferenceServer)
 * keeps the model alive exactly as long as something serves it.
 */
std::shared_ptr<const CompiledModel>
compileShared(const nn::StackedRnn &model,
              const CompileOptions &opts = {});

} // namespace ernn::runtime

#endif // ERNN_RUNTIME_COMPILED_MODEL_HH
