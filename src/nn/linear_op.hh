/**
 * @file
 * Trainable linear operators. The RNN cells are written against this
 * abstraction so that a weight matrix can be dense (the baseline and
 * the W of ADMM subproblem 1) or block-circulant (the compressed
 * model, trained directly through its generators) without the cell
 * code changing.
 */

#ifndef ERNN_NN_LINEAR_OP_HH
#define ERNN_NN_LINEAR_OP_HH

#include <memory>
#include <string>

#include "base/random.hh"
#include "circulant/block_circulant.hh"
#include "nn/param.hh"
#include "tensor/matrix.hh"
#include "tensor/vector_ops.hh"

namespace ernn::nn
{

/** Abstract y = W x operator with gradient support. */
class LinearOp
{
  public:
    virtual ~LinearOp() = default;

    virtual std::size_t inDim() const = 0;
    virtual std::size_t outDim() const = 0;

    /** y := W x (overwrites y, resizing if needed). */
    virtual void forward(const Vector &x, Vector &y) const = 0;

    /**
     * Backward pass: accumulate the weight gradient from (x, dy) and,
     * when @p dx is non-null, dx += Wᵀ dy.
     */
    virtual void backward(const Vector &x, const Vector &dy,
                          Vector *dx) = 0;

    /**
     * Batch-major forward: Y += W X, one utterance lane per column
     * (X is inDim x lanes, Y outDim x lanes; the caller zeroes Y).
     * Non-const because the circulant form stages per-lane spectra
     * in member workspaces. Column l of Y computes the exact bits
     * forward() computes on column l of X — the training parity
     * contract against the vector-at-a-time oracle (in
     * tests/test_train_batch.cc) rests on this.
     */
    virtual void forwardBatchAcc(const Matrix &x, Matrix &y) = 0;

    /**
     * Batch-major backward: accumulate the weight gradient from
     * (X, dY) — each weight entry sums its lane contributions in
     * ascending lane order, a fixed function of the lane layout — and
     * when @p dx is non-null, dX += Wᵀ dY (per-lane deterministic
     * like forwardBatchAcc).
     */
    virtual void backwardBatch(const Matrix &x, const Matrix &dy,
                               Matrix *dx) = 0;

    /**
     * True when the batched entry points run the circulant FFT path
     * and can therefore consume pre-staged lane spectra of their
     * operands (block size > 1, FFT mode). The RNN cells use this to
     * FFT each distinct activation once per timestep and share the
     * spectra across every gate operator that reads it — the serving
     * runtime's fused-gate idiom, applied to the training datapath.
     * Sharing is bit-identical to each operator transforming the
     * operand itself: the transforms are deterministic, and the
     * downstream accumulation chains don't change.
     */
    virtual bool sharesSpectra() const { return false; }

    /**
     * forwardBatchAcc from shared spectra: Y += W X where the lane
     * spectra of X are already staged in @p xspec by
     * circulant::computeSegmentSpectraBatch. Only callable when
     * sharesSpectra() is true.
     */
    virtual void forwardBatchAccFromSpectra(
        circulant::FftWorkspace &xspec, Matrix &y);

    /**
     * backwardBatch from shared spectra: input spectra in @p xspec,
     * upstream-gradient spectra in @p dyspec, summed over @p lanes
     * lanes. Only callable when sharesSpectra() is true.
     */
    virtual void backwardBatchFromSpectra(
        circulant::FftWorkspace &xspec,
        circulant::FftWorkspace &dyspec, std::size_t lanes,
        Matrix *dx);

    /** Register trainable buffers under the given name prefix. */
    virtual void registerParams(ParamRegistry &reg,
                                const std::string &prefix) = 0;

    /** Number of stored parameters. */
    virtual std::size_t paramCount() const = 0;

    /** Block size of the weight representation (1 for dense). */
    virtual std::size_t blockSize() const = 0;

    /** Dense weight matrix, or nullptr when not dense. */
    virtual Matrix *denseWeight() { return nullptr; }
    virtual const Matrix *denseWeight() const { return nullptr; }
    virtual Matrix *denseGrad() { return nullptr; }

    /** Circulant weight, or nullptr when dense. */
    virtual circulant::BlockCirculantMatrix *circulantWeight()
    {
        return nullptr;
    }
    virtual const circulant::BlockCirculantMatrix *
    circulantWeight() const
    {
        return nullptr;
    }

    /** Xavier-initialize the weights. */
    virtual void initXavier(Rng &rng) = 0;
};

/** Dense (uncompressed) linear operator. */
class DenseLinear : public LinearOp
{
  public:
    DenseLinear(std::size_t out_dim, std::size_t in_dim);

    std::size_t inDim() const override { return w_.cols(); }
    std::size_t outDim() const override { return w_.rows(); }
    void forward(const Vector &x, Vector &y) const override;
    void backward(const Vector &x, const Vector &dy,
                  Vector *dx) override;
    void forwardBatchAcc(const Matrix &x, Matrix &y) override;
    void backwardBatch(const Matrix &x, const Matrix &dy,
                       Matrix *dx) override;
    void registerParams(ParamRegistry &reg,
                        const std::string &prefix) override;
    std::size_t paramCount() const override { return w_.size(); }
    std::size_t blockSize() const override { return 1; }
    Matrix *denseWeight() override { return &w_; }
    const Matrix *denseWeight() const override { return &w_; }
    Matrix *denseGrad() override { return &g_; }
    void initXavier(Rng &rng) override { w_.initXavier(rng); }

  private:
    Matrix w_;
    Matrix g_;
};

/**
 * Block-circulant linear operator: stores only generators, runs the
 * FFT matvec forward, and trains the generators directly (the
 * gradient is the wrapped-diagonal sum of the dense gradient).
 */
class CirculantLinear : public LinearOp
{
  public:
    CirculantLinear(std::size_t out_dim, std::size_t in_dim,
                    std::size_t block_size);

    /** Build from a dense matrix via the Euclidean projection. */
    static std::unique_ptr<CirculantLinear>
    fromDense(const Matrix &dense, std::size_t block_size);

    std::size_t inDim() const override { return w_.cols(); }
    std::size_t outDim() const override { return w_.rows(); }
    void forward(const Vector &x, Vector &y) const override;
    void backward(const Vector &x, const Vector &dy,
                  Vector *dx) override;
    void forwardBatchAcc(const Matrix &x, Matrix &y) override;
    void backwardBatch(const Matrix &x, const Matrix &dy,
                       Matrix *dx) override;
    bool sharesSpectra() const override
    {
        return mode_ == circulant::MatvecMode::Fft &&
               w_.blockSize() > 1;
    }
    void forwardBatchAccFromSpectra(circulant::FftWorkspace &xspec,
                                    Matrix &y) override;
    void backwardBatchFromSpectra(circulant::FftWorkspace &xspec,
                                  circulant::FftWorkspace &dyspec,
                                  std::size_t lanes,
                                  Matrix *dx) override;
    void registerParams(ParamRegistry &reg,
                        const std::string &prefix) override;
    std::size_t paramCount() const override { return w_.paramCount(); }
    std::size_t blockSize() const override { return w_.blockSize(); }
    circulant::BlockCirculantMatrix *circulantWeight() override
    {
        return &w_;
    }
    const circulant::BlockCirculantMatrix *
    circulantWeight() const override
    {
        return &w_;
    }
    void initXavier(Rng &rng) override { w_.initXavier(rng); }

    /** Select the naive matvec (for tests / cross-checks). */
    void setMatvecMode(circulant::MatvecMode mode) { mode_ = mode; }

  private:
    circulant::BlockCirculantMatrix w_;
    circulant::BlockCirculantMatrix g_;
    circulant::MatvecMode mode_ = circulant::MatvecMode::Fft;

    // Batched-path scratch: per-lane segment spectra of the input
    // (wsX_) and of the upstream gradient (wsDy_), plus per-lane
    // vector staging for the block-size-1 / naive fallbacks. Member
    // (not shared) so replicated models train in parallel without
    // contending — each training group owns its op instances.
    circulant::FftWorkspace wsX_;
    circulant::FftWorkspace wsDy_;
    Vector xLane_, yLane_, dyLane_, dxLane_;
};

/**
 * Factory: dense when block_size == 1, circulant otherwise.
 */
std::unique_ptr<LinearOp> makeLinear(std::size_t out_dim,
                                     std::size_t in_dim,
                                     std::size_t block_size);

} // namespace ernn::nn

#endif // ERNN_NN_LINEAR_OP_HH
