/**
 * @file
 * Concrete compiled layer implementations (runtime-internal).
 *
 * A compiled layer is assembled from a *parts* bundle — the frozen
 * kernels, biases, and static configuration that fully determine its
 * datapath. Two producers build the same bundles:
 *
 *  - runtime::compile() freezes a trained nn:: layer (kernels are
 *    selected from the backend registry, biases rounded per-tensor
 *    for the FixedPoint backend);
 *  - runtime::loadArtifact() rehydrates the bundle from a serialized
 *    artifact (spectra and PWL tables are re-derived, never stored).
 *
 * Keeping construction parts-based is what makes the on-disk artifact
 * format (runtime/artifact.hh) a faithful, bit-exact mirror of the
 * in-memory model: save() walks the parts, load() rebuilds them.
 *
 * This header is internal to src/runtime — user code should only see
 * CompiledLayer through CompiledModel::layer().
 *
 * Threading: stepBatch() runs on the compute pool the session lends
 * via KernelScratch::pool (null = serial). When every gate matrix
 * runs the CirculantFFT backend, a step is a few pool regions of its
 * own: the shared segment FFTs, then per range of gate rows the
 * spectra MAC + IFFT of every gate and the whole cell update of
 * those rows (the GRU adds a barrier for Wcc, which reads r . c'
 * over all rows). Otherwise each gate kernel splits its own rows and
 * the cell update runs as one more region. Layers never spawn
 * threads, and no partition reorders an accumulation chain or
 * crosses an elementwise op, so any thread count produces the
 * serial bits.
 */

#ifndef ERNN_RUNTIME_COMPILED_LAYERS_HH
#define ERNN_RUNTIME_COMPILED_LAYERS_HH

#include <memory>

#include "nn/gru.hh"
#include "nn/lstm.hh"
#include "runtime/compiled_model.hh"

namespace ernn::runtime::detail
{

/**
 * Frozen tensors of one LSTM layer. Kernels must be non-null (except
 * wym, null when the config has no projection); peephole vectors are
 * empty when cfg.peephole is false. Biases and peepholes hold their
 * *frozen* values — already rounded for the FixedPoint backend — so
 * a rehydrated bundle needs no re-quantization.
 */
struct LstmParts
{
    nn::LstmConfig cfg;
    std::unique_ptr<LinearKernel> wix, wfx, wcx, wox; //!< gates on x_t
    std::unique_ptr<LinearKernel> wir, wfr, wcr, wor; //!< gates on y_{t-1}
    std::unique_ptr<LinearKernel> wym;                //!< projection (opt.)
    Vector bi, bf, bc, bo;                            //!< gate biases
    Vector wic, wfc, woc;                             //!< diag. peepholes
};

/** Frozen tensors of one GRU layer (see LstmParts). */
struct GruParts
{
    nn::GruConfig cfg;
    std::unique_ptr<LinearKernel> wzx, wrx, wcx; //!< gates on x_t
    std::unique_ptr<LinearKernel> wzc, wrc, wcc; //!< gates on c_{t-1}
    Vector bz, br, bc;                           //!< gate biases
};

/**
 * Row-major (rows x lanes) views of the buffers one step works on:
 * stepBatch()'s matrices, or step()'s vectors as lanes = 1. The cell
 * updates run over row ranges of these views, so one code path
 * serves the solo step, the batched step and every pool part.
 */
struct StepRows
{
    std::size_t lanes;
    Real *g1, *g2, *g3, *g4; //!< gate buffers
    Real *t1, *t2, *t3;      //!< cell/candidate temporaries
    const Real *c;           //!< cell state c_{t-1}
    Real *y;                 //!< layer output rows (null: none)
    Real *h;                 //!< y_{t-1} rows to overwrite (null: none)
};

class CompiledLstmLayer : public CompiledLayer
{
  public:
    /** Assemble from frozen parts; panics on inconsistent shapes. */
    explicit CompiledLstmLayer(LstmParts parts);

    std::size_t inputSize() const override;
    std::size_t outputSize() const override;
    std::string kindName() const override { return "lstm"; }
    std::size_t storedParams() const override;

    void initState(LayerState &state) const override;
    void initScratch(LayerScratch &scratch) const override;
    void step(const Vector &x, LayerState &state, Vector &y,
              LayerScratch &scratch, KernelScratch &kernels,
              const Datapath &dp) const override;
    void initBatchState(LayerBatchState &state,
                        std::size_t lanes) const override;
    void initBatchScratch(LayerBatchScratch &scratch,
                          std::size_t lanes) const override;
    void stepBatch(const Matrix &x, LayerBatchState &state, Matrix &y,
                   LayerBatchScratch &scratch, KernelScratch &kernels,
                   const Datapath &dp) const override;
    std::vector<const LinearKernel *> kernels() const override;

    /** Read-only view of the frozen parts (artifact serialization). */
    const LstmParts &parts() const { return p_; }

  private:
    /**
     * The cell update of rows [r0, r1) once the gate pre-activations
     * are in g1..g4: peepholes, biases, activations, c_t into t2 and
     * m_t into t3 (copied to y and h when set: no projection).
     */
    void cellRows(const StepRows &v, std::size_t r0, std::size_t r1,
                  const Datapath &dp) const;

    LstmParts p_;

    /** Shared-operand gate groups {i, f, g, o} on x and on y_{t-1}
     *  (empty = unfused fallback; stepBatch fuses only when both
     *  groups are present). */
    std::vector<const circulant::BlockCirculantMatrix *> fusedInput_;
    std::vector<const circulant::BlockCirculantMatrix *> fusedRec_;
};

class CompiledGruLayer : public CompiledLayer
{
  public:
    /** Assemble from frozen parts; panics on inconsistent shapes. */
    explicit CompiledGruLayer(GruParts parts);

    std::size_t inputSize() const override;
    std::size_t outputSize() const override;
    std::string kindName() const override { return "gru"; }
    std::size_t storedParams() const override;

    void initState(LayerState &state) const override;
    void initScratch(LayerScratch &scratch) const override;
    void step(const Vector &x, LayerState &state, Vector &y,
              LayerScratch &scratch, KernelScratch &kernels,
              const Datapath &dp) const override;
    void initBatchState(LayerBatchState &state,
                        std::size_t lanes) const override;
    void initBatchScratch(LayerBatchScratch &scratch,
                          std::size_t lanes) const override;
    void stepBatch(const Matrix &x, LayerBatchState &state, Matrix &y,
                   LayerBatchScratch &scratch, KernelScratch &kernels,
                   const Datapath &dp) const override;
    std::vector<const LinearKernel *> kernels() const override;

    /** Read-only view of the frozen parts (artifact serialization). */
    const GruParts &parts() const { return p_; }

  private:
    /** Rows [r0, r1) of the z/r gates (g1/g2 pre-activations in) and
     *  of r . c' into t2, the operand of Wcc. */
    void gateRows(const StepRows &v, std::size_t r0, std::size_t r1,
                  const Datapath &dp) const;

    /** Rows [r0, r1) of the candidate (g3 holds Wcx x, t1 holds
     *  Wcc (r . c')) and the blend into t3 and y. */
    void blendRows(const StepRows &v, std::size_t r0, std::size_t r1,
                   const Datapath &dp) const;

    GruParts p_;

    /** Shared-operand groups {z, r, c~} on x and {z, r, c~} on the
     *  state — Wcc last, run on r . c' (empty = unfused fallback;
     *  stepBatch fuses only when both groups are present). */
    std::vector<const circulant::BlockCirculantMatrix *> fusedInput_;
    std::vector<const circulant::BlockCirculantMatrix *> fusedRec_;
};

/**
 * Rebuild the frozen datapath (value format + PWL activation tables)
 * from compile options. Deterministic: compile() and loadArtifact()
 * both call this, so a loaded artifact's tables are bit-identical to
 * the originals without ever being stored.
 */
Datapath makeDatapath(const CompileOptions &opts);

} // namespace ernn::runtime::detail

#endif // ERNN_RUNTIME_COMPILED_LAYERS_HH
