/**
 * @file
 * ADMM-based structured matrix training (Sec. III-B, Figs. 5-6).
 *
 * The block-circulant constraint is handled by decomposing training
 * into two subproblems solved alternately until the weights converge
 * to the structured format:
 *
 *  1. minimize f({W}) + sum_l rho/2 ||W_l - Z_l^k + U_l^k||_F^2 —
 *     ordinary SGD/Adam with a quadratic pull toward the structured
 *     target (implemented as a gradient hook on the base Trainer);
 *  2. Z_l^{k+1} = Proj(W_l^{k+1} + U_l^k) — the closed-form
 *     Euclidean mapping onto the block-circulant set (Eqn. 6);
 *
 * followed by the dual update U_l += W_l - Z_l. Convergence is
 * declared when the worst relative primal residual ||W - Z|| / ||W||
 * falls below the tolerance; hardProject() then snaps the weights
 * onto the constraint set exactly.
 */

#ifndef ERNN_ADMM_ADMM_TRAINER_HH
#define ERNN_ADMM_ADMM_TRAINER_HH

#include <vector>

#include "circulant/block_circulant.hh"
#include "nn/model_builder.hh"
#include "nn/trainer.hh"

namespace ernn::admm
{

/** ADMM hyperparameters. */
struct AdmmConfig
{
    Real rho = 0.5;                   //!< augmented-Lagrangian weight
    /**
     * Continuation schedule: rho is multiplied by this factor after
     * every outer iteration (1.0 disables). Growing rho is the
     * standard way to force the primal residual to zero once the
     * loss has adapted to the structure.
     */
    Real rhoGrowth = 1.3;
    std::size_t iterations = 8;       //!< outer ADMM iterations
    std::size_t epochsPerIteration = 3;
    Real convergenceTol = 0.05;       //!< relative primal residual
    /**
     * Subproblem-1 settings. The threads/batchLanes fields flow
     * straight through to the inner nn::Trainer, so ADMM Phase I/II
     * run on the batched multicore datapath; the
     * gradient hook fires on the master registry after the fixed-
     * order group reduction, so ADMM keeps the trainer's thread-
     * count determinism. Checkpoint fields are ignored (see run()).
     */
    nn::TrainConfig train;
    bool verbose = false;
};

/** Per-iteration convergence record (the Fig. 6 trace). */
struct AdmmIterationLog
{
    std::size_t iteration = 0;
    Real trainLoss = 0.0;
    Real primalResidual = 0.0;   //!< max ||W - Z||_F over constraints
    Real relativeResidual = 0.0; //!< max ||W - Z|| / ||W||
};

/** Aggregate ADMM run result. */
struct AdmmResult
{
    std::vector<AdmmIterationLog> log;
    bool converged = false;
};

class AdmmTrainer
{
  public:
    AdmmTrainer(nn::StackedRnn &model, const AdmmConfig &cfg);

    /**
     * Constrain a dense weight matrix to the block-circulant set
     * with the given block size. The op must be dense (ADMM trains
     * the unconstrained W; the structure lives in Z).
     */
    void constrain(nn::LinearOp &op, std::size_t block_size);

    /** Number of constrained matrices. */
    std::size_t constraintCount() const { return constraints_.size(); }

    /** Run the ADMM iterations on the dataset. */
    AdmmResult run(const nn::SequenceDataset &data);

    /** Snap every constrained W onto its structured format. */
    void hardProject();

    /** Worst relative primal residual across constraints. */
    Real maxRelativeResidual() const;

  private:
    struct Constraint
    {
        nn::LinearOp *op;
        std::size_t blockSize;
        Matrix z; //!< dense materialization of the structured target
        Matrix u; //!< scaled dual variable
    };

    void gradHook(nn::ParamRegistry &reg);
    void updateZU();

    nn::StackedRnn &model_;
    AdmmConfig cfg_;
    Real rho_;
    std::vector<Constraint> constraints_;
};

/**
 * Constrain every weight matrix of @p model to the block sizes the
 * target @p spec prescribes (recurrent matrices at blockFor(l),
 * input/projection matrices at inputBlockFor(l)). The model must
 * have been built dense from the same layer geometry.
 */
void constrainFromSpec(AdmmTrainer &trainer, nn::StackedRnn &model,
                       const nn::ModelSpec &spec);

} // namespace ernn::admm

#endif // ERNN_ADMM_ADMM_TRAINER_HH
