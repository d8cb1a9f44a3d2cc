/**
 * @file
 * Training checkpoint: everything needed to resume an interrupted
 * training run bit-identically to one that never stopped — model
 * parameters, optimizer moments + step counter, the shuffle RNG
 * state, the epoch cursor, and the per-epoch log so far.
 *
 * The on-disk format follows the runtime artifact/checkpoint idiom
 * (runtime/wire.hh): little-endian fixed-width fields framed by an
 * 8-byte magic, a format version, a declared total size, and a
 * trailing FNV-1a checksum. A fingerprint of the model architecture
 * and the arithmetic-relevant training configuration is embedded so
 * a checkpoint can never be restored into a run it does not match.
 */

#ifndef ERNN_NN_TRAIN_CHECKPOINT_HH
#define ERNN_NN_TRAIN_CHECKPOINT_HH

#include <cstdint>
#include <string>

#include "base/random.hh"
#include "nn/optimizer.hh"
#include "nn/param.hh"
#include "nn/trainer.hh"

namespace ernn::nn
{

/**
 * Mutable training progress carried by a checkpoint (parameters
 * travel separately, straight from/into the ParamRegistry).
 */
struct TrainState
{
    /** First epoch the resumed run still has to execute. */
    std::uint64_t nextEpoch = 0;

    /** Per-epoch log of the completed epochs. */
    std::vector<EpochLog> epochs;

    /** Shuffle RNG, captured after the last completed epoch. */
    RngState shuffleRng;

    /** Optimizer kind tag ("sgd" / "adam"), checked on restore. */
    std::string optimizerKind;

    /** Optimizer moments + step counter. */
    OptimizerState optimizer;
};

/**
 * Fingerprint of everything a checkpoint's bit-identical continuation
 * depends on: the registry layout (view names and sizes) and the
 * arithmetic-relevant training config (optimizer kind, batch size,
 * group lanes, shuffle seed, clip norm). The learning rate
 * and the thread count are excluded on purpose: threads never change
 * the arithmetic (groups reduce in fixed index order), and the
 * learning rate is an operator knob that may legitimately change
 * between restarts.
 */
std::uint64_t trainingFingerprint(const ParamRegistry &reg,
                                  const TrainConfig &cfg);

/**
 * Atomically rewrite @p path with the full training checkpoint:
 * @p state plus every parameter view in @p reg. Fatal on I/O errors.
 */
void saveTrainState(const std::string &path, const TrainState &state,
                    const ParamRegistry &reg,
                    std::uint64_t fingerprint);

/**
 * Restore a checkpoint written by saveTrainState().
 *
 * @return false when @p path does not exist (fresh start); true after
 *         a successful restore into @p state and @p reg (owners are
 *         notified so cached spectra refresh). Any malformation —
 *         bad magic/version/size/checksum, a fingerprint that does
 *         not match (checkpoint from a different model or training
 *         setup), or a view mismatch — is a named fatal, never a
 *         silent partial restore.
 */
bool loadTrainState(const std::string &path, TrainState &state,
                    ParamRegistry &reg, std::uint64_t fingerprint);

} // namespace ernn::nn

#endif // ERNN_NN_TRAIN_CHECKPOINT_HH
