#include "nn/train_checkpoint.hh"

#include <cstring>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "base/logging.hh"
#include "runtime/wire.hh"

namespace ernn::nn
{

namespace
{

using runtime::detail::fnv1a64;
using runtime::detail::Reader;
using runtime::detail::Writer;

constexpr runtime::detail::FrameFormat kFormat{"ERNNTRST", 1,
                                              "training checkpoint"};

const char *
optKindName(TrainConfig::Opt opt)
{
    return opt == TrainConfig::Opt::Sgd ? "sgd" : "adam";
}

} // namespace

std::uint64_t
trainingFingerprint(const ParamRegistry &reg, const TrainConfig &cfg)
{
    // Canonical string encoding; any change to a field here is a
    // deliberate compatibility break.
    std::ostringstream os;
    os << "ernn-train-fingerprint-v1;";
    for (const ParamView &v : reg.views())
        os << v.name << ":" << v.size << ";";
    os << "opt=" << optKindName(cfg.optimizer)
       << ";batch=" << cfg.batchSize
       << ";lanes=" << cfg.groupLanes()
       << ";seed=" << cfg.shuffleSeed
       // The trainer once had a second (vector-at-a-time)
       // datapath; the literal keeps fingerprints — and with them
       // every train.state written before its removal — unchanged.
       << ";datapath=batched"
       << ";clip=" << std::setprecision(17) << cfg.clipNorm;
    const std::string bytes = os.str();
    return fnv1a64(bytes.data(), bytes.size());
}

void
saveTrainState(const std::string &path, const TrainState &state,
               const ParamRegistry &reg, std::uint64_t fingerprint)
{
    Writer w;
    runtime::detail::beginFrame(w, kFormat);
    w.u64(fingerprint);

    w.u64(state.nextEpoch);
    w.size(state.epochs.size());
    for (const EpochLog &e : state.epochs) {
        w.f64(e.trainLoss);
        w.f64(e.gradNorm);
        w.f64(e.wallMs);
        w.f64(e.framesPerSec);
        w.size(e.frames);
    }

    for (std::uint64_t s : state.shuffleRng.s)
        w.u64(s);
    w.u8(state.shuffleRng.hasSpare ? 1 : 0);
    w.f64(state.shuffleRng.spare);

    w.bytes(state.optimizerKind);
    w.u64(state.optimizer.steps);
    w.size(state.optimizer.slots.size());
    for (const std::vector<Real> &slot : state.optimizer.slots)
        w.reals(slot);

    w.size(reg.views().size());
    for (const ParamView &v : reg.views()) {
        w.bytes(v.name);
        w.reals(std::vector<Real>(v.data, v.data + v.size));
    }

    const std::string blob = runtime::detail::sealFrame(w);

    // Write-then-rename so a crash mid-save never clobbers the last
    // good checkpoint with a torn file.
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        ernn_assert(out.good(),
                    "cannot open '" << tmp << "' for writing");
        out.write(blob.data(),
                  static_cast<std::streamsize>(blob.size()));
        ernn_assert(out.good(), "short write to '" << tmp << "'");
    }
    ernn_assert(std::rename(tmp.c_str(), path.c_str()) == 0,
                "cannot rename '" << tmp << "' to '" << path << "'");
}

bool
loadTrainState(const std::string &path, TrainState &state,
               ParamRegistry &reg, std::uint64_t fingerprint)
{
    std::ifstream in(path, std::ios::binary);
    if (!in.good())
        return false; // no checkpoint yet: fresh start
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string blob = buf.str();

    Reader r = runtime::detail::openFrame(blob, kFormat);

    const std::uint64_t stored = r.u64("training fingerprint");
    if (stored != fingerprint)
        ernn_fatal("training checkpoint '" << path << "' belongs to a "
                   "different model or training setup (fingerprint 0x"
                   << std::hex << stored << ", this run is 0x"
                   << fingerprint << std::dec << "): refusing to "
                   "restore");

    // Decode into a staging area first: a restore either succeeds
    // completely or aborts, never leaving the model half-overwritten.
    TrainState staged;
    staged.nextEpoch = r.u64("epoch cursor");
    const std::size_t epochs = r.size("epoch log count");
    staged.epochs.resize(epochs);
    for (EpochLog &e : staged.epochs) {
        e.trainLoss = r.f64("epoch train loss");
        e.gradNorm = r.f64("epoch grad norm");
        e.wallMs = r.f64("epoch wall ms");
        e.framesPerSec = r.f64("epoch frames/s");
        e.frames = r.size("epoch frame count");
    }

    for (std::uint64_t &s : staged.shuffleRng.s)
        s = r.u64("shuffle rng word");
    staged.shuffleRng.hasSpare = r.u8("shuffle rng spare flag") != 0;
    staged.shuffleRng.spare = r.f64("shuffle rng spare value");

    r.bytesInto(staged.optimizerKind, "optimizer kind");
    staged.optimizer.steps = r.u64("optimizer step counter");
    const std::size_t slots = r.size("optimizer slot count");
    staged.optimizer.slots.resize(slots);
    for (std::vector<Real> &slot : staged.optimizer.slots)
        r.realsInto(slot, "optimizer slot");

    const std::size_t viewCount = r.size("parameter view count");
    if (viewCount != reg.views().size())
        ernn_fatal("training checkpoint carries " << viewCount
                   << " parameter views, model has "
                   << reg.views().size());
    std::vector<std::vector<Real>> params(viewCount);
    for (std::size_t i = 0; i < viewCount; ++i) {
        std::string name;
        r.bytesInto(name, "parameter view name");
        const ParamView &v = reg.views()[i];
        if (name != v.name)
            ernn_fatal("training checkpoint view " << i << " is '"
                       << name << "', model expects '" << v.name
                       << "'");
        r.realsInto(params[i], "parameter values");
        if (params[i].size() != v.size)
            ernn_fatal("training checkpoint view '" << name
                       << "' carries " << params[i].size()
                       << " values, model expects " << v.size);
    }

    if (!r.done())
        ernn_fatal("training checkpoint has " << r.remainingBytes()
                   << " undecoded payload bytes: writer/reader "
                   "version bug");

    // Commit.
    for (std::size_t i = 0; i < viewCount; ++i)
        std::memcpy(reg.views()[i].data, params[i].data(),
                    params[i].size() * sizeof(Real));
    reg.notifyUpdated();
    state = std::move(staged);
    return true;
}

} // namespace ernn::nn
