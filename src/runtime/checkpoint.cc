#include "runtime/checkpoint.hh"

#include <iomanip>
#include <sstream>

#include "base/logging.hh"
#include "runtime/wire.hh"

namespace ernn::runtime
{

namespace detail
{

/**
 * Private-access key (friended by StreamState) that lets the
 * checkpoint codec in this translation unit read and rebuild stream
 * internals without widening the public surface sessions step on.
 */
struct StreamStateAccess
{
    static const std::vector<LayerState> &layers(const StreamState &s)
    {
        return s.layers_;
    }

    static std::vector<LayerState> &layers(StreamState &s)
    {
        return s.layers_;
    }

    static std::size_t frames(const StreamState &s)
    {
        return s.frames_;
    }

    static void stamp(StreamState &s, std::uint64_t fingerprint,
                      std::size_t frames)
    {
        s.model_ = fingerprint;
        s.frames_ = frames;
    }
};

} // namespace detail

namespace
{

using detail::fnv1a64;
using detail::FrameFormat;
using detail::Reader;
using detail::StreamStateAccess;
using detail::Writer;

constexpr FrameFormat kFormat{"ERNNCKPT", kCheckpointFormatVersion,
                             "stream checkpoint"};

/**
 * Plausibility bound on the per-layer state vectors a blob may
 * declare: far beyond any RNN layer width, small enough that a
 * crafted (checksum-valid) blob dies with a named fatal instead of
 * a giant allocation. Matches the artifact loader's kMaxDim.
 */
constexpr std::size_t kMaxStateDim = std::size_t{1} << 24;

} // namespace

std::uint64_t
modelFingerprint(const CompiledModel &model)
{
    // Canonical byte encoding of everything a stream's continuation
    // depends on structurally: state geometry per layer plus the
    // value-quantization semantics. Weights are values, not shape —
    // excluded on purpose (see the header).
    Writer w;
    w.bytes("ernn-stream-fingerprint-v1");
    w.size(model.inputSize());
    w.size(model.numClasses());
    const Datapath &dp = model.datapath();
    w.u8(dp.fixedPoint ? 1 : 0);
    w.i32(dp.fixedPoint ? dp.valueFormat.totalBits : 0);
    w.i32(dp.fixedPoint ? dp.valueFormat.fracBits : 0);
    w.size(model.numLayers());
    for (std::size_t i = 0; i < model.numLayers(); ++i) {
        const CompiledLayer &layer = model.layer(i);
        w.bytes(layer.kindName());
        w.size(layer.inputSize());
        w.size(layer.outputSize());
        LayerState probe;
        layer.initState(probe);
        w.size(probe.h.size());
        w.size(probe.c.size());
    }
    const std::string bytes = w.take();
    return fnv1a64(bytes.data(), bytes.size());
}

std::string
checkpointStream(const CompiledModel &model, const StreamState &state,
                 const std::string &aux)
{
    ernn_assert(StreamStateAccess::layers(state).size() ==
                model.numLayers(),
                "checkpoint: stream belongs to a different model ("
                << StreamStateAccess::layers(state).size()
                << " layers vs " << model.numLayers() << ")");

    Writer w;
    detail::beginFrame(w, kFormat);
    w.u64(modelFingerprint(model));
    w.u64(StreamStateAccess::frames(state));
    w.u32(static_cast<std::uint32_t>(model.numLayers()));
    for (const LayerState &l : StreamStateAccess::layers(state)) {
        w.reals(l.h);
        w.reals(l.c);
    }
    w.bytes(aux);
    return detail::sealFrame(w);
}

void
restoreStream(const CompiledModel &model, StreamState &state,
              const std::string &blob, std::string *aux)
{
    Reader r = detail::openFrame(blob, kFormat);

    const std::uint64_t fingerprint = r.u64("model fingerprint");
    const std::uint64_t expect = modelFingerprint(model);
    if (fingerprint != expect)
        ernn_fatal("stream checkpoint belongs to a different model "
                   "(fingerprint 0x" << std::hex << fingerprint
                   << ", this model is 0x" << expect << std::dec
                   << "): refusing to restore");

    const std::uint64_t frames = r.u64("frame counter");
    const std::size_t layers = r.u32("layer count");
    if (layers != model.numLayers())
        ernn_fatal("stream checkpoint carries " << layers
                   << " layer states, model has " << model.numLayers());

    // Decode into a staging area first: a restore either succeeds
    // completely or aborts, never leaving @p state half-overwritten.
    std::vector<LayerState> staged(layers);
    const Datapath &dp = model.datapath();
    for (std::size_t i = 0; i < layers; ++i) {
        r.realsInto(staged[i].h, "layer state h");
        r.realsInto(staged[i].c, "layer state c");
        // Defense in depth behind the fingerprint: the committed
        // state's geometry must match what the layer would create,
        // or the kernels' inner loops would index out of bounds.
        LayerState probe;
        model.layer(i).initState(probe);
        if (staged[i].h.size() != probe.h.size() ||
            staged[i].c.size() != probe.c.size() ||
            staged[i].h.size() > kMaxStateDim ||
            staged[i].c.size() > kMaxStateDim)
            ernn_fatal("stream checkpoint layer " << i << " state is "
                       << staged[i].h.size() << "/"
                       << staged[i].c.size() << " values, model layer "
                       "needs " << probe.h.size() << "/"
                       << probe.c.size());
        // Pin restored values to the value grid (identity for a
        // legitimate checkpoint): the integer datapath's LUTs index
        // by grid code, and an off-grid value smuggled past the
        // checksum would silently diverge from the f64 oracle.
        dp.post(staged[i].h);
        dp.post(staged[i].c);
    }

    std::string auxBytes;
    r.bytesInto(auxBytes, "aux payload");
    if (!r.done())
        ernn_fatal("stream checkpoint has " << r.remainingBytes()
                   << " undecoded payload bytes: writer/reader "
                   "version bug");

    StreamStateAccess::layers(state) = std::move(staged);
    StreamStateAccess::stamp(state, fingerprint,
                             static_cast<std::size_t>(frames));
    if (aux)
        *aux = std::move(auxBytes);
}

CheckpointInfo
describeCheckpoint(const std::string &blob)
{
    Reader r = detail::openFrame(blob, kFormat);
    CheckpointInfo info;
    info.version = kCheckpointFormatVersion;
    info.totalBytes = blob.size();
    info.fingerprint = r.u64("model fingerprint");
    info.frames = r.u64("frame counter");
    info.layers = r.u32("layer count");
    if (info.layers > kMaxStateDim)
        ernn_fatal("stream checkpoint declares " << info.layers
                   << " layers: implausible");
    std::vector<Real> scratch;
    for (std::size_t i = 0; i < info.layers; ++i) {
        r.realsInto(scratch, "layer state h");
        info.stateValues += scratch.size();
        r.realsInto(scratch, "layer state c");
        info.stateValues += scratch.size();
    }
    std::string auxBytes;
    r.bytesInto(auxBytes, "aux payload");
    info.auxBytes = auxBytes.size();
    if (!r.done())
        ernn_fatal("stream checkpoint has " << r.remainingBytes()
                   << " undecoded payload bytes: writer/reader "
                   "version bug");
    return info;
}

} // namespace ernn::runtime
