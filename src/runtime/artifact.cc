#include "runtime/artifact.hh"

#include <cmath>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <utility>

#ifndef _WIN32
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "base/logging.hh"
#include "base/strings.hh"
#include "runtime/compiled_layers.hh"
#include "runtime/wire.hh"

namespace ernn::runtime
{

namespace detail
{

/**
 * Private-access key (friended by CompiledModel) that lets the
 * loaders in this translation unit assemble models in place — the
 * mmap path needs to construct into shared ownership and attach the
 * mapping that owns its borrowed weight blobs.
 */
struct ArtifactAccess
{
    static std::shared_ptr<CompiledModel> makeShared()
    {
        return std::shared_ptr<CompiledModel>(new CompiledModel());
    }

    static std::vector<std::unique_ptr<CompiledLayer>> &
    layers(CompiledModel &m)
    {
        return m.layers_;
    }

    static std::unique_ptr<LinearKernel> &classifier(CompiledModel &m)
    {
        return m.classifier_;
    }

    static Vector &classifierBias(CompiledModel &m)
    {
        return m.classifierBias_;
    }

    static Datapath &datapath(CompiledModel &m)
    {
        return m.datapath_;
    }

    static CompileOptions &options(CompiledModel &m)
    {
        return m.options_;
    }

    static std::shared_ptr<const void> &mapping(CompiledModel &m)
    {
        return m.mapping_;
    }
};

} // namespace detail

namespace
{

// Concrete kernel encodings. The tag pins the exact class that will
// be rehydrated, so a loaded model runs the same datapath code. The
// *Q16 tags carry packed int16 grid codes; the f64 tags carry f64
// weights — for fixed point, the grid values of widths above 16 bits.
enum KernelTag : std::uint8_t
{
    kDense = 0,
    kCirculantFft = 1,
    kFixedPointDense = 2,
    kFixedPointCirculant = 3,
    kFixedPointDenseQ16 = 4,
    kFixedPointCirculantQ16 = 5,
};

enum LayerTag : std::uint8_t
{
    kLstm = 0,
    kGru = 1,
};

// Byte-level helpers (fnv1a64, Writer, Reader, the frame header) are
// shared with the checkpoint encoders — see runtime/wire.hh.
using detail::fnv1a64;
using detail::kChecksumBytes;
using detail::kFrameHeaderBytes;
using detail::Reader;
using detail::Writer;

constexpr detail::FrameFormat kFormat{
    "ERNNARTF", kArtifactFormatVersion, "artifact",
    ": re-create the artifact from its training checkpoint with "
    "`ernn compile --spec SPEC --checkpoint CKPT --out FILE`"};

/** Frame header plus the u64 metaEnd field. */
constexpr std::size_t kHeaderBytes =
    kFrameHeaderBytes + sizeof(std::uint64_t);

/** Next multiple of the blob alignment at or past @p off. */
constexpr std::size_t
align64(std::size_t off)
{
    return (off + kArtifactBlobAlign - 1) & ~(kArtifactBlobAlign - 1);
}

/**
 * Writer side of the blob section: kernels register their weight
 * payloads here and write a placeholder descriptor into the metadata
 * stream; once the metadata is complete the blob section is laid
 * out, every descriptor is patched (offset, byte count, FNV-1a of the
 * blob), and the blobs are appended 64-byte aligned.
 */
class BlobTable
{
  public:
    struct Entry
    {
        const void *data;
        std::size_t bytes;
        std::size_t patch;  //!< descriptor position in the metadata
        std::size_t offset; //!< assigned blob offset (layout pass)
    };

    /** Register @p bytes of payload; writes the placeholder
     *  descriptor. @p data must stay valid until serialization
     *  finishes (it points into the kernel being saved). */
    void add(Writer &w, const void *data, std::size_t bytes)
    {
        entries_.push_back(Entry{data, bytes, w.tell(), 0});
        w.u64(0); // offset
        w.u64(0); // bytes
        w.u64(0); // fnv1a
    }

    std::vector<Entry> &entries() { return entries_; }

  private:
    std::vector<Entry> entries_;
};

// --- kernels -----------------------------------------------------------

void
writeFormat(Writer &w, const quant::FixedPointFormat &fmt)
{
    w.i32(fmt.totalBits);
    w.i32(fmt.fracBits);
}

quant::FixedPointFormat
readFormat(Reader &r)
{
    quant::FixedPointFormat fmt;
    fmt.totalBits = r.i32("fixed-point total bits");
    fmt.fracBits = r.i32("fixed-point fraction bits");
    // Bound the format before any arithmetic on it: a crafted
    // (checksum-valid) file must die with a named fatal, not drive
    // ldexp/llrint into undefined territory while rehydrating.
    if (fmt.totalBits < 2 || fmt.totalBits > 32 ||
        fmt.fracBits < 0 || fmt.fracBits > 62)
        ernn_fatal("artifact payload: implausible fixed-point format Q"
                   << fmt.totalBits << "/" << fmt.fracBits);
    return fmt;
}

void
writeKernel(Writer &w, const LinearKernel &kernel, BlobTable &blobs)
{
    if (const auto *d = dynamic_cast<const DenseKernel *>(&kernel)) {
        w.u8(kDense);
        w.size(d->outDim());
        w.size(d->inDim());
        blobs.add(w, d->weightData(),
                  d->outDim() * d->inDim() * sizeof(Real));
        return;
    }
    if (const auto *c =
            dynamic_cast<const CirculantFftKernel *>(&kernel)) {
        const circulant::BlockCirculantMatrix &m = c->weight();
        w.u8(kCirculantFft);
        w.size(m.rows());
        w.size(m.cols());
        w.size(m.blockSize());
        blobs.add(w, m.raw().data(), m.raw().size() * sizeof(Real));
        return;
    }
    if (const auto *f =
            dynamic_cast<const FixedPointKernel *>(&kernel)) {
        // Packed kernels (width <= 16) store their int16 codes in
        // *compute layout* — circulant generators doubled — so a
        // mapped kernel serves the blob in place without repacking;
        // wider formats store the f64 grid values.
        const bool q16 = f->integerPacked();
        if (f->isCirculant())
            w.u8(q16 ? kFixedPointCirculantQ16 : kFixedPointCirculant);
        else
            w.u8(q16 ? kFixedPointDenseQ16 : kFixedPointDense);
        writeFormat(w, f->weightFormat());
        w.size(f->outDim());
        w.size(f->inDim());
        if (f->isCirculant())
            w.size(f->circulantBlockSize());
        if (q16) {
            blobs.add(w, f->packedCodes(),
                      f->packedCodeCount() * sizeof(std::int16_t));
        } else {
            const std::vector<Real> &vals = f->quantizedWeights();
            blobs.add(w, vals.data(), vals.size() * sizeof(Real));
        }
        return;
    }
    // Registry extensions can add serving kernels, but the artifact
    // format only encodes the built-in family.
    ernn_fatal("saveArtifact: kernel backend '" << kernel.backendName()
               << "' has no artifact encoding");
}

/**
 * Reader side of the blob section: resolves blob descriptors against
 * the file bytes. Every fetch validates the descriptor (byte count
 * against the metadata geometry, 64-byte alignment, file bounds, and
 * — unless verification is off — the blob's FNV-1a checksum), then
 * returns a pointer into the file. In zero-copy mode the caller hands
 * that pointer straight to a borrowing kernel; in copy mode it
 * memcpys.
 */
struct BlobResolver
{
    const char *base = nullptr;
    std::size_t fileSize = 0;
    std::size_t blobStart = 0; //!< first legal blob offset
    bool zeroCopy = false;
    bool verify = true;

    /** Layout record per blob, in metadata order (`ernn info`). */
    struct BlobInfo
    {
        const char *what;
        std::uint64_t offset;
        std::uint64_t bytes;
        bool inPlace; //!< served zero-copy under loadArtifactMapped
    };
    std::vector<BlobInfo> report;

    const char *fetch(Reader &r, std::size_t expect_bytes,
                      const char *what, bool in_place_eligible)
    {
        const std::uint64_t off = r.u64("blob offset");
        const std::uint64_t len = r.u64("blob byte count");
        const std::uint64_t sum = r.u64("blob checksum");
        if (len != expect_bytes)
            ernn_fatal("artifact blob: " << what << " declares "
                       << len << " bytes but the metadata geometry "
                       "needs " << expect_bytes);
        if (off % kArtifactBlobAlign != 0)
            ernn_fatal("artifact blob: " << what << " at offset "
                       << off << " is misaligned (every blob starts "
                       << kArtifactBlobAlign << "-byte aligned)");
        if (off < blobStart || off > fileSize ||
            len > fileSize - off)
            ernn_fatal("artifact blob: " << what << " at [" << off
                       << ", +" << len << ") lies outside the blob "
                       "section of the " << fileSize << "-byte file "
                       "(truncated?)");
        const char *p = base + off;
        if (verify) {
            const std::uint64_t actual = fnv1a64(p, len);
            if (actual != sum)
                ernn_fatal("artifact blob: " << what
                           << " checksum mismatch (stored 0x"
                           << std::hex << sum << ", computed 0x"
                           << actual << std::dec
                           << "): the file is corrupted");
        }
        report.push_back(BlobInfo{what, off, len, in_place_eligible});
        return p;
    }
};

/**
 * Dimension sanity bound: far beyond any RNN weight matrix, small
 * enough that products of checked dimensions cannot overflow and
 * that a crafted (checksum-valid) payload cannot trigger a giant
 * allocation — it dies with a named fatal instead of bad_alloc.
 */
constexpr std::size_t kMaxDim = std::size_t{1} << 24;

/** A kernel's geometry; block is 0 for a dense kernel. */
struct KernelDims
{
    std::size_t rows = 0;
    std::size_t cols = 0;
    std::size_t block = 0;
};

/** Read and bound a kernel's geometry before any size arithmetic. */
KernelDims
readDims(Reader &r, bool circulant)
{
    const char *what = circulant ? "circulant kernel" : "dense kernel";
    KernelDims d;
    d.rows = r.size(circulant ? "circulant kernel rows"
                              : "dense kernel rows");
    d.cols = r.size(circulant ? "circulant kernel cols"
                              : "dense kernel cols");
    if (circulant)
        d.block = r.size("circulant kernel block size");
    if (d.rows == 0 || d.cols == 0 || d.rows > kMaxDim ||
        d.cols > kMaxDim)
        ernn_fatal("artifact payload: implausible " << what
                   << " geometry " << d.rows << "x" << d.cols);
    if (circulant && (d.block == 0 || d.rows % d.block != 0 ||
                      d.cols % d.block != 0))
        ernn_fatal("artifact payload: circulant kernel " << d.rows
                   << "x" << d.cols << " not divisible by block "
                   << d.block);
    return d;
}

/** Copy a blob of row-major f64 weights into a Matrix. */
Matrix
copyDense(Reader &r, BlobResolver &blobs, const KernelDims &d,
          const char *what)
{
    const std::size_t n = d.rows * d.cols;
    const char *p = blobs.fetch(r, n * sizeof(Real), what, false);
    Matrix m(d.rows, d.cols);
    std::memcpy(m.data(), p, n * sizeof(Real));
    return m;
}

/** Copy a blob of f64 circulant generators. Spectra are re-derived
 *  by the kernel, so they are never stored. */
circulant::BlockCirculantMatrix
copyCirculant(Reader &r, BlobResolver &blobs, const KernelDims &d,
              const char *what)
{
    const std::size_t gens = d.rows / d.block * d.cols;
    const char *p = blobs.fetch(r, gens * sizeof(Real), what, false);
    circulant::BlockCirculantMatrix m(d.rows, d.cols, d.block);
    std::memcpy(m.raw().data(), p, gens * sizeof(Real));
    m.invalidateSpectra();
    return m;
}

/** The weight format of a Q16 kernel, which must fit int16 codes. */
quant::FixedPointFormat
readQ16Format(Reader &r, const char *what)
{
    const quant::FixedPointFormat fmt = readFormat(r);
    if (fmt.totalBits > 16)
        ernn_fatal("artifact payload: " << what << " stores int16 "
                   "codes for a " << fmt.totalBits << "-bit format");
    return fmt;
}

/** Die if any code lies outside the format's representable range. */
void
checkCodeRange(const std::int16_t *codes, std::size_t n,
               const quant::FixedPointFormat &fmt, const char *what)
{
    const std::int64_t lo = fmt.minQ(), hi = fmt.maxQ();
    for (std::size_t i = 0; i < n; ++i)
        if (codes[i] < lo || codes[i] > hi)
            ernn_fatal("artifact blob: " << what << " code "
                       << codes[i] << " outside [" << lo << ", "
                       << hi << "] of " << fmt.name());
}

std::unique_ptr<LinearKernel>
readKernel(Reader &r, BlobResolver &blobs)
{
    const std::uint8_t tag = r.u8("kernel tag");
    switch (tag) {
      case kDense: {
        const KernelDims d = readDims(r, false);
        if (!blobs.zeroCopy)
            return std::make_unique<DenseKernel>(
                copyDense(r, blobs, d, "dense f64 weights"));
        const char *p = blobs.fetch(r, d.rows * d.cols * sizeof(Real),
                                    "dense f64 weights", true);
        return std::make_unique<DenseKernel>(
            reinterpret_cast<const Real *>(p), d.rows, d.cols);
      }
      case kCirculantFft: {
        // Generator spectra must be re-derived on load regardless,
        // so the FFT backend copies its generators even when mapped.
        const KernelDims d = readDims(r, true);
        return std::make_unique<CirculantFftKernel>(
            copyCirculant(r, blobs, d, "circulant f64 generators"));
      }
      case kFixedPointDense: {
        const quant::FixedPointFormat fmt = readFormat(r);
        const KernelDims d = readDims(r, false);
        return std::make_unique<FixedPointKernel>(
            copyDense(r, blobs, d,
                      "fixed-point f64 weights (unpacked)"),
            fmt);
      }
      case kFixedPointCirculant: {
        const quant::FixedPointFormat fmt = readFormat(r);
        const KernelDims d = readDims(r, true);
        return std::make_unique<FixedPointKernel>(
            copyCirculant(r, blobs, d,
                          "fixed-point f64 generators (unpacked)"),
            fmt);
      }
      case kFixedPointDenseQ16: {
        const quant::FixedPointFormat fmt =
            readQ16Format(r, "dense kernel");
        const KernelDims d = readDims(r, false);
        const std::size_t n = d.rows * d.cols;
        const char *p = blobs.fetch(r, n * sizeof(std::int16_t),
                                    "dense int16 weight codes", true);
        const auto *codes = reinterpret_cast<const std::int16_t *>(p);
        if (blobs.verify || !blobs.zeroCopy)
            checkCodeRange(codes, n, fmt,
                           "dense int16 weight codes");
        if (blobs.zeroCopy)
            return std::make_unique<FixedPointKernel>(
                FixedPointKernel::Borrowed{}, codes, d.rows, d.cols,
                fmt);
        // Copy load: decode onto the grid; the rehydrating
        // constructor re-verifies while packing its compute layout.
        Matrix m(d.rows, d.cols);
        for (std::size_t i = 0; i < n; ++i)
            m.data()[i] = fmt.fromQ(codes[i]);
        return std::make_unique<FixedPointKernel>(std::move(m), fmt);
      }
      case kFixedPointCirculantQ16: {
        const quant::FixedPointFormat fmt =
            readQ16Format(r, "circulant kernel");
        const KernelDims d = readDims(r, true);
        const std::size_t block = d.block;
        const std::size_t blocks = d.rows / block * (d.cols / block);
        const std::size_t n = blocks * 2 * block;
        const char *p =
            blobs.fetch(r, n * sizeof(std::int16_t),
                        "circulant int16 generator codes", true);
        const auto *codes = reinterpret_cast<const std::int16_t *>(p);
        if (blobs.verify || !blobs.zeroCopy) {
            checkCodeRange(codes, n, fmt,
                           "circulant int16 generator codes");
            // The blob is the doubled compute layout; both halves of
            // every generator must agree or the blob was tampered
            // with (the second half would silently win for some rows).
            for (std::size_t b = 0; b < blocks; ++b)
                for (std::size_t j = 0; j < block; ++j)
                    if (codes[b * 2 * block + j] !=
                        codes[b * 2 * block + block + j])
                        ernn_fatal("artifact blob: inconsistent "
                                   "doubled generator codes in block "
                                   << b);
        }
        if (blobs.zeroCopy)
            return std::make_unique<FixedPointKernel>(
                FixedPointKernel::Borrowed{}, codes, d.rows, d.cols,
                block, fmt);
        circulant::BlockCirculantMatrix m(d.rows, d.cols, block);
        for (std::size_t b = 0; b < blocks; ++b)
            for (std::size_t j = 0; j < block; ++j)
                m.raw()[b * block + j] =
                    fmt.fromQ(codes[b * 2 * block + j]);
        m.invalidateSpectra();
        return std::make_unique<FixedPointKernel>(std::move(m), fmt);
      }
      default:
        ernn_fatal("artifact payload: unknown kernel tag "
                   << static_cast<int>(tag) << " at offset "
                   << r.pos());
    }
}

// --- vectors and activations -------------------------------------------

void
writeVector(Writer &w, const Vector &v)
{
    w.reals(v);
}

Vector
readVector(Reader &r, const char *what)
{
    Vector v;
    r.realsInto(v, what);
    return v;
}

std::uint8_t
actTag(nn::ActKind kind)
{
    return kind == nn::ActKind::Sigmoid ? 0 : 1;
}

nn::ActKind
readAct(Reader &r, const char *what)
{
    const std::uint8_t tag = r.u8(what);
    ernn_assert(tag <= 1, "artifact payload: bad activation tag "
                << static_cast<int>(tag) << " for " << what);
    return tag == 0 ? nn::ActKind::Sigmoid : nn::ActKind::Tanh;
}

// --- layers ------------------------------------------------------------

void
writeLstm(Writer &w, const detail::LstmParts &p, BlobTable &blobs)
{
    w.u8(kLstm);
    w.size(p.cfg.inputSize);
    w.size(p.cfg.hiddenSize);
    w.size(p.cfg.projectionSize);
    w.u8(p.cfg.peephole ? 1 : 0);
    w.size(p.cfg.blockSizeInput);
    w.size(p.cfg.blockSizeRecurrent);
    w.size(p.cfg.blockSizeProjection);
    w.u8(actTag(p.cfg.cellInputAct));
    w.u8(actTag(p.cfg.outputAct));

    const LinearKernel *order[8] = {
        p.wix.get(), p.wfx.get(), p.wcx.get(), p.wox.get(),
        p.wir.get(), p.wfr.get(), p.wcr.get(), p.wor.get()};
    for (const LinearKernel *k : order)
        writeKernel(w, *k, blobs);
    w.u8(p.wym ? 1 : 0);
    if (p.wym)
        writeKernel(w, *p.wym, blobs);

    writeVector(w, p.bi);
    writeVector(w, p.bf);
    writeVector(w, p.bc);
    writeVector(w, p.bo);
    writeVector(w, p.wic);
    writeVector(w, p.wfc);
    writeVector(w, p.woc);
}

std::unique_ptr<CompiledLayer>
readLstm(Reader &r, BlobResolver &blobs)
{
    detail::LstmParts p;
    p.cfg.inputSize = r.size("lstm input size");
    p.cfg.hiddenSize = r.size("lstm hidden size");
    p.cfg.projectionSize = r.size("lstm projection size");
    p.cfg.peephole = r.u8("lstm peephole flag") != 0;
    p.cfg.blockSizeInput = r.size("lstm input block size");
    p.cfg.blockSizeRecurrent = r.size("lstm recurrent block size");
    p.cfg.blockSizeProjection = r.size("lstm projection block size");
    p.cfg.cellInputAct = readAct(r, "lstm cell-input activation");
    p.cfg.outputAct = readAct(r, "lstm output activation");

    std::unique_ptr<LinearKernel> *order[8] = {
        &p.wix, &p.wfx, &p.wcx, &p.wox,
        &p.wir, &p.wfr, &p.wcr, &p.wor};
    for (auto *slot : order)
        *slot = readKernel(r, blobs);
    if (r.u8("lstm projection flag"))
        p.wym = readKernel(r, blobs);

    p.bi = readVector(r, "lstm bias bi");
    p.bf = readVector(r, "lstm bias bf");
    p.bc = readVector(r, "lstm bias bc");
    p.bo = readVector(r, "lstm bias bo");
    p.wic = readVector(r, "lstm peephole wic");
    p.wfc = readVector(r, "lstm peephole wfc");
    p.woc = readVector(r, "lstm peephole woc");

    // The parts constructor re-validates every shape, so a crafted
    // payload that passes the checksum still cannot build a model
    // with inconsistent geometry.
    return std::make_unique<detail::CompiledLstmLayer>(std::move(p));
}

void
writeGru(Writer &w, const detail::GruParts &p, BlobTable &blobs)
{
    w.u8(kGru);
    w.size(p.cfg.inputSize);
    w.size(p.cfg.hiddenSize);
    w.size(p.cfg.blockSizeInput);
    w.size(p.cfg.blockSizeRecurrent);
    w.u8(actTag(p.cfg.candidateAct));

    const LinearKernel *order[6] = {p.wzx.get(), p.wrx.get(),
                                    p.wcx.get(), p.wzc.get(),
                                    p.wrc.get(), p.wcc.get()};
    for (const LinearKernel *k : order)
        writeKernel(w, *k, blobs);

    writeVector(w, p.bz);
    writeVector(w, p.br);
    writeVector(w, p.bc);
}

std::unique_ptr<CompiledLayer>
readGru(Reader &r, BlobResolver &blobs)
{
    detail::GruParts p;
    p.cfg.inputSize = r.size("gru input size");
    p.cfg.hiddenSize = r.size("gru hidden size");
    p.cfg.blockSizeInput = r.size("gru input block size");
    p.cfg.blockSizeRecurrent = r.size("gru recurrent block size");
    p.cfg.candidateAct = readAct(r, "gru candidate activation");

    std::unique_ptr<LinearKernel> *order[6] = {
        &p.wzx, &p.wrx, &p.wcx, &p.wzc, &p.wrc, &p.wcc};
    for (auto *slot : order)
        *slot = readKernel(r, blobs);

    p.bz = readVector(r, "gru bias bz");
    p.br = readVector(r, "gru bias br");
    p.bc = readVector(r, "gru bias bc");
    return std::make_unique<detail::CompiledGruLayer>(std::move(p));
}

// --- file helpers ------------------------------------------------------

std::string
readFileBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        ernn_fatal("cannot open artifact file " << path);
    std::ostringstream buf;
    buf << is.rdbuf();
    if (!is && !is.eof())
        ernn_fatal("failed reading artifact file " << path);
    return buf.str();
}

// --- shared parse path -------------------------------------------------

/** Parse the model (options, layers, classifier) out of the metadata
 *  stream @p r; kernel reads resolve their blobs through @p blobs. */
void
parseModel(CompiledModel &out, Reader &r, BlobResolver &blobs)
{
    CompileOptions &options = detail::ArtifactAccess::options(out);
    const std::uint32_t backend = r.u32("backend kind");
    ernn_assert(backend <=
                    static_cast<std::uint32_t>(
                        BackendKind::FixedPoint),
                "artifact payload: unknown backend kind " << backend);
    options.backend = static_cast<BackendKind>(backend);
    options.fixedPointBits = r.i32("fixed-point bits");
    options.activationSegments = r.size("activation segments");
    options.activationRange = r.f64("activation range");
    options.fixedPointEmulation =
        r.u8("fixed-point emulation flag") != 0;
    // The datapath is re-derived from these options, so bound them
    // before makeDatapath can act on them: a crafted checksum-valid
    // file must die with a named fatal, not a giant PWL allocation.
    if (options.backend == BackendKind::FixedPoint) {
        if (options.fixedPointBits < 2 || options.fixedPointBits > 32)
            ernn_fatal("artifact payload: fixed-point bit width "
                       << options.fixedPointBits << " outside [2, 32]");
        if (options.activationSegments > (std::size_t{1} << 20))
            ernn_fatal("artifact payload: implausible PWL segment "
                       "count " << options.activationSegments);
        if (!std::isfinite(options.activationRange) ||
            options.activationRange <= 0.0)
            ernn_fatal("artifact payload: bad activation range "
                       << options.activationRange);
    }
    // PWL tables and the value format are deterministic functions of
    // the options; re-derive instead of storing them.
    detail::ArtifactAccess::datapath(out) =
        detail::makeDatapath(options);

    auto &outLayers = detail::ArtifactAccess::layers(out);
    const std::uint32_t layers = r.u32("layer count");
    ernn_assert(layers > 0, "artifact payload: zero layers");
    for (std::uint32_t i = 0; i < layers; ++i) {
        const std::uint8_t tag = r.u8("layer kind tag");
        std::unique_ptr<CompiledLayer> layer;
        switch (tag) {
          case kLstm:
            layer = readLstm(r, blobs);
            break;
          case kGru:
            layer = readGru(r, blobs);
            break;
          default:
            ernn_fatal("artifact payload: unknown layer tag "
                       << static_cast<int>(tag));
        }
        if (!outLayers.empty())
            ernn_assert(layer->inputSize() ==
                            outLayers.back()->outputSize(),
                        "artifact payload: layer " << i
                        << " input dim " << layer->inputSize()
                        << " does not chain from previous output "
                        << outLayers.back()->outputSize());
        outLayers.push_back(std::move(layer));
    }

    auto &classifier = detail::ArtifactAccess::classifier(out);
    Vector &classifierBias =
        detail::ArtifactAccess::classifierBias(out);
    classifier = readKernel(r, blobs);
    classifierBias = readVector(r, "classifier bias");
    ernn_assert(classifier->outDim() == classifierBias.size(),
                "artifact payload: classifier emits "
                << classifier->outDim() << " logits but bias has "
                << classifierBias.size());
    ernn_assert(classifier->inDim() ==
                    outLayers.back()->outputSize(),
                "artifact payload: classifier consumes "
                << classifier->inDim()
                << " features, last layer emits "
                << outLayers.back()->outputSize());
    ernn_assert(r.done(),
                "artifact payload: " << r.remainingBytes()
                << " unread bytes after the classifier");
}

/**
 * Validate and parse a complete artifact byte image into @p out.
 * Validation order is part of the error contract: magic first (is
 * this an artifact at all?), then version (can this build read it?),
 * then declared size (was it truncated?), and only then the metadata
 * checksum (each blob carries its own checksum, verified as it is
 * fetched unless @p verifyBlobs is off).
 */
void
parseArtifact(CompiledModel &out, const char *data, std::size_t size,
              bool zeroCopy, bool verifyBlobs,
              std::vector<BlobResolver::BlobInfo> *blobReport = nullptr)
{
    detail::checkFrameHeader(data, size, kHeaderBytes + kChecksumBytes,
                             kFormat);

    // The metadata stream [0, metaEnd) carries its own checksum at
    // metaEnd; the blob section past it is covered per blob.
    std::uint64_t metaEnd;
    std::memcpy(&metaEnd, data + kFrameHeaderBytes, sizeof metaEnd);
    if (metaEnd < kHeaderBytes || metaEnd > size - kChecksumBytes)
        ernn_fatal("truncated artifact: metadata end " << metaEnd
                   << " out of range of the " << size
                   << "-byte file");

    std::uint64_t stored;
    std::memcpy(&stored, data + metaEnd, sizeof stored);
    const std::uint64_t actual =
        fnv1a64(data, static_cast<std::size_t>(metaEnd));
    if (stored != actual)
        ernn_fatal("artifact metadata checksum mismatch (stored 0x"
                   << std::hex << stored << ", computed 0x" << actual
                   << std::dec << "): the file is corrupted");

    BlobResolver blobs;
    blobs.base = data;
    blobs.fileSize = size;
    blobs.blobStart =
        align64(static_cast<std::size_t>(metaEnd) + kChecksumBytes);
    blobs.zeroCopy = zeroCopy;
    blobs.verify = verifyBlobs;

    Reader r(data, static_cast<std::size_t>(metaEnd));
    for (std::size_t i = 0; i < 8; ++i)
        r.u8("magic");
    r.u32("format version");
    r.u64("declared size");
    r.u64("metadata end");
    parseModel(out, r, blobs);
    if (blobReport)
        *blobReport = std::move(blobs.report);
}

/**
 * Owns one read-only file mapping — the storage a zero-copy loaded
 * model borrows its weight blobs from. Falls back to a heap read on
 * platforms without mmap (and for empty files, which the parser then
 * rejects with the usual truncation fatal).
 */
class ArtifactMapping
{
  public:
    explicit ArtifactMapping(const std::string &path)
    {
#ifndef _WIN32
        const int fd = ::open(path.c_str(), O_RDONLY);
        if (fd < 0)
            ernn_fatal("cannot open artifact file " << path);
        struct stat st;
        if (::fstat(fd, &st) != 0) {
            ::close(fd);
            ernn_fatal("cannot stat artifact file " << path);
        }
        size_ = static_cast<std::size_t>(st.st_size);
        if (size_ == 0) {
            ::close(fd);
            return;
        }
        void *p =
            ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
        ::close(fd);
        if (p == MAP_FAILED)
            ernn_fatal("cannot mmap artifact file " << path);
        map_ = p;
        data_ = static_cast<const char *>(p);
#else
        fallback_ = readFileBytes(path);
        data_ = fallback_.data();
        size_ = fallback_.size();
#endif
    }

    ~ArtifactMapping()
    {
#ifndef _WIN32
        if (map_)
            ::munmap(map_, size_);
#endif
    }

    ArtifactMapping(const ArtifactMapping &) = delete;
    ArtifactMapping &operator=(const ArtifactMapping &) = delete;

    const char *data() const { return data_; }
    std::size_t size() const { return size_; }

  private:
    const char *data_ = nullptr;
    std::size_t size_ = 0;
#ifndef _WIN32
    void *map_ = nullptr;
#else
    std::string fallback_;
#endif
};

} // namespace

std::string
serializeArtifact(const CompiledModel &model)
{
    Writer w;
    detail::beginFrame(w, kFormat);
    const std::size_t meta_end_field = w.tell();
    w.u64(0); // metadata end, patched below
    BlobTable blobs;

    const CompileOptions &opts = model.options();
    w.u32(static_cast<std::uint32_t>(opts.backend));
    w.i32(opts.fixedPointBits);
    w.size(opts.activationSegments);
    w.f64(opts.activationRange);
    w.u8(opts.fixedPointEmulation ? 1 : 0);

    w.u32(static_cast<std::uint32_t>(model.numLayers()));
    for (std::size_t i = 0; i < model.numLayers(); ++i) {
        const CompiledLayer &layer = model.layer(i);
        if (const auto *lstm =
                dynamic_cast<const detail::CompiledLstmLayer *>(
                    &layer)) {
            writeLstm(w, lstm->parts(), blobs);
        } else if (const auto *gru =
                       dynamic_cast<const detail::CompiledGruLayer *>(
                           &layer)) {
            writeGru(w, gru->parts(), blobs);
        } else {
            ernn_fatal("saveArtifact: layer kind '"
                       << layer.kindName()
                       << "' has no artifact encoding");
        }
    }

    writeKernel(w, model.classifier(), blobs);
    writeVector(w, model.classifierBias());

    // The metadata stream ends here; lay out the blob section (every
    // blob 64-byte aligned) and patch each descriptor with its final
    // offset, byte count, and payload checksum.
    const std::size_t meta_end = w.tell();
    w.patchU64(meta_end_field, meta_end);
    std::size_t off = align64(meta_end + kChecksumBytes);
    for (auto &e : blobs.entries()) {
        e.offset = off;
        w.patchU64(e.patch, e.offset);
        w.patchU64(e.patch + sizeof(std::uint64_t), e.bytes);
        w.patchU64(e.patch + 2 * sizeof(std::uint64_t),
                   fnv1a64(static_cast<const char *>(e.data),
                           e.bytes));
        off = align64(off + e.bytes);
    }
    const std::size_t total =
        blobs.entries().empty()
            ? meta_end + kChecksumBytes
            : blobs.entries().back().offset +
                  blobs.entries().back().bytes;
    w.patchU64(detail::kFrameSizeField, total);

    std::string bytes = w.take();
    const std::uint64_t sum = fnv1a64(bytes.data(), meta_end);
    bytes.append(reinterpret_cast<const char *>(&sum), sizeof sum);
    bytes.resize(total, '\0'); // alignment padding + blob space
    for (const auto &e : blobs.entries())
        std::memcpy(&bytes[e.offset], e.data, e.bytes);
    return bytes;
}

void
saveArtifact(const CompiledModel &model, const std::string &path)
{
    const std::string bytes = serializeArtifact(model);
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os)
        ernn_fatal("cannot open artifact file " << path
                   << " for writing");
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size()));
    if (!os)
        ernn_fatal("failed writing artifact " << path);
}

CompiledModel
loadArtifactBytes(const std::string &bytes)
{
    CompiledModel out;
    parseArtifact(out, bytes.data(), bytes.size(),
                  /*zeroCopy=*/false, /*verifyBlobs=*/true);
    return out;
}

CompiledModel
loadArtifact(const std::string &path)
{
    return loadArtifactBytes(readFileBytes(path));
}

std::shared_ptr<const CompiledModel>
loadArtifactShared(const std::string &path)
{
    return std::shared_ptr<const CompiledModel>(
        new CompiledModel(loadArtifact(path)));
}

std::shared_ptr<const CompiledModel>
loadArtifactMapped(const std::string &path, MapOptions opts)
{
    auto mapping = std::make_shared<ArtifactMapping>(path);
    std::shared_ptr<CompiledModel> out =
        detail::ArtifactAccess::makeShared();
    parseArtifact(*out, mapping->data(), mapping->size(),
                  /*zeroCopy=*/true, opts.verifyBlobs);
    // The model borrows its weight blobs from the mapping, so it
    // keeps the mapping alive as long as it lives.
    detail::ArtifactAccess::mapping(*out) = std::move(mapping);
    return out;
}

std::string
describeArtifact(const std::string &path)
{
    const std::string bytes = readFileBytes(path);
    auto modelPtr = detail::ArtifactAccess::makeShared();
    std::vector<BlobResolver::BlobInfo> blobs;
    parseArtifact(*modelPtr, bytes.data(), bytes.size(),
                  /*zeroCopy=*/false, /*verifyBlobs=*/true, &blobs);
    const CompiledModel &model = *modelPtr;

    std::ostringstream os;
    os << path << ": " << model.describe() << "\n";
    os << "  format v" << kArtifactFormatVersion << ", "
       << fmtBytes(static_cast<double>(bytes.size()))
       << ", metadata and blob checksums ok\n";
    os << "  backend " << backendKindName(model.options().backend)
       << ", " << fmtGrouped(static_cast<long long>(
                     model.storedParams()))
       << " stored params, input dim " << model.inputSize()
       << ", " << model.numClasses() << " classes\n";
    if (model.datapath().fixedPoint) {
        os << "  datapath: "
           << (model.datapath().integerDatapath
                   ? "native int16"
                   : "f64 emulation")
           << ", " << model.options().fixedPointBits
           << "-bit values (" << model.datapath().valueFormat.name()
           << "), PWL tables "
           << model.options().activationSegments << " segments over [-"
           << model.options().activationRange << ", "
           << model.options().activationRange << "]\n";
    }
    for (std::size_t i = 0; i < model.numLayers(); ++i) {
        const CompiledLayer &layer = model.layer(i);
        os << "  layer " << i << ": " << layer.kindName() << " "
           << layer.inputSize() << " -> " << layer.outputSize()
           << ", " << fmtGrouped(static_cast<long long>(
                         layer.storedParams()))
           << " params";
        const auto kernels = layer.kernels();
        os << ", kernels";
        for (const LinearKernel *k : kernels) {
            os << " " << k->backendName();
            if (const auto *fp =
                    dynamic_cast<const FixedPointKernel *>(k))
                os << "(" << fp->weightFormat().name() << ")";
        }
        os << "\n";
    }
    os << "  classifier: " << model.classifier().backendName() << " "
       << model.classifier().inDim() << " -> "
       << model.classifier().outDim();
    if (const auto *fp = dynamic_cast<const FixedPointKernel *>(
            &model.classifier()))
        os << " (" << fp->weightFormat().name() << ")";
    os << "\n";
    os << "  blob section: " << blobs.size() << " blobs, every "
       << "offset " << kArtifactBlobAlign << "-byte aligned\n";
    for (const auto &b : blobs)
        os << "    [" << std::setw(10) << b.offset << ", +" << b.bytes
           << ") " << b.what << ": "
           << (b.inPlace ? "mapped in place under loadArtifactMapped"
                         : "copied on load")
           << "\n";
    return os.str();
}

} // namespace ernn::runtime
