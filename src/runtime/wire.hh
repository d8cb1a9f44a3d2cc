/**
 * @file
 * Shared byte-level serialization helpers for the library's on-disk
 * and over-the-wire encodings: the model artifact (artifact.cc), the
 * stream checkpoint blob (checkpoint.cc) and the training checkpoint
 * (nn/train_checkpoint.cc). All three are little-endian fixed-width
 * fields behind one frame header and guarded by FNV-1a checksums;
 * keeping the Writer/Reader pair and the frame validator in one place
 * keeps their error contracts identical — every malformed input is
 * fatal and names what was being read.
 */

#ifndef ERNN_RUNTIME_WIRE_HH
#define ERNN_RUNTIME_WIRE_HH

#include <cstdint>
#include <cstring>
#include <ios>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "tensor/vector_ops.hh"

namespace ernn::runtime::detail
{

/** FNV-1a over @p n bytes — the artifact/checkpoint checksum. */
inline std::uint64_t
fnv1a64(const char *data, std::size_t n)
{
    std::uint64_t h = 14695981039346656037ull;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= static_cast<unsigned char>(data[i]);
        h *= 1099511628211ull;
    }
    return h;
}

/** Append-only byte sink for the fixed-width encodings. */
class Writer
{
  public:
    void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }

    void u32(std::uint32_t v) { raw(&v, sizeof v); }
    void u64(std::uint64_t v) { raw(&v, sizeof v); }
    void i32(std::int32_t v) { raw(&v, sizeof v); }
    void f64(double v) { raw(&v, sizeof v); }

    void size(std::size_t v) { u64(static_cast<std::uint64_t>(v)); }

    void reals(const std::vector<Real> &v)
    {
        size(v.size());
        if (!v.empty())
            raw(v.data(), v.size() * sizeof(Real));
    }

    void bytes(const std::string &v)
    {
        size(v.size());
        if (!v.empty())
            raw(v.data(), v.size());
    }

    void patchU64(std::size_t offset, std::uint64_t v)
    {
        std::memcpy(&buf_[offset], &v, sizeof v);
    }

    std::size_t tell() const { return buf_.size(); }
    std::string take() { return std::move(buf_); }

  private:
    void raw(const void *p, std::size_t n)
    {
        buf_.append(static_cast<const char *>(p), n);
    }

    std::string buf_;
};

/**
 * Bounds-checked cursor over serialized bytes. Overruns are fatal
 * and name what was being read — with a valid checksum they indicate
 * a writer/reader version bug, not bit rot. @p context prefixes
 * every diagnostic ("artifact payload", "stream checkpoint", ...).
 */
class Reader
{
  public:
    Reader(const char *buf, std::size_t payload_end,
           const char *context = "artifact payload")
        : buf_(buf), end_(payload_end), context_(context)
    {
    }

    std::uint8_t u8(const char *what)
    {
        std::uint8_t v;
        raw(&v, sizeof v, what);
        return v;
    }

    std::uint32_t u32(const char *what)
    {
        std::uint32_t v;
        raw(&v, sizeof v, what);
        return v;
    }

    std::uint64_t u64(const char *what)
    {
        std::uint64_t v;
        raw(&v, sizeof v, what);
        return v;
    }

    std::int32_t i32(const char *what)
    {
        std::int32_t v;
        raw(&v, sizeof v, what);
        return v;
    }

    double f64(const char *what)
    {
        double v;
        raw(&v, sizeof v, what);
        return v;
    }

    std::size_t size(const char *what)
    {
        return static_cast<std::size_t>(u64(what));
    }

    void realsInto(std::vector<Real> &out, const char *what)
    {
        const std::size_t n = size(what);
        ernn_assert(n <= (end_ - pos_) / sizeof(Real),
                    context_ << ": " << what << " claims " << n
                    << " values past the end of the payload");
        out.resize(n);
        if (n)
            raw(out.data(), n * sizeof(Real), what);
    }

    void bytesInto(std::string &out, const char *what)
    {
        const std::size_t n = size(what);
        ernn_assert(n <= end_ - pos_,
                    context_ << ": " << what << " claims " << n
                    << " bytes past the end of the payload");
        out.resize(n);
        if (n)
            raw(&out[0], n, what);
    }

    std::size_t pos() const { return pos_; }
    bool done() const { return pos_ == end_; }
    std::size_t remainingBytes() const { return end_ - pos_; }

  private:
    void raw(void *p, std::size_t n, const char *what)
    {
        if (end_ - pos_ < n)
            ernn_fatal(context_ << " ends while reading " << what
                       << " (offset " << pos_ << " of " << end_
                       << " payload bytes)");
        std::memcpy(p, buf_ + pos_, n);
        pos_ += n;
    }

    const char *buf_;
    std::size_t pos_ = 0;
    std::size_t end_;
    const char *context_;
};

/**
 * Identity of one sealed binary format. Every format this library
 * writes opens with the same header — 8-byte magic, u32 format
 * version, u64 total bytes — and the validators below check it in one
 * order, which is part of each format's error contract: magic first
 * (is this the format at all?), then version (can this build read
 * it?), then declared size (was it truncated?), and only then the
 * checksum (was it corrupted?).
 */
struct FrameFormat
{
    const char *magic;     //!< exactly 8 bytes, not NUL-terminated
    std::uint32_t version; //!< the one version this build reads
    const char *noun;      //!< names the format in every diagnostic
    const char *versionHint = ""; //!< appended to the version fatal
};

/** Magic + version + total bytes. */
constexpr std::size_t kFrameHeaderBytes =
    8 + sizeof(std::uint32_t) + sizeof(std::uint64_t);
/** Offset of the u64 total-bytes field. */
constexpr std::size_t kFrameSizeField = 8 + sizeof(std::uint32_t);
constexpr std::size_t kChecksumBytes = sizeof(std::uint64_t);

/** Write the frame header; total bytes is patched by the caller
 *  (or by sealFrame). */
inline void
beginFrame(Writer &w, const FrameFormat &f)
{
    for (std::size_t i = 0; i < 8; ++i)
        w.u8(static_cast<std::uint8_t>(f.magic[i]));
    w.u32(f.version);
    w.u64(0);
}

/** Finish a frame whose checksum trails the payload: patch total
 *  bytes, then append FNV-1a over every preceding byte (total bytes
 *  included). */
inline std::string
sealFrame(Writer &w)
{
    w.patchU64(kFrameSizeField, w.tell() + kChecksumBytes);
    std::string blob = w.take();
    const std::uint64_t sum = fnv1a64(blob.data(), blob.size());
    blob.append(reinterpret_cast<const char *>(&sum), sizeof sum);
    return blob;
}

/**
 * Validate magic, version and declared size, in that order. Fatal
 * with a named diagnostic on the first defect; @p min_size is the
 * smallest well-formed frame (header plus checksum at least).
 */
inline void
checkFrameHeader(const char *data, std::size_t size,
                 std::size_t min_size, const FrameFormat &f)
{
    if (size < min_size)
        ernn_fatal("truncated " << f.noun << ": " << size
                   << " bytes is smaller than the " << min_size
                   << "-byte header");
    if (std::memcmp(data, f.magic, 8) != 0)
        ernn_fatal("not a valid " << f.noun << " (bad magic)");

    std::uint32_t version;
    std::memcpy(&version, data + 8, sizeof version);
    if (version != f.version)
        ernn_fatal(f.noun << " format version " << version
                   << " is not supported by this build (reads "
                   << f.version << ")" << f.versionHint);

    std::uint64_t declared;
    std::memcpy(&declared, data + kFrameSizeField, sizeof declared);
    if (declared != size) {
        if (size < declared)
            ernn_fatal("truncated " << f.noun << ": header declares "
                       << declared << " bytes, only " << size
                       << " present");
        ernn_fatal(f.noun << " has " << size - declared
                   << " trailing bytes past the declared " << declared
                   << "-byte payload");
    }
}

/**
 * Validate a frame sealed by sealFrame() — header, then the trailing
 * checksum — and return a Reader over its payload, positioned past
 * the header.
 */
inline Reader
openFrame(const std::string &blob, const FrameFormat &f)
{
    const char *data = blob.data();
    const std::size_t size = blob.size();
    checkFrameHeader(data, size, kFrameHeaderBytes + kChecksumBytes, f);

    std::uint64_t stored;
    std::memcpy(&stored, data + size - kChecksumBytes, sizeof stored);
    const std::uint64_t actual = fnv1a64(data, size - kChecksumBytes);
    if (stored != actual)
        ernn_fatal(f.noun << " checksum mismatch (stored 0x" << std::hex
                   << stored << ", computed 0x" << actual << std::dec
                   << "): the " << f.noun << " is corrupted");

    Reader r(data, size - kChecksumBytes, f.noun);
    for (std::size_t i = 0; i < 8; ++i)
        r.u8("magic");
    r.u32("format version");
    r.u64("declared size");
    return r;
}

} // namespace ernn::runtime::detail

#endif // ERNN_RUNTIME_WIRE_HH
