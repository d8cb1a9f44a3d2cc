/**
 * @file
 * Portable CompiledModel artifacts: the on-disk form of a deployed
 * model, the persistent half of the paper's train-once / deploy-many
 * split. saveArtifact() serializes a frozen model — backend choice,
 * cell configurations, quantization metadata, and every weight blob —
 * into a single versioned binary file; loadArtifact() rebuilds a
 * CompiledModel that serves *bit-identically* to the original, with
 * no training stack involved.
 *
 * Format (all integers little-endian on every supported platform —
 * host-endian, documented as x86-64/AArch64-little). Metadata and
 * weight payloads are split so a model can be served straight out of
 * an mmap with zero copy:
 *
 *   offset 0   magic "ERNNARTF"             (8 bytes)
 *          8   u32 formatVersion = 3
 *         12   u64 totalFileBytes
 *         20   u64 metaEnd                  (offset of metaChecksum)
 *         28   metadata stream:
 *                CompileOptions (backend kind, fixed-point bits, PWL
 *                  segments/range, u8 emulation flag)
 *                u32 layerCount
 *                per layer: cell kind tag, cell config, kernels in
 *                  canonical gate order, frozen bias/peephole vectors
 *                classifier kernel + frozen classifier bias
 *              Every kernel stores its tag, quantization format
 *              where applicable, dims, and a *blob descriptor*
 *              {u64 offset, u64 bytes, u64 fnv1a} in place of its
 *              weights; biases stay inline (they are copied anyway).
 *   metaEnd    u64 FNV-1a checksum over bytes [0, metaEnd)
 *              zero padding to a 64-byte boundary
 *              blob section: each blob starts 64-byte aligned,
 *              zero-padded in between; totalFileBytes ends the last
 *
 * Blob payloads are stored in *compute layout*. Dense f64 weights
 * are row-major and served in place by a borrowing DenseKernel.
 * Packed fixed-point weights (width <= 16) are int16 grid codes —
 * code q means weight q * 2^-fracBits, an exact reconstruction —
 * row-major for dense kernels and as doubled generators for
 * circulant ones (each block row one contiguous slice), served in
 * place by a borrowing FixedPointKernel. Circulant-FFT generators are
 * copied on load (their spectra must be re-derived regardless), as
 * are wider fixed-point weights, stored as their f64 grid values.
 *
 * Each kernel records its concrete backend (dense / circulant-fft /
 * fixed-point dense / fixed-point circulant), its geometry, its
 * quantization format where applicable, and its weight payload — so
 * the round trip is bit-exact by construction. Derived state is never
 * stored: circulant generator spectra and fixed-point PWL activation
 * tables are re-derived deterministically on load. Files of the
 * retired formats 1 and 2 are rejected with a version fatal that says
 * how to re-create them (`ernn compile`).
 *
 * Error contract: every failure is fatal and informative
 * (ernn_fatal): unreadable file, bad magic, format version skew,
 * truncation (declared size vs. actual), checksum mismatch, and
 * structurally inconsistent payloads each name the file and the
 * specific defect, as do out-of-bounds, misaligned, and
 * checksum-mismatched blob descriptors. A loaded artifact is
 * therefore either fully usable or the process has already said
 * exactly why not.
 */

#ifndef ERNN_RUNTIME_ARTIFACT_HH
#define ERNN_RUNTIME_ARTIFACT_HH

#include <memory>
#include <string>

#include "runtime/compiled_model.hh"

namespace ernn::runtime
{

/** The artifact format version this build writes and reads. */
constexpr std::uint32_t kArtifactFormatVersion = 3;

/** Alignment of every weight blob (cache-line sized, and enough for
 *  any element type the blobs carry). */
constexpr std::size_t kArtifactBlobAlign = 64;

/**
 * Serialize a frozen model to its portable byte representation. The
 * encoding is canonical: re-serializing a loaded model reproduces
 * the bytes exactly.
 */
std::string serializeArtifact(const CompiledModel &model);

/** Write serialized bytes to @p path; fatal on I/O failure. */
void saveArtifact(const CompiledModel &model, const std::string &path);

/**
 * Rebuild a CompiledModel from artifact bytes. Fatal (with the
 * specific defect) on bad magic, version skew, truncation, checksum
 * mismatch, or inconsistent payload. The result serves bit-identically
 * to the model that was saved.
 */
CompiledModel loadArtifactBytes(const std::string &bytes);

/** Load an artifact file; fatal on I/O failure or any format error. */
CompiledModel loadArtifact(const std::string &path);

/**
 * Load an artifact into shared ownership — the form a long-lived
 * server wants: the returned model can outlive the loading scope and
 * be shared (immutable) across any number of sessions and threads.
 */
std::shared_ptr<const CompiledModel>
loadArtifactShared(const std::string &path);

/** Knobs for the zero-copy load path. */
struct MapOptions
{
    /**
     * Verify every blob's FNV-1a checksum while mapping (one
     * sequential read of the weight bytes). Off, the load trusts the
     * blob section entirely — microseconds to first inference for a
     * model store that was already verified at publish time.
     */
    bool verifyBlobs = true;
};

/**
 * Memory-map an artifact and serve straight out of the mapping: the
 * file's dense f64 and packed int16 weight blobs are *borrowed* by
 * the kernels (zero copy — a cold model is ready to serve in
 * milliseconds), and the returned model owns the mapping for its
 * whole lifetime. Fatal on any format error, with the same
 * named-defect contract as loadArtifact.
 */
std::shared_ptr<const CompiledModel>
loadArtifactMapped(const std::string &path, MapOptions opts = {});

/** Human-readable multi-line summary of an artifact file (the CLI's
 *  `ernn info`): backend, layers, kernels, quantization metadata,
 *  and the blob section layout (offset, size, alignment,
 *  mapped-in-place vs copied-on-load). */
std::string describeArtifact(const std::string &path);

} // namespace ernn::runtime

#endif // ERNN_RUNTIME_ARTIFACT_HH
