/**
 * @file
 * Fleet layer: a versioned ModelRegistry that owns many
 * CompiledModels keyed by (model id, version) and routes requests by
 * id, plus the RegistryServer façade the CLI serves through.
 *
 * The core operation is the zero-downtime hot swap. publish() of a
 * new version builds the replacement InferenceServer *outside* any
 * lock (model compile / artifact mmap happens while the old version
 * keeps serving), atomically retargets the id so every later
 * submission lands on the new version, then drains the old server —
 * every request it already accepted completes normally — and
 * releases it (and with it the old CompiledModel, once no stream
 * handle pins it). Because a submission holds the entry's shared
 * lock for the whole InferenceServer::submit call and the swap needs
 * the unique lock, no registry submitter can ever observe the old
 * server mid-shutdown: hot swaps lose zero requests and fail zero
 * submissions, by construction.
 *
 * Thread-safety contract:
 *  - Every ModelRegistry / RegistryServer public method is safe to
 *    call concurrently from any number of threads.
 *  - Entry routing state is guarded by a per-id base::SharedMutex
 *    (machine-checked: every routed field carries ERNN_GUARDED_BY):
 *    submissions and stats reads share it, publish/retire take it
 *    exclusively. The id -> entry map has its own SharedMutex;
 *    entries are never destroyed while the registry lives, so an
 *    Entry pointer obtained under the map lock stays valid after it
 *    is released.
 *  - A ModelStream pins the server (and model) it was opened on via
 *    shared_ptr; after that version is retired its steps throw, but
 *    the handle never dangles.
 */

#ifndef ERNN_SERVE_REGISTRY_HH
#define ERNN_SERVE_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/sync.hh"
#include "runtime/artifact.hh"
#include "serve/inference_server.hh"

namespace ernn::serve
{

/** Point-in-time view of one published model for models(). */
struct ModelInfo
{
    std::string id;
    std::uint64_t version = 0;  //!< 0 once retired
    bool serving = false;       //!< false once retired
    std::size_t pendingRequests = 0;
    std::size_t generations = 0; //!< versions ever published under id
    ServerStats stats; //!< cumulative across every version of the id
};

/**
 * A streaming utterance opened through the registry. Pinned to the
 * model version current at open time: a hot swap does not disturb
 * frames already submitted, but later steps throw (the caller
 * reopens on the new version). Holding the handle keeps the pinned
 * server — and its model — alive, so it never dangles.
 */
class ModelStream
{
  public:
    ModelStream() = default;

    /** Logits for the next frame (throws after the version retired). */
    std::future<Vector> step(Vector frame)
    {
        return stream_.step(std::move(frame));
    }

    Vector stepSync(Vector frame)
    {
        return stream_.stepSync(std::move(frame));
    }

    std::future<void> reset() { return stream_.reset(); }

    /** Checkpoint this stream's live state (see
     *  InferenceServer::Stream::checkpoint) — the blob restores into
     *  any stream of a structurally identical model, including a
     *  later published version with the same geometry. */
    std::future<std::string> checkpoint(std::string aux = {})
    {
        return stream_.checkpoint(std::move(aux));
    }

    std::string checkpointSync(std::string aux = {})
    {
        return stream_.checkpointSync(std::move(aux));
    }

    /** Restore a checkpoint blob into this stream (see
     *  InferenceServer::Stream::restore). */
    std::future<void> restore(std::string blob)
    {
        return stream_.restore(std::move(blob));
    }

    void restoreSync(std::string blob)
    {
        stream_.restoreSync(std::move(blob));
    }

    bool open() const { return stream_.open(); }

    /** Drop the pin: the retired server may now be released. */
    void close()
    {
        stream_.close();
        server_.reset();
    }

  private:
    friend class ModelRegistry;
    ModelStream(std::shared_ptr<InferenceServer> server,
                InferenceServer::Stream stream)
        : server_(std::move(server)), stream_(std::move(stream))
    {
    }

    std::shared_ptr<InferenceServer> server_; //!< keeps version alive
    InferenceServer::Stream stream_;
};

/**
 * Versioned, hot-swappable model fleet. Each published id serves
 * through its own InferenceServer (own workers, queue, admission
 * policy), so per-model queue caps and load shedding come from
 * ServerOptions::queueCapacity / admission per publish.
 */
class ModelRegistry
{
  public:
    ModelRegistry() = default;
    ~ModelRegistry() { shutdown(); }

    ModelRegistry(const ModelRegistry &) = delete;
    ModelRegistry &operator=(const ModelRegistry &) = delete;

    /**
     * Publish @p model as (id, version): atomically retarget new
     * submissions for @p id, then drain and release the previous
     * version. First publish of an id creates the route. Returns
     * once the old version has fully drained (so a caller can rely
     * on "publish returned => old model released", modulo streams).
     */
    void publish(const std::string &id, std::uint64_t version,
                 std::shared_ptr<const runtime::CompiledModel> model,
                 ServerOptions opts = {});

    /**
     * Deployment fast path: publish straight from an artifact file.
     * The artifact is mapped (weights served zero-copy from the
     * page cache). Fatal, with the specific defect named, on any
     * artifact format error.
     */
    void publishArtifact(const std::string &id, std::uint64_t version,
                         const std::string &artifactPath,
                         ServerOptions opts = {},
                         runtime::MapOptions mapOpts = {});

    /**
     * Route one utterance to @p id's current version. Never throws:
     * NoSuchModel if the id was never published (or was retired),
     * Shutdown once the registry shut down, otherwise the underlying
     * server's admission verdict (Ok / Overloaded / Shutdown).
     */
    SubmitStatus submit(const std::string &id, nn::Sequence frames,
                        std::future<InferenceReply> &out);

    /** Synchronous convenience: submit and wait; throws
     *  std::runtime_error naming the status on any rejection. */
    InferenceReply infer(const std::string &id,
                         const nn::Sequence &frames);

    /** Open a stream pinned to @p id's current version; throws
     *  std::runtime_error if the id is not serving. */
    ModelStream openStream(const std::string &id);

    /** @return whether @p id currently routes to a live server. */
    bool serving(const std::string &id) const;

    /** Active version of @p id (0 if not serving). */
    std::uint64_t activeVersion(const std::string &id) const;

    /** Snapshot of every id ever published, with cumulative stats. */
    std::vector<ModelInfo> models() const;

    /** Cumulative stats for @p id across all its versions. */
    ServerStats stats(const std::string &id) const;

    /** The whole fleet's state as one JSON object. */
    std::string statsJson() const;

    /**
     * Unpublish @p id: new submissions get NoSuchModel, accepted
     * work drains, the model is released. No-op if not serving.
     */
    void retire(const std::string &id);

    /** Retire everything and refuse further publishes. Idempotent;
     *  called by the destructor. */
    void shutdown();

  private:
    struct Entry
    {
        /** Readers: submit/stats (shared). Writer: swap (unique). */
        mutable base::SharedMutex mu;
        /** Current version's server; null once retired. */
        std::shared_ptr<InferenceServer> server ERNN_GUARDED_BY(mu);
        std::uint64_t version ERNN_GUARDED_BY(mu) = 0;
        std::size_t generations ERNN_GUARDED_BY(mu) = 0;
        /** Final counters of drained versions, merged. */
        ServerStats retiredStats ERNN_GUARDED_BY(mu);
        /**
         * The version currently draining during a swap. Readers fold
         * its live counters into cumulative views so a stats snapshot
         * taken mid-swap never sees the old version's work vanish
         * (it re-appears in retiredStats only after the drain, and
         * the hand-off happens under one unique lock — no window
         * where the counters are double-counted or missing).
         */
        std::shared_ptr<InferenceServer> draining ERNN_GUARDED_BY(mu);
    };

    /** Find (or create) the entry for @p id. Entries live as long
     *  as the registry, so the returned pointer outlives the lock. */
    Entry *entryFor(const std::string &id);
    const Entry *findEntry(const std::string &id) const;

    /** Swap @p next in as (version) of @p entry, drain the old.
     *  Takes entry.mu exclusively twice: the retarget and the
     *  post-drain stats fold (the drain itself runs unlocked). */
    void swapIn(Entry &entry, std::uint64_t version,
                std::shared_ptr<InferenceServer> next)
        ERNN_EXCLUDES(entry.mu);

    /** Cumulative stats of one entry (caller holds no entry lock). */
    static ServerStats entryStats(const Entry &entry)
        ERNN_EXCLUDES(entry.mu);

    /** Guards entries_ + shutdown_. Ordering: mapMu_ is released
     *  before any entry's mu is taken (entry pointers outlive it). */
    mutable base::SharedMutex mapMu_;
    std::map<std::string, std::unique_ptr<Entry>> entries_
        ERNN_GUARDED_BY(mapMu_);
    bool shutdown_ ERNN_GUARDED_BY(mapMu_) = false;
};

/** Knobs of the RegistryServer façade. */
struct RegistryServerOptions
{
    /** Dump statsJson() to statsSink this often; zero disables the
     *  dump thread. */
    std::chrono::milliseconds statsInterval{0};

    /** Receiver of periodic dumps (default: ernn_inform log line).
     *  Called from the dump thread; must be thread-safe. */
    std::function<void(const std::string &json)> statsSink;
};

/**
 * The process-level serving façade the `ernn` CLI builds on: one
 * ModelRegistry plus an optional periodic stats-dump thread. All of
 * ModelRegistry's API is reachable through registry(); the façade
 * only adds lifecycle (dump thread start/stop with shutdown).
 */
class RegistryServer
{
  public:
    explicit RegistryServer(RegistryServerOptions opts = {});
    ~RegistryServer();

    RegistryServer(const RegistryServer &) = delete;
    RegistryServer &operator=(const RegistryServer &) = delete;

    ModelRegistry &registry() { return registry_; }
    const ModelRegistry &registry() const { return registry_; }

    /** Registry passthroughs for the common call sites. */
    SubmitStatus submit(const std::string &id, nn::Sequence frames,
                        std::future<InferenceReply> &out)
    {
        return registry_.submit(id, std::move(frames), out);
    }

    InferenceReply infer(const std::string &id,
                         const nn::Sequence &frames)
    {
        return registry_.infer(id, frames);
    }

    std::string statsJson() const { return registry_.statsJson(); }

    /** Stop the dump thread (after one final dump) and shut the
     *  registry down. Idempotent; called by the destructor. */
    void shutdown();

  private:
    void dumpLoop() ERNN_EXCLUDES(mu_);

    RegistryServerOptions opts_;
    ModelRegistry registry_;

    base::Mutex mu_;
    base::CondVar cv_;
    bool stopping_ ERNN_GUARDED_BY(mu_) = false;
    base::Mutex joinMu_; //!< serializes concurrent shutdown() joins
    /** Spawned by the constructor, joined under joinMu_. */
    // lint: thread-spawn(periodic stats dump thread)
    std::thread dumper_ ERNN_GUARDED_BY(joinMu_);
};

} // namespace ernn::serve

#endif // ERNN_SERVE_REGISTRY_HH
