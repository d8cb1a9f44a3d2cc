/**
 * @file
 * Shared machinery of the benchmark program: command-line options,
 * timing and percentile helpers, the result record every workload
 * fills in, and the span tracer of the traced run.
 *
 * Each workload runs in its own process (see run.py) and prints, as
 * the last line of standard output, one JSON object with the keys
 * correct / attempted / failed / metrics. An untraced run reports the
 * end-to-end metrics; a traced run (--trace 1) reports the per-layer
 * metrics, derived from spans recorded around each call the workload
 * makes into a libernn module and from replays of single modules
 * (layers.hh), plus the tracing overhead.
 */

#ifndef ERNN_PERFBENCH_HARNESS_HH
#define ERNN_PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds between two instants. */
double secondsBetween(Clock::time_point from, Clock::time_point to);

/** Milliseconds between two instants. */
double msBetween(Clock::time_point from, Clock::time_point to);

/** Parsed command line. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Tiny geometry and inputs: exercises every code path and every
     *  reported name in seconds (the benchmark's own tests). */
    bool smoke = false;
    /** Scratch directory for artifacts and trace files. */
    std::string workDir = ".";
    /** Provenance passed in by run.py (recorded, not interpreted). */
    std::string commit = "unknown";
    std::string sourceDigest = "unknown";
};

/** Independent 64-bit seed for input stream @p stream of run seed
 *  @p seed (splitmix64), so every generated input follows --seed. */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t stream);

/** Run fn(i) for i in [0, n) on a runtime::ThreadPool of @p threads
 *  threads; for untimed reference computations. */
void forEachIndex(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)> &fn);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Latency distribution summary: median, the 99th percentile
 *  (interpolated between the closest ranks), the sample count and how
 *  many samples lie above p99. */
struct LatencySummary
{
    double p50 = 0.0;
    double p99 = 0.0;
    std::size_t samples = 0;
    std::size_t beyondP99 = 0;
};

LatencySummary summarize(std::vector<double> values);

/** Peak resident set size of this process so far, in MiB. */
double peakRssMb();

/**
 * The set-ups of one run and the measured time between them. A workload
 * sets up once before its measured work (after keeping every core busy
 * for 1.5 s: on a virtual machine, cores that were idle can run at a
 * third to a half of their speed for the first second of work) and then
 * again between units of that work, at evenly spaced points of the
 * measured time, 9 times in all; setup_s is the median. Spread that
 * way, the set-ups see the same host as the measured work rather than
 * only its first seconds. Time spent setting up is not measured time.
 * A traced run sets up once.
 */
class SetupSchedule
{
  public:
    /** Runs the first set-up. @p setUp must leave the workload ready
     *  to measure; it may replace whatever the previous one built. */
    SetupSchedule(const Options &opts, std::function<void()> setUp);

    /** Between two units of measured work: set up if one is due. */
    void between();

    /** Whether the measured time has reached --seconds. */
    bool done() const { return measuredSeconds() >= seconds_; }

    /** Run the set-ups not yet due; the seconds each set-up took. */
    const std::vector<double> &finish();

  private:
    void runOnce();
    double measuredSeconds() const;

    std::function<void()> setUp_;
    std::size_t repetitions_;
    double seconds_;
    std::vector<double> times_;
    Clock::time_point start_;
    double setUpSinceStart_ = 0.0; //!< seconds set up after start_
};

/** 64-bit FNV-1a over the bytes of a double sequence, chained from
 *  @p h: equal hashes stand for bit-identical outputs. */
std::uint64_t hashReals(const double *data, std::size_t n,
                        std::uint64_t h = 14695981039346656037ull);

/** What one workload run produced. */
struct Result
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    /** name -> (value, unit); the printed metric set. */
    std::map<std::string, std::pair<double, std::string>> metrics;
    /** Sample counts and other run facts printed on the info line. */
    std::map<std::string, double> facts;
    /** Validity warnings (e.g. a backlog that grew in an open loop). */
    std::vector<std::string> flags;

    void set(const std::string &name, double value,
             const std::string &unit)
    {
        metrics[name] = {value, unit};
    }

    /** Count one failed operation; the first few reasons go to
     *  stderr so a failing run says why. */
    void fail(const std::string &why);

    /** Record a latency summary's counts under @p prefix. */
    void noteSamples(const std::string &prefix, const LatencySummary &s);
};

/**
 * In-memory span recorder of the traced run. Spans carry a name,
 * start and end, the id of the span that caused them and a request
 * id; they are kept in memory and written as Chrome trace-event JSON
 * when the run ends. Thread-safe: the serving workload records from
 * its generator and collector threads.
 */
class Tracer
{
  public:
    struct Span
    {
        const char *name = nullptr; //!< static string
        std::int64_t startNs = 0;   //!< since the tracer's epoch
        std::int64_t endNs = 0;
        std::uint32_t id = 0;
        std::uint32_t parent = 0; //!< 0 = root
        std::uint64_t request = 0;
    };

    Tracer();

    /** Reserve an id for a span whose end is recorded later. */
    std::uint32_t nextId();

    /** Record a finished span. */
    void record(const char *name, Clock::time_point start,
                Clock::time_point end, std::uint32_t id,
                std::uint32_t parent, std::uint64_t request);

    /** Total self time (span minus its children) per name, in
     *  seconds, and the number of spans per name. */
    std::map<std::string, double> selfSeconds() const;
    std::map<std::string, std::size_t> counts() const;

    std::size_t size() const;

    /** Write every span as Chrome trace-event JSON. */
    void write(const std::string &path) const;

  private:
    Clock::time_point epoch_;
    mutable std::mutex mu_;
    std::vector<Span> spans_; // guarded by mu_
    std::uint32_t nextId_ = 1; // guarded by mu_
};

/**
 * RAII span around one call into a module. A null tracer (the
 * untraced run) makes it a no-op that reads no clock.
 */
class Scope
{
  public:
    Scope(Tracer *tracer, const char *name, std::uint32_t parent = 0,
          std::uint64_t request = 0);
    ~Scope();

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /** This span's id (0 when tracing is off), for child spans. */
    std::uint32_t id() const { return id_; }

  private:
    Tracer *tracer_;
    const char *name_;
    std::uint32_t id_ = 0;
    std::uint32_t parent_;
    std::uint64_t request_;
    Clock::time_point start_;
};

/**
 * Fill in the end-to-end metrics every workload reports: setup_s (the
 * median of the set-up repetitions), peak_rss_mb, frames_per_s and the
 * latency median and 99th percentile with their sample counts.
 */
void reportEndToEnd(Result &out, const std::vector<double> &setupSeconds,
                    double framesPerSec, const LatencySummary &latMs);

/**
 * The traced run alternates units of work between untraced and traced;
 * trace.overhead_pct is the untraced rate over the traced rate, minus
 * one, in percent (positive = tracing slowed the workload). Also sets
 * the span count.
 */
void reportTraceOverhead(Result &out, double untracedFramesPerSec,
                         double tracedFramesPerSec, const Tracer &tracer);

/** Entry points of the four workloads (one translation unit each). */
Result runAsrOffline(const Options &opts, Tracer *tracer);
Result runAsrStream(const Options &opts, Tracer *tracer);
Result runServeBimodal(const Options &opts, Tracer *tracer);
Result runTrainCirculant(const Options &opts, Tracer *tracer);

} // namespace perfbench

#endif // ERNN_PERFBENCH_HARNESS_HH
