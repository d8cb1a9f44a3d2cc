#include "harness.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <thread>

#include "runtime/thread_pool.hh"

namespace perfbench
{

double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

double
msBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 1;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

void
forEachIndex(std::size_t n, std::size_t threads,
             const std::function<void(std::size_t)> &fn)
{
    ernn::runtime::ThreadPool pool(threads);
    pool.parallelFor(n, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i)
            fn(i);
    });
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + mid, v.end());
    if (v.size() % 2)
        return v[mid];
    const double hi = v[mid];
    const double lo = *std::max_element(v.begin(), v.begin() + mid);
    return 0.5 * (lo + hi);
}

LatencySummary
summarize(std::vector<double> values)
{
    LatencySummary s;
    s.samples = values.size();
    if (values.empty())
        return s;
    std::sort(values.begin(), values.end());
    s.p50 = median(values);
    // Linear interpolation between the closest ranks (numpy's default
    // percentile).
    const double h = 0.99 * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(h);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    s.p99 = values[lo] +
            (h - static_cast<double>(lo)) * (values[hi] - values[lo]);
    s.beyondP99 = static_cast<std::size_t>(
        values.end() - std::upper_bound(values.begin(), values.end(), s.p99));
    return s;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

SetupSchedule::SetupSchedule(const Options &opts,
                             std::function<void()> setUp)
    : setUp_(std::move(setUp)), repetitions_(opts.trace ? 1 : 9),
      seconds_(opts.seconds)
{
    if (!opts.smoke) {
        const std::size_t cores =
            std::max(1u, std::thread::hardware_concurrency());
        const auto until = Clock::now() + std::chrono::milliseconds(1500);
        forEachIndex(cores, cores, [&](std::size_t) {
            volatile double x = 1.0;
            while (Clock::now() < until)
                for (int i = 0; i < 1000; ++i)
                    x = x * 0.999999 + 1e-6;
        });
    }
    runOnce();
    start_ = Clock::now();
}

void
SetupSchedule::runOnce()
{
    const auto t0 = Clock::now();
    setUp_();
    const double s = secondsBetween(t0, Clock::now());
    times_.push_back(s);
    if (times_.size() > 1)
        setUpSinceStart_ += s;
}

double
SetupSchedule::measuredSeconds() const
{
    return secondsBetween(start_, Clock::now()) - setUpSinceStart_;
}

void
SetupSchedule::between()
{
    // Set-up k (k = 1 .. repetitions - 1) is due after k / repetitions
    // of the measured time.
    const double k = static_cast<double>(times_.size());
    if (times_.size() < repetitions_ &&
        measuredSeconds() >=
            k / static_cast<double>(repetitions_) * seconds_)
        runOnce();
}

const std::vector<double> &
SetupSchedule::finish()
{
    while (times_.size() < repetitions_)
        runOnce();
    return times_;
}

std::uint64_t
hashReals(const double *data, std::size_t n, std::uint64_t h)
{
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &data[i], sizeof bits);
        for (int b = 0; b < 8; ++b) {
            h ^= (bits >> (8 * b)) & 0xffu;
            h *= 1099511628211ull;
        }
    }
    return h;
}

void
Result::fail(const std::string &why)
{
    ++failed;
    if (failed <= 5)
        std::cerr << "perfbench: failed operation: " << why << "\n";
}

void
Result::noteSamples(const std::string &prefix, const LatencySummary &s)
{
    facts[prefix + ".samples"] = static_cast<double>(s.samples);
    facts[prefix + ".beyond_p99"] = static_cast<double>(s.beyondP99);
}

void
reportEndToEnd(Result &out, const std::vector<double> &setupSeconds,
               double framesPerSec, const LatencySummary &latMs)
{
    out.set("setup_s", median(setupSeconds), "s");
    out.set("peak_rss_mb", peakRssMb(), "MiB");
    out.set("frames_per_s", framesPerSec, "1/s");
    out.set("lat_p50_ms", latMs.p50, "ms");
    out.set("lat_p99_ms", latMs.p99, "ms");
    out.noteSamples("lat", latMs);
    out.facts["setup.repetitions"] =
        static_cast<double>(setupSeconds.size());
}

void
reportTraceOverhead(Result &out, double untracedFramesPerSec,
                    double tracedFramesPerSec, const Tracer &tracer)
{
    out.set("trace.overhead_pct",
            100.0 * (untracedFramesPerSec / tracedFramesPerSec - 1.0), "%");
    out.set("trace.spans", static_cast<double>(tracer.size()), "count");
}

// --- Tracer -------------------------------------------------------------

Tracer::Tracer() : epoch_(Clock::now()) {}

std::uint32_t
Tracer::nextId()
{
    std::lock_guard<std::mutex> lock(mu_);
    return nextId_++;
}

void
Tracer::record(const char *name, Clock::time_point start,
               Clock::time_point end, std::uint32_t id,
               std::uint32_t parent, std::uint64_t request)
{
    Span s;
    s.name = name;
    s.startNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    start - epoch_)
                    .count();
    s.endNs =
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - epoch_)
            .count();
    s.id = id;
    s.parent = parent;
    s.request = request;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(s);
}

std::map<std::string, double>
Tracer::selfSeconds() const
{
    std::lock_guard<std::mutex> lock(mu_);
    // Children of one span run inside it on the same thread, one after
    // another, so the part of the parent they cover is the sum of
    // their durations.
    std::map<std::uint32_t, std::int64_t> childNs;
    for (const Span &s : spans_)
        if (s.parent)
            childNs[s.parent] += s.endNs - s.startNs;
    std::map<std::string, double> out;
    for (const Span &s : spans_) {
        std::int64_t self = s.endNs - s.startNs;
        const auto it = childNs.find(s.id);
        if (it != childNs.end())
            self -= it->second;
        out[s.name] += 1e-9 * static_cast<double>(self);
    }
    return out;
}

std::map<std::string, std::size_t>
Tracer::counts() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::string, std::size_t> out;
    for (const Span &s : spans_)
        ++out[s.name];
    return out;
}

std::size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
}

void
Tracer::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.request
            << ",\"ts\":" << static_cast<double>(s.startNs) * 1e-3
            << ",\"dur\":" << static_cast<double>(s.endNs - s.startNs) * 1e-3
            << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
            << ",\"request\":" << s.request << "}}";
    }
    out << "\n]}\n";
    if (!out)
        std::cerr << "perfbench: could not write trace " << path << "\n";
}

Scope::Scope(Tracer *tracer, const char *name, std::uint32_t parent,
             std::uint64_t request)
    : tracer_(tracer), name_(name), parent_(parent), request_(request)
{
    if (tracer_) {
        id_ = tracer_->nextId();
        start_ = Clock::now();
    }
}

Scope::~Scope()
{
    if (tracer_)
        tracer_->record(name_, start_, Clock::now(), id_, parent_,
                        request_);
}

} // namespace perfbench
