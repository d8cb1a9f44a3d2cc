/**
 * @file
 * Benchmark program entry point:
 *
 *   ernn_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--smoke] [--work-dir DIR] [--commit ID]
 *                  [--source-digest HEX]
 *
 * Prints an info line (run context, sample counts, validity flags)
 * and then, as the last line, the result object
 * {"correct", "attempted", "failed", "metrics"}. run.py builds this
 * program and is the supported way to run it.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "harness.hh"
#include "tensor/simd.hh"

namespace
{

using namespace perfbench;

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
loadAverage()
{
    std::ifstream in("/proc/loadavg");
    std::string a, b, c;
    in >> a >> b >> c;
    return in ? a + " " + b + " " + c : "unknown";
}

/** Aggregate CPU time counters of the host as /proc/stat reports them
 *  (ticks): everything, and the part the hypervisor took away (steal). */
struct CpuTicks
{
    unsigned long long total = 0;
    unsigned long long steal = 0;
};

CpuTicks
cpuTicks()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    CpuTicks t;
    for (int field = 0; field < 8; ++field) {
        unsigned long long v = 0;
        in >> v;
        t.total += v;
        if (field == 7)
            t.steal = v;
    }
    return t;
}

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "ernn_perfbench: " << why
              << "\nusage: ernn_perfbench --workload "
                 "asr_offline|asr_stream|serve_bimodal|train_circulant "
                 "--seed N --seconds S --trace 0|1 [--smoke] "
                 "[--work-dir DIR] [--commit ID] [--source-digest HEX]\n";
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            o.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string val = argv[++i];
        try {
            if (arg == "--workload")
                o.workload = val;
            else if (arg == "--seed")
                o.seed = std::stoull(val);
            else if (arg == "--seconds")
                o.seconds = std::stod(val);
            else if (arg == "--trace")
                o.trace = std::stoi(val) != 0;
            else if (arg == "--work-dir")
                o.workDir = val;
            else if (arg == "--commit")
                o.commit = val;
            else if (arg == "--source-digest")
                o.sourceDigest = val;
            else
                usage("unknown option " + arg);
        } catch (const std::exception &) {
            usage("bad value for " + arg + ": " + val);
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    if (!(o.seconds > 0.0))
        usage("--seconds must be positive");
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parse(argc, argv);
    if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
        std::cerr << "ernn_perfbench: built as '" << PERFBENCH_BUILD_TYPE
                  << "'; timings need a Release build\n";
        return 3;
    }
    const std::string loadAtStart = loadAverage();
    const CpuTicks ticksAtStart = cpuTicks();
    const char *simdEnv = std::getenv("ERNN_SIMD");

    Tracer tracer;
    Tracer *tr = opts.trace ? &tracer : nullptr;
    Result r;
    if (opts.workload == "asr_offline")
        r = runAsrOffline(opts, tr);
    else if (opts.workload == "asr_stream")
        r = runAsrStream(opts, tr);
    else if (opts.workload == "serve_bimodal")
        r = runServeBimodal(opts, tr);
    else if (opts.workload == "train_circulant")
        r = runTrainCirculant(opts, tr);
    else
        usage("unknown workload " + opts.workload);
    if (tr)
        tracer.write(opts.workDir + "/trace-" + opts.workload + "-" +
                     std::to_string(opts.seed) + ".json");

    // Share of the CPU time the hypervisor took from this virtual machine
    // during the run: high values mean the timings were crowded.
    const CpuTicks ticksAtEnd = cpuTicks();
    const double stealPct =
        ticksAtEnd.total > ticksAtStart.total
            ? 100.0 * static_cast<double>(ticksAtEnd.steal - ticksAtStart.steal) /
                  static_cast<double>(ticksAtEnd.total - ticksAtStart.total)
            : 0.0;

    std::ostringstream info;
    info << "{\"info\":{\"workload\":" << jsonString(opts.workload)
         << ",\"seed\":" << opts.seed
         << ",\"seconds\":" << jsonNumber(opts.seconds)
         << ",\"trace\":" << (opts.trace ? 1 : 0)
         << ",\"smoke\":" << (opts.smoke ? "true" : "false")
         << ",\"simd_active\":"
         << jsonString(ernn::simd::levelName(ernn::simd::active()))
         << ",\"ERNN_SIMD\":" << jsonString(simdEnv ? simdEnv : "")
         << ",\"hardware_concurrency\":"
         << std::thread::hardware_concurrency()
         << ",\"compiler\":" << jsonString(__VERSION__)
         << ",\"build_type\":" << jsonString(PERFBENCH_BUILD_TYPE)
         << ",\"commit\":" << jsonString(opts.commit)
         << ",\"source_digest\":" << jsonString(opts.sourceDigest)
         << ",\"loadavg_start\":" << jsonString(loadAtStart)
         << ",\"loadavg_end\":" << jsonString(loadAverage())
         << ",\"cpu_steal_pct\":" << jsonNumber(stealPct) << "}";
    info << ",\"facts\":{";
    const char *sep = "";
    for (const auto &[k, v] : r.facts) {
        info << sep << jsonString(k) << ":" << jsonNumber(v);
        sep = ",";
    }
    info << "},\"flags\":[";
    sep = "";
    for (const std::string &f : r.flags) {
        info << sep << jsonString(f);
        sep = ",";
    }
    info << "]}";
    std::cout << info.str() << "\n";

    std::cout << "{\"correct\":" << (r.failed == 0 ? "true" : "false")
              << ",\"attempted\":" << r.attempted
              << ",\"failed\":" << r.failed << ",\"metrics\":{";
    sep = "";
    for (const auto &[name, m] : r.metrics) {
        std::cout << sep << jsonString(name)
                  << ":{\"value\":" << jsonNumber(m.first)
                  << ",\"unit\":" << jsonString(m.second) << "}";
        sep = ",";
    }
    std::cout << "}}" << std::endl;
    return 0;
}
