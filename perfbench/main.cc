/**
 * @file
 * Study-level benchmark driver.
 *
 *   perfbench --workload r1-study|gen-ladder|resilience --seed N
 *             --seconds S --trace 0|1 [--lanes L]
 *             [--expect-digest HEX] [--trace-out PATH]
 *             [--record PATH]
 *
 * Runs whole studies (passes) of one workload for S seconds and
 * prints, as its last stdout line, one JSON object: the end-to-end
 * metrics with --trace 0, the per-layer metrics with --trace 1.
 * The traced run first measures untraced passes, then traced
 * passes at the same lane count (their difference is the tracing
 * overhead), then one traced single-lane pass whose span self-times
 * are checked against its wall time, then the workload's direct
 * replay probe. perfbench/METRICS.md explains every figure.
 *
 * Every pass must reproduce the first pass's simulated-output
 * digest (and --expect-digest when given); a mismatch or a failed
 * invariant counts its replays as failed and the exit code is 1.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "coll/schedule.hh"
#include "obs/stats.hh"
#include "spans.hh"
#include "util/strings.hh"
#include "workloads.hh"

using namespace perfbench;
using ovlsim::strformat;

namespace {

using Clock = std::chrono::steady_clock;

struct Metric
{
    const char *name;
    const char *unit;
};

// Must match BENCHMARK.json's end_to_end and per_layer lists.
const std::vector<Metric> endToEnd{
    {"study_s", "s"},
    {"setup_s", "s"},
    {"sim_events_per_s", "1/s"},
    {"replays_per_s", "1/s"},
    {"replay_ms_p50", "ms"},
    {"replay_ms_p90", "ms"},
    {"peak_rss_mb", "MB"},
};

const std::vector<Metric> perLayer{
    {"tracer.trace_s", "s"},
    {"tracer.records", "count"},
    {"gen.generate_s", "s"},
    {"gen.records", "count"},
    {"transform.build_s", "s"},
    {"transform.ns_per_record", "ns"},
    {"transform.records_out", "count"},
    {"program.compile_s", "s"},
    {"program.ns_per_record", "ns"},
    {"engine.bus.original_ns_per_event", "ns"},
    {"engine.bus.variant_ns_per_event", "ns"},
    {"engine.bus.variant_share", "frac"},
    {"engine.link.ns_per_event.r256", "ns"},
    {"engine.link.ns_per_event.r1024", "ns"},
    {"engine.link.ns_per_event.r2048", "ns"},
    {"engine.link.slope", "ratio"},
    {"net.flows_scanned_per_event", "count"},
    {"net.flows_scanned_per_event.r256", "count"},
    {"net.flows_scanned_per_event.r1024", "count"},
    {"net.flows_scanned_per_event.r2048", "count"},
    {"net.recompute_useful_ratio", "ratio"},
    {"net.rearm_ratio", "ratio"},
    {"net.topology_cache.hit_rate", "frac"},
    {"coll.steps", "count"},
    {"coll.steps_per_event", "ratio"},
    {"coll.schedule_cache.hit_rate", "frac"},
    {"res.generate_scenario_s", "s"},
    {"scen.events_applied", "count"},
    {"res.checkpoints", "count"},
    {"res.restarts", "count"},
    {"res.rework_frac", "frac"},
    {"engine.res.ns_per_event", "ns"},
    {"engine.events", "count"},
    {"engine.heap_pushes_per_event", "ratio"},
    {"engine.channel_probes_per_event", "ratio"},
    {"engine.arena_high_water", "count"},
    {"campaign.lane_busy_frac", "frac"},
    {"campaign.compile_s", "s"},
    {"trace.span_coverage", "frac"},
    {"trace_overhead_pct", "%"},
};

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

// ------------------------------------------------------------ host facts

/** Whether this binary is an optimized, uninstrumented build. */
bool
releaseBuild()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return false;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) \
    || __has_feature(undefined_behavior_sanitizer)
    return false;
#endif
#endif
#if !defined(NDEBUG) || !defined(__OPTIMIZE__)
    return false;
#endif
    return std::string(PERFBENCH_BUILD_TYPE) == "Release";
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return ovlsim::trim(line.substr(colon + 1));
        }
    }
    return "unknown";
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

// ------------------------------------------------------------- options

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    int lanes = 1;
    std::string expectDigest;
    std::string traceOut;
    std::string record;
};

bool
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--workload")
            args.workload = value;
        else if (key == "--seed")
            args.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (key == "--seconds")
            args.seconds = std::strtod(value.c_str(), nullptr);
        else if (key == "--trace")
            args.trace = value == "1";
        else if (key == "--lanes")
            args.lanes = std::atoi(value.c_str());
        else if (key == "--expect-digest")
            args.expectDigest = value;
        else if (key == "--trace-out")
            args.traceOut = value;
        else if (key == "--record")
            args.record = value;
        else
            return false;
    }
    return argc % 2 == 1 && !args.workload.empty() &&
        args.seconds > 0.0 && args.lanes > 0;
}

// ----------------------------------------------------- per-layer figures

/** Whether span `id` lies in the subtree rooted at `root`. */
bool
inSubtree(const SpanLog &log, int id, int root)
{
    while (id > root)
        id = log.spans()[static_cast<std::size_t>(id)].parent;
    return id == root;
}

/** Summed duration of the spans under `root` named `prefix`*. */
double
spanSeconds(const SpanLog &log, int root, const std::string &prefix)
{
    double total = 0.0;
    for (const Span &span : log.spans()) {
        if (span.id > root && span.name.rfind(prefix, 0) == 0 &&
            inSubtree(log, span.id, root))
            total += span.seconds();
    }
    return total;
}

/** Per-layer figures of one traced pass, from its spans, its
 * engine counters and its cache-counter deltas. */
std::map<std::string, double>
layerFigures(const SpanLog &log, const Pass &pass,
             const std::vector<ovlsim::obs::CacheReportRow> &before,
             const std::vector<ovlsim::obs::CacheReportRow> &after)
{
    std::map<std::string, double> m = pass.values;
    const int root = pass.root;
    m["tracer.trace_s"] = spanSeconds(log, root, "tracer.");
    m["gen.generate_s"] = spanSeconds(log, root, "gen.");
    m["transform.build_s"] = spanSeconds(log, root, "transform.");
    m["program.compile_s"] = spanSeconds(log, root, "program.");
    m["transform.ns_per_record"] = ratio(
        m["transform.build_s"] * 1e9, m["transform.records_out"]);
    m["program.ns_per_record"] =
        ratio(m["program.compile_s"] * 1e9, m["program.records"]);
    m.erase("program.records");

    const auto &s = pass.stats;
    const auto events = static_cast<double>(s.heapPops);
    const auto scanned =
        static_cast<double>(s.rateRecomputes + s.recomputesSkipped);
    m["engine.events"] = events;
    m["engine.heap_pushes_per_event"] =
        ratio(static_cast<double>(s.heapPushes), events);
    m["engine.channel_probes_per_event"] =
        ratio(static_cast<double>(s.channelProbes), events);
    m["engine.arena_high_water"] = static_cast<double>(s.arenaHighWater);
    m["net.flows_scanned_per_event"] = ratio(scanned, events);
    m["net.recompute_useful_ratio"] =
        ratio(static_cast<double>(s.rateRecomputes), scanned);
    m["net.rearm_ratio"] = ratio(
        static_cast<double>(s.rearmsTaken),
        static_cast<double>(s.rearmsTaken + s.rearmsSkipped));
    m["coll.steps"] = static_cast<double>(s.collSteps);
    m["coll.steps_per_event"] =
        ratio(static_cast<double>(s.collSteps), events);

    // cacheReport rows: study, topology, schedule.
    auto hit_rate = [&](std::size_t row) {
        const double hits =
            static_cast<double>(after[row].hits - before[row].hits);
        const double misses = static_cast<double>(after[row].misses -
                                                  before[row].misses);
        return ratio(hits, hits + misses);
    };
    m["net.topology_cache.hit_rate"] = hit_rate(1);
    m["coll.schedule_cache.hit_rate"] = hit_rate(2);

    // Sweep drivers: lane occupancy and the time each spends before
    // its first campaign job (its internal transform + lowering,
    // and the resilience campaign's nominal pre-pass).
    double busy = 0.0;
    double capacity = 0.0;
    double compile = 0.0;
    for (const Span &driver : log.spans()) {
        if (driver.id <= root || driver.name.rfind("core.", 0) != 0 ||
            !inSubtree(log, driver.id, root))
            continue;
        std::vector<int> tracks;
        std::uint64_t first_job = driver.endNs;
        for (const int child : log.children(driver.id)) {
            const Span &lane = log.spans()[static_cast<std::size_t>(child)];
            busy += lane.seconds();
            tracks.push_back(lane.track);
            if (isCampaignJob(lane.name))
                first_job = std::min(first_job, lane.beginNs);
        }
        std::sort(tracks.begin(), tracks.end());
        tracks.erase(std::unique(tracks.begin(), tracks.end()),
                     tracks.end());
        capacity += static_cast<double>(tracks.size()) * driver.seconds();
        compile += static_cast<double>(first_job - driver.beginNs) * 1e-9;
    }
    m["campaign.lane_busy_frac"] = ratio(busy, capacity);
    m["campaign.compile_s"] = compile;
    return m;
}

/**
 * Share of a pass's wall time covered by layer self-times: every
 * span under the root counts except the root itself and the sweep
 * drivers, whose self-time is work no layer span accounts for.
 */
double
spanCoverage(const SpanLog &log, int root)
{
    const Span &top = log.spans()[static_cast<std::size_t>(root)];
    double gap = log.selfSeconds(root);
    for (const Span &span : log.spans()) {
        if (span.id > root && span.name.rfind("core.", 0) == 0 &&
            inSubtree(log, span.id, root))
            gap += log.selfSeconds(span.id);
    }
    return ratio(top.seconds() - gap, top.seconds());
}

// --------------------------------------------------------------- output

void
printMetrics(bool correct, std::uint64_t attempted, std::uint64_t failed,
             const std::vector<Metric> &metrics,
             std::map<std::string, double> values, std::FILE *out)
{
    std::fprintf(out,
                 "{\"correct\": %s, \"attempted\": %" PRIu64
                 ", \"failed\": %" PRIu64 ", \"metrics\": {",
                 correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::fprintf(out, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                     i == 0 ? "" : ", ", metrics[i].name,
                     values[metrics[i].name], metrics[i].unit);
    }
    std::fprintf(out, "}}\n");
}

} // namespace

int
runBenchmark(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload NAME --seed N "
                     "--seconds S --trace 0|1 [--lanes L] "
                     "[--expect-digest HEX] [--trace-out PATH] "
                     "[--record PATH]\n");
        return 2;
    }
    if (!releaseBuild()) {
        std::fprintf(stderr,
                     "perfbench: refusing to report from a %s build "
                     "(need an optimized Release build without "
                     "sanitizers)\n",
                     PERFBENCH_BUILD_TYPE);
        return 2;
    }
    auto workload = makeWorkload(args.workload, args.seed);
    if (!workload) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }

    const int nproc =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    const int lanes =
        workload->singleLane() ? 1 : std::min(args.lanes, nproc);
    const std::string host = strformat(
        "{\"nproc\": %d, \"cpu\": %s, \"compiler\": %s, "
        "\"build_type\": %s, \"lanes\": %d, \"workload\": %s, "
        "\"seed\": %llu, \"seconds\": %g, \"trace\": %d}",
        nproc, jsonString(cpuModel()).c_str(),
        jsonString(PERFBENCH_COMPILER).c_str(),
        jsonString(PERFBENCH_BUILD_TYPE).c_str(), lanes,
        jsonString(args.workload).c_str(),
        static_cast<unsigned long long>(args.seed), args.seconds,
        args.trace ? 1 : 0);
    std::printf("host %s\n", host.c_str());

    // Every pass starts with cold process-wide compile caches (the
    // replay sessions, which own the topology cache, are created
    // per pass by the workloads).
    auto run_pass = [&](SpanLog &log, int pass_lanes,
                        std::map<std::string, double> *layers) {
        ovlsim::coll::clearScheduleCache();
        const auto before = ovlsim::obs::cacheReport();
        Pass pass = workload->runPass(log, pass_lanes);
        if (layers != nullptr)
            *layers = layerFigures(log, pass, before,
                                   ovlsim::obs::cacheReport());
        return pass;
    };

    const auto start = Clock::now();
    SpanLog untraced(false);
    std::vector<Pass> plain;
    const double plain_budget =
        args.trace ? 0.5 * args.seconds : args.seconds;
    do {
        plain.push_back(run_pass(untraced, lanes, nullptr));
    } while (since(start) < plain_budget);
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

    SpanLog log(args.trace);
    std::vector<Pass> traced;
    std::vector<std::map<std::string, double>> traced_layers;
    Pass single;
    if (args.trace) {
        do {
            traced_layers.emplace_back();
            traced.push_back(run_pass(log, lanes, &traced_layers.back()));
        } while (since(start) < 0.75 * args.seconds);
        single = run_pass(log, 1, nullptr);
        workload->probe(log, single);
    }

    // Output check: every pass reproduces the reference digest.
    std::uint64_t reference = plain.front().digest;
    if (!args.expectDigest.empty())
        reference = std::strtoull(args.expectDigest.c_str(), nullptr, 16);
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;
    auto check = [&](Pass &pass) {
        if (pass.digest != reference) {
            pass.problems.push_back(strformat(
                "digest %016llx != expected %016llx",
                static_cast<unsigned long long>(pass.digest),
                static_cast<unsigned long long>(reference)));
            pass.failed = pass.replays;
        }
        attempted += pass.replays;
        failed += std::min(pass.failed, pass.replays);
        problems.insert(problems.end(), pass.problems.begin(),
                        pass.problems.end());
    };
    for (Pass &pass : plain)
        check(pass);
    for (Pass &pass : traced)
        check(pass);
    if (args.trace)
        check(single);
    const bool correct = failed == 0;
    for (const auto &problem : problems)
        std::printf("FAILED: %s\n", problem.c_str());

    // End-to-end figures from the untraced passes.
    // Job-latency percentiles are taken per pass and then their
    // median, so a burst of host noise during a few passes cannot
    // move them.
    std::vector<double> study, setup, rate, replays, p50, p90;
    std::size_t jobs = 0;
    for (const Pass &pass : plain) {
        study.push_back(pass.studyS);
        setup.push_back(pass.setupS);
        rate.push_back(ratio(static_cast<double>(pass.events), pass.replayS));
        replays.push_back(
            ratio(static_cast<double>(pass.replays), pass.studyS));
        p50.push_back(percentile(pass.jobMs, 50.0));
        p90.push_back(percentile(pass.jobMs, 90.0));
        jobs += pass.jobMs.size();
    }
    std::map<std::string, double> e2e{
        {"study_s", median(study)},
        {"setup_s", median(setup)},
        {"sim_events_per_s", median(rate)},
        {"replays_per_s", median(replays)},
        {"replay_ms_p50", median(p50)},
        {"replay_ms_p90", median(p90)},
        {"peak_rss_mb", peak_rss_mb},
    };
    std::printf("workload %s seed %llu: %zu untraced passes, digest "
                "%016llx, %s\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), plain.size(),
                static_cast<unsigned long long>(plain.front().digest),
                correct ? "outputs correct" : "OUTPUT CHECK FAILED");
    for (const Metric &metric : endToEnd)
        std::printf("  %-18s %14.6g %s\n", metric.name, e2e[metric.name],
                    metric.unit);
    std::printf("  %-18s %14zu count\n", "replay_count", jobs);
    std::printf("  %-18s %14.6g frac\n", "failed_frac",
                ratio(static_cast<double>(failed),
                      static_cast<double>(attempted)));
    const auto paper = plain.front().values.find("paper_err_pct");
    if (paper != plain.front().values.end())
        std::printf("  %-18s %14.6g %%\n", "paper_err_pct", paper->second);
    for (const auto &line : workload->report(args.trace ? traced : plain))
        std::printf("  %s\n", line.c_str());

    std::map<std::string, double> layers;
    if (args.trace) {
        std::map<std::string, std::vector<double>> samples;
        for (const auto &m : traced_layers)
            for (const auto &[key, value] : m)
                samples[key].push_back(value);
        for (const auto &[key, values] : samples)
            layers[key] = median(values);
        // The probe's figures only exist on the single-lane pass.
        for (const auto &[key, value] : single.values)
            layers.emplace(key, value);
        std::vector<double> traced_study;
        for (const Pass &pass : traced)
            traced_study.push_back(pass.studyS);
        layers["trace_overhead_pct"] =
            (ratio(median(traced_study), median(study)) - 1.0) * 100.0;
        layers["trace.span_coverage"] = spanCoverage(log, single.root);
        std::printf("traced: %zu passes at %d lanes + 1 single-lane "
                    "pass (%.1f%% of its wall time in layer spans)\n",
                    traced.size(), lanes,
                    100.0 * layers["trace.span_coverage"]);
        for (const Metric &metric : perLayer)
            std::printf("  %-36s %14.6g %s\n", metric.name,
                        layers[metric.name], metric.unit);
        if (!args.traceOut.empty() && !log.writeChromeTrace(args.traceOut))
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         args.traceOut.c_str());
    }

    if (!args.record.empty()) {
        if (std::FILE *rec = std::fopen(args.record.c_str(), "w")) {
            std::fprintf(rec, "{\"host\": %s, \"result\": ", host.c_str());
            printMetrics(correct, attempted, failed,
                         args.trace ? perLayer : endToEnd,
                         args.trace ? layers : e2e, rec);
            std::fprintf(rec, "}\n");
            std::fclose(rec);
        }
    }
    std::fflush(stdout);
    printMetrics(correct, attempted, failed,
                 args.trace ? perLayer : endToEnd,
                 args.trace ? layers : e2e, stdout);
    return correct ? 0 : 1;
}

int
main(int argc, char **argv)
{
    try {
        return runBenchmark(argc, argv);
    } catch (const std::exception &err) {
        std::fprintf(stderr, "perfbench: %s\n", err.what());
        return 1;
    }
}
