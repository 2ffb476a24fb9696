/**
 * @file
 * Experiments M1-M4: engineering microbenchmarks of the
 * environment itself (google-benchmark).
 *
 *  - M1: replay-engine throughput (events per second) on compiled
 *    replay programs — each trace is lowered once and replayed
 *    through a reusable session, the campaign hot path,
 *  - M2: trace-lowering throughput (records compiled per second by
 *    sim::compileTrace),
 *  - M3: overlap-transformation throughput (records per second
 *    through core::buildOverlappedTrace — the dominant per-variant
 *    setup cost of a sweep campaign now that replay is compiled),
 *  - M4: study-campaign throughput (bandwidth-sweep points per
 *    second on the parallel runtime),
 *  - M5: contended-topology replay throughput (events per second
 *    replaying through the link-contention network model of
 *    src/net/ on a tapered fat tree),
 *  - M6: algorithmic-collective replay throughput (events per
 *    second replaying nas-cg-x8 on the tapered fat tree with
 *    collectives lowered into point-to-point schedules, src/coll/),
 *  - M7: dynamic-scenario replay throughput (events per second
 *    replaying sweep3d-x8 on the tapered fat tree while a scenario
 *    degrades and recovers the whole fabric mid-run, src/scen/),
 *  - M8: resilient replay throughput (events per second replaying
 *    sweep3d-x8 on the tapered fat tree under generated fail-stop
 *    faults with checkpoint/restart, so every run pays checkpoint
 *    freezes and at least one rollback, src/res/),
 *  - M9: generated-workload throughput (events per second through
 *    the full synthetic path: generating a 1024-rank ML-training
 *    trace from src/gen/, lowering it, and replaying it on the
 *    tapered fat tree with recursive-doubling allreduces — the
 *    scale no recorded trace reaches),
 *  - M10: variant replay throughput (events per second replaying
 *    the real-pattern 16-chunk overlap variant of sweep3d-x8 on the
 *    flat bus — the replays that make up nearly all of an R1 sweep,
 *    and the ones whose wait queue is deep).
 *
 * Besides the google-benchmark suite, `--json[=PATH]` runs the M1
 * replay-engine configurations standalone plus the M2 compile, M3
 * transform, M4 sweep, M5 topology, M6 collective, M7 scenario,
 * M8 resilience, M9 generator and M10 variant configurations, and
 * appends the
 * largest M1 figure (events/sec, ns/event, peak RSS), the M2
 * figure (records/sec), the M3 figure (transform records/sec),
 * the M4 figure (sweep points/sec at `--threads` workers, default
 * all cores), the M5 figure (topology events/sec), the M6 figure
 * (collective events/sec), the M7 figure (scenario events/sec),
 * the M8 figure (resilience events/sec), the M9 figure
 * (generated events/sec) and the M10 figure (variant events/sec)
 * to the perf trajectory file (default BENCH_engine.json), giving
 * every PR ten comparable data points. See ROADMAP.md "Performance
 * methodology".
 *
 * Trajectory points also carry selected engine counters from
 * src/obs/ (heap pushes, arena high water, rate recomputes,
 * collective steps, rollback rework, wait-queue scan steps and
 * depth, cache hit rates) next to each
 * figure; these are informational — the regression gate
 * (scripts/bench_check.sh) keys on the throughput figures only, so
 * old baselines stay valid.
 */

// google-benchmark drives the M1-M3 suite; the --json trajectory
// mode needs none of it, so hosts without the library still get the
// perf gate (CMake defines OVLSIM_HAVE_GBENCH when it is found).
#ifdef OVLSIM_HAVE_GBENCH
#include <benchmark/benchmark.h>
#endif
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>

#include "bench/bench_common.hh"
#include "core/transform.hh"
#include "gen/gen.hh"
#include "obs/stats.hh"
#include "res/fault_model.hh"
#include "trace/trace_io.hh"

using namespace ovlsim;
using namespace ovlsim::bench;

namespace {

#ifdef OVLSIM_HAVE_GBENCH

/** Cached bundle so setup cost is paid once per binary run. */
const tracer::TraceBundle &
cachedBundle()
{
    static const tracer::TraceBundle bundle =
        traceApp("sweep3d");
    return bundle;
}

void
simulatorThroughput(benchmark::State &state)
{
    const auto &bundle = cachedBundle();
    auto platform = sim::platforms::defaultCluster();
    platform.bandwidthMBps =
        static_cast<double>(state.range(0));

    // Mirror the --json M1 measurement: lower once, replay through
    // a reusable session (per-replay lowering is its own benchmark,
    // programCompileThroughput).
    const auto program = sim::compileShared(bundle.traces);
    sim::ReplaySession session;

    std::uint64_t events = 0;
    for (auto _ : state) {
        const auto result = session.run(*program, platform);
        events += result.eventsProcessed;
        benchmark::DoNotOptimize(result.totalTime);
    }
    state.counters["events/s"] = benchmark::Counter(
        static_cast<double>(events),
        benchmark::Counter::kIsRate);
}

void
programCompileThroughput(benchmark::State &state)
{
    const auto &bundle = cachedBundle();

    std::size_t records = 0;
    for (auto _ : state) {
        const auto program = sim::compileTrace(bundle.traces);
        records += program.totalOps();
        benchmark::DoNotOptimize(program.totalSends());
    }
    state.counters["records/s"] = benchmark::Counter(
        static_cast<double>(records),
        benchmark::Counter::kIsRate);
}

void
tracerThroughput(benchmark::State &state)
{
    const auto &app = apps::findApp("nas-bt");
    auto params = app.defaults();
    params.iterations = static_cast<int>(state.range(0));
    const auto program = app.program(params);

    std::size_t records = 0;
    for (auto _ : state) {
        tracer::TracerConfig config;
        const auto bundle = tracer::traceApplication(
            params.ranks, program, config);
        records += bundle.traces.totalRecords();
        benchmark::DoNotOptimize(bundle.overlap.size());
    }
    state.counters["records/s"] = benchmark::Counter(
        static_cast<double>(records),
        benchmark::Counter::kIsRate);
}

void
transformThroughput(benchmark::State &state)
{
    const auto &bundle = cachedBundle();
    core::TransformConfig config;
    config.pattern = core::PatternModel::idealLinear;
    config.chunks = static_cast<std::size_t>(state.range(0));

    std::size_t chunks = 0;
    for (auto _ : state) {
        const auto result = core::buildOverlappedTrace(
            bundle.traces, bundle.overlap, config);
        chunks += result.totalChunks;
        benchmark::DoNotOptimize(result.traces.totalRecords());
    }
    state.counters["chunks/s"] = benchmark::Counter(
        static_cast<double>(chunks),
        benchmark::Counter::kIsRate);
}

void
traceSerialization(benchmark::State &state)
{
    const auto &bundle = cachedBundle();
    std::string text;
    {
        std::ostringstream os;
        trace::writeTraceText(bundle.traces, os);
        text = os.str();
    }
    std::size_t bytes = 0;
    for (auto _ : state) {
        std::ostringstream os;
        trace::writeTraceText(bundle.traces, os);
        std::istringstream is(os.str());
        const auto parsed = trace::readTraceText(is);
        benchmark::DoNotOptimize(parsed.totalRecords());
        bytes += text.size();
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(bytes));
}

#endif // OVLSIM_HAVE_GBENCH

/** One M1 configuration of the standalone --json runner. */
struct JsonConfig
{
    const char *name;
    int iterations; // 0 = application default
    double bandwidthMBps;
};

/**
 * The --json configurations, smallest to largest. The last entry is
 * "the largest configuration" whose figures feed the trajectory; the
 * 3x acceptance target and the bench_check.sh regression gate both
 * refer to it.
 */
constexpr JsonConfig jsonConfigs[] = {
    {"sweep3d-x1/bw4096", 0, 4096.0},
    {"sweep3d-x8/bw4096", 8, 4096.0},
    {"sweep3d-x64/bw4096", 64, 4096.0},
};

struct JsonPoint
{
    std::string config;
    std::size_t records = 0;
    std::uint64_t eventsPerRun = 0;
    std::uint64_t runs = 0;
    double eventsPerSec = 0.0;
    double nsPerEvent = 0.0;
    /**
     * Process-wide ru_maxrss high-water mark at the end of this
     * config's runs — cumulative over earlier (smaller) configs,
     * not per-config. The configs run smallest to largest, so the
     * largest config's figure is in practice its own footprint.
     */
    long peakRssKb = 0;
    /** Per-run engine counters (deterministic across runs). */
    obs::EngineStats stats;
};

JsonPoint
measureConfig(const JsonConfig &config, double min_seconds)
{
    const auto bundle = traceApp("sweep3d", config.iterations);
    auto platform = sim::platforms::defaultCluster();
    platform.bandwidthMBps = config.bandwidthMBps;

    // M1 measures the replay engine proper: the trace is lowered
    // once (that stage is M2) and replayed through one reusable
    // session, exactly how campaigns drive the engine. The warm-up
    // run pays trace/page-cache setup outside the timing.
    const auto program = sim::compileShared(bundle.traces);
    sim::ReplaySession session;
    const auto warmup = session.run(*program, platform);
    const std::uint64_t events_per_run = warmup.eventsProcessed;

    std::uint64_t events = 0;
    std::uint64_t runs = 0;
    const auto start = std::chrono::steady_clock::now();
    double elapsed = 0.0;
    do {
        const auto result = session.run(*program, platform);
        events += result.eventsProcessed;
        ++runs;
        elapsed = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    } while (elapsed < min_seconds);

    JsonPoint point;
    point.config = config.name;
    point.records = bundle.traces.totalRecords();
    point.eventsPerRun = events_per_run;
    point.stats = warmup.stats;
    point.runs = runs;
    point.eventsPerSec =
        static_cast<double>(events) / elapsed;
    point.nsPerEvent =
        elapsed * 1e9 / static_cast<double>(events);
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    point.peakRssKb = usage.ru_maxrss;
    return point;
}

std::string
pointToJson(const JsonPoint &point)
{
    char stamp[32] = "unknown";
    const std::time_t now = std::time(nullptr);
    if (std::tm tm_utc{}; gmtime_r(&now, &tm_utc) != nullptr)
        std::strftime(stamp, sizeof stamp, "%Y-%m-%dT%H:%M:%SZ",
                      &tm_utc);
    return strformat(
        "{\n"
        "    \"bench\": \"bench_micro.simulatorThroughput\",\n"
        "    \"config\": \"%s\",\n"
        "    \"records\": %zu,\n"
        "    \"events_per_run\": %llu,\n"
        "    \"runs\": %llu,\n"
        "    \"events_per_sec\": %.0f,\n"
        "    \"ns_per_event\": %.2f,\n"
        "    \"heap_pushes\": %llu,\n"
        "    \"arena_high_water\": %llu,\n"
        "    \"peak_rss_kb\": %ld,\n"
        "    \"timestamp\": \"%s\"\n"
        "  }",
        point.config.c_str(), point.records,
        static_cast<unsigned long long>(point.eventsPerRun),
        static_cast<unsigned long long>(point.runs),
        point.eventsPerSec, point.nsPerEvent,
        static_cast<unsigned long long>(point.stats.heapPushes),
        static_cast<unsigned long long>(
            point.stats.arenaHighWater),
        point.peakRssKb, stamp);
}

/**
 * The M2 configuration: lower the sweep3d-x8 trace into a
 * ReplayProgram repeatedly. The figure of merit is records compiled
 * per second — the one-time cost every campaign pays per trace
 * variant before the engine replays it, and the whole cost
 * simulate() adds over a pre-compiled replay.
 */
struct CompileJsonPoint
{
    std::string config;
    std::size_t records = 0;
    std::uint64_t runs = 0;
    double recordsPerSec = 0.0;
    double nsPerRecord = 0.0;
    long peakRssKb = 0;
};

CompileJsonPoint
measureCompileConfig(double min_seconds)
{
    const auto bundle = traceApp("sweep3d", 8);

    // Warm-up compile (pays page faults outside the timing); the
    // totalSends sink keeps the loop's programs observable.
    volatile std::size_t sink =
        sim::compileTrace(bundle.traces).totalSends();

    std::size_t records = 0;
    std::uint64_t runs = 0;
    const auto start = std::chrono::steady_clock::now();
    double elapsed = 0.0;
    do {
        const auto program = sim::compileTrace(bundle.traces);
        sink = program.totalSends();
        records += program.totalOps();
        ++runs;
        elapsed = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    } while (elapsed < min_seconds);
    (void)sink;

    CompileJsonPoint point;
    point.config = "sweep3d-x8/compile";
    point.records = bundle.traces.totalRecords();
    point.runs = runs;
    point.recordsPerSec =
        static_cast<double>(records) / elapsed;
    point.nsPerRecord =
        elapsed * 1e9 / static_cast<double>(records);
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    point.peakRssKb = usage.ru_maxrss;
    return point;
}

std::string
compilePointToJson(const CompileJsonPoint &point)
{
    char stamp[32] = "unknown";
    const std::time_t now = std::time(nullptr);
    if (std::tm tm_utc{}; gmtime_r(&now, &tm_utc) != nullptr)
        std::strftime(stamp, sizeof stamp, "%Y-%m-%dT%H:%M:%SZ",
                      &tm_utc);
    return strformat(
        "{\n"
        "    \"bench\": \"bench_micro.programCompile\",\n"
        "    \"config\": \"%s\",\n"
        "    \"records\": %zu,\n"
        "    \"runs\": %llu,\n"
        "    \"compile_records_per_sec\": %.0f,\n"
        "    \"ns_per_record\": %.2f,\n"
        "    \"peak_rss_kb\": %ld,\n"
        "    \"timestamp\": \"%s\"\n"
        "  }",
        point.config.c_str(), point.records,
        static_cast<unsigned long long>(point.runs),
        point.recordsPerSec, point.nsPerRecord, point.peakRssKb,
        stamp);
}

/**
 * The M3 configuration: rebuild the standard real-pattern
 * overlapped variant of the sweep3d-x8 trace repeatedly. The figure
 * of merit is source records transformed per second — with replay
 * compiled and programs shared, buildOverlappedTrace is the
 * dominant per-variant setup cost a campaign pays (ROADMAP Open
 * items), so the trajectory tracks it next to M2.
 */
struct TransformJsonPoint
{
    std::string config;
    std::size_t records = 0;
    std::uint64_t runs = 0;
    double recordsPerSec = 0.0;
    double nsPerRecord = 0.0;
    long peakRssKb = 0;
};

TransformJsonPoint
measureTransformConfig(double min_seconds)
{
    const auto bundle = traceApp("sweep3d", 8);
    core::TransformConfig config;
    config.pattern = core::PatternModel::real;
    config.mechanism = core::Mechanism::both;
    config.chunks = 16;

    // Warm-up build outside the timing; the chunk sink keeps the
    // loop's results observable.
    volatile std::size_t sink =
        core::buildOverlappedTrace(bundle.traces, bundle.overlap,
                                   config)
            .totalChunks;

    std::size_t records = 0;
    std::uint64_t runs = 0;
    const auto start = std::chrono::steady_clock::now();
    double elapsed = 0.0;
    do {
        const auto result = core::buildOverlappedTrace(
            bundle.traces, bundle.overlap, config);
        sink = result.totalChunks;
        records += bundle.traces.totalRecords();
        ++runs;
        elapsed = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    } while (elapsed < min_seconds);
    (void)sink;

    TransformJsonPoint point;
    point.config = "sweep3d-x8/transform-real16";
    point.records = bundle.traces.totalRecords();
    point.runs = runs;
    point.recordsPerSec = static_cast<double>(records) / elapsed;
    point.nsPerRecord =
        elapsed * 1e9 / static_cast<double>(records);
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    point.peakRssKb = usage.ru_maxrss;
    return point;
}

std::string
transformPointToJson(const TransformJsonPoint &point)
{
    char stamp[32] = "unknown";
    const std::time_t now = std::time(nullptr);
    if (std::tm tm_utc{}; gmtime_r(&now, &tm_utc) != nullptr)
        std::strftime(stamp, sizeof stamp, "%Y-%m-%dT%H:%M:%SZ",
                      &tm_utc);
    return strformat(
        "{\n"
        "    \"bench\": \"bench_micro.transformThroughput\",\n"
        "    \"config\": \"%s\",\n"
        "    \"records\": %zu,\n"
        "    \"runs\": %llu,\n"
        "    \"transform_records_per_sec\": %.0f,\n"
        "    \"ns_per_record\": %.2f,\n"
        "    \"peak_rss_kb\": %ld,\n"
        "    \"timestamp\": \"%s\"\n"
        "  }",
        point.config.c_str(), point.records,
        static_cast<unsigned long long>(point.runs),
        point.recordsPerSec, point.nsPerRecord, point.peakRssKb,
        stamp);
}

/**
 * The M5 configuration: replay the sweep3d-x8 trace through the
 * link-contention network model on a 2:1-per-level tapered fat
 * tree (the congested-fabric scenario topology campaigns sweep).
 * The figure of merit is events per second — directly comparable
 * to M1's flat-bus figure, so the trajectory shows the cost of
 * per-link contention on the same workload. The program is lowered
 * once and the session's compiled-topology cache is hot after the
 * warm-up run, matching how topologySweep drives the engine.
 */
struct TopoJsonPoint
{
    std::string config;
    std::size_t records = 0;
    std::uint64_t eventsPerRun = 0;
    std::uint64_t runs = 0;
    double eventsPerSec = 0.0;
    double nsPerEvent = 0.0;
    long peakRssKb = 0;
    /** Per-run engine counters (deterministic across runs). */
    obs::EngineStats stats;
    /** Process-wide compiled-topology cache hit rate so far. */
    double topoCacheHitRate = 0.0;
};

TopoJsonPoint
measureTopoConfig(double min_seconds)
{
    const auto bundle = traceApp("sweep3d", 8);
    auto platform = sim::platforms::defaultCluster();
    platform.bandwidthMBps = 4096.0;
    platform.topology = net::topologies::taperedFatTree(4, 0.5);

    const auto program = sim::compileShared(bundle.traces);
    sim::ReplaySession session;
    const auto warmup = session.run(*program, platform);
    const std::uint64_t events_per_run = warmup.eventsProcessed;

    std::uint64_t events = 0;
    std::uint64_t runs = 0;
    const auto start = std::chrono::steady_clock::now();
    double elapsed = 0.0;
    do {
        const auto result = session.run(*program, platform);
        events += result.eventsProcessed;
        ++runs;
        elapsed = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    } while (elapsed < min_seconds);

    TopoJsonPoint point;
    point.config = "sweep3d-x8/fat-tree-taper2/bw4096";
    point.records = bundle.traces.totalRecords();
    point.eventsPerRun = events_per_run;
    point.stats = warmup.stats;
    point.topoCacheHitRate = obs::cacheReport()[1].hitRate();
    point.runs = runs;
    point.eventsPerSec = static_cast<double>(events) / elapsed;
    point.nsPerEvent =
        elapsed * 1e9 / static_cast<double>(events);
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    point.peakRssKb = usage.ru_maxrss;
    return point;
}

std::string
topoPointToJson(const TopoJsonPoint &point)
{
    char stamp[32] = "unknown";
    const std::time_t now = std::time(nullptr);
    if (std::tm tm_utc{}; gmtime_r(&now, &tm_utc) != nullptr)
        std::strftime(stamp, sizeof stamp, "%Y-%m-%dT%H:%M:%SZ",
                      &tm_utc);
    return strformat(
        "{\n"
        "    \"bench\": \"bench_micro.topologyReplay\",\n"
        "    \"config\": \"%s\",\n"
        "    \"records\": %zu,\n"
        "    \"events_per_run\": %llu,\n"
        "    \"runs\": %llu,\n"
        "    \"topo_events_per_sec\": %.0f,\n"
        "    \"ns_per_event\": %.2f,\n"
        "    \"rate_recomputes\": %llu,\n"
        "    \"recomputes_skipped\": %llu,\n"
        "    \"topo_cache_hit_rate\": %.4f,\n"
        "    \"peak_rss_kb\": %ld,\n"
        "    \"timestamp\": \"%s\"\n"
        "  }",
        point.config.c_str(), point.records,
        static_cast<unsigned long long>(point.eventsPerRun),
        static_cast<unsigned long long>(point.runs),
        point.eventsPerSec, point.nsPerEvent,
        static_cast<unsigned long long>(
            point.stats.rateRecomputes),
        static_cast<unsigned long long>(
            point.stats.recomputesSkipped),
        point.topoCacheHitRate, point.peakRssKb, stamp);
}

/**
 * The M6 configuration: replay the nas-cg-x8 trace — the
 * collective-heavy proxy — with algorithmic collectives on the
 * 2:1-per-level tapered fat tree. Every allreduce lowers into its
 * compiled point-to-point schedule (src/coll/) and contends on the
 * fabric's links next to the transpose-exchange traffic, so the
 * figure prices the schedule-execution seam plus the extra
 * contention events, directly comparable to M5's analytic-collective
 * contended replay. Schedules resolve once per session (and shape
 * compiles once per process), matching how collectiveSweep drives
 * the engine.
 */
struct CollJsonPoint
{
    std::string config;
    std::size_t records = 0;
    std::uint64_t eventsPerRun = 0;
    std::uint64_t runs = 0;
    double eventsPerSec = 0.0;
    double nsPerEvent = 0.0;
    long peakRssKb = 0;
    /** Per-run engine counters (deterministic across runs). */
    obs::EngineStats stats;
    /** Process-wide collective-schedule cache hit rate so far. */
    double schedCacheHitRate = 0.0;
};

CollJsonPoint
measureCollConfig(double min_seconds)
{
    const auto bundle = traceApp("nas-cg", 8);
    auto platform = sim::platforms::defaultCluster();
    platform.bandwidthMBps = 4096.0;
    platform.topology = net::topologies::taperedFatTree(4, 0.5);
    platform.collectiveModel = coll::CollectiveModel::algorithmic;

    const auto program = sim::compileShared(bundle.traces);
    sim::ReplaySession session;
    const auto warmup = session.run(*program, platform);
    const std::uint64_t events_per_run = warmup.eventsProcessed;

    std::uint64_t events = 0;
    std::uint64_t runs = 0;
    const auto start = std::chrono::steady_clock::now();
    double elapsed = 0.0;
    do {
        const auto result = session.run(*program, platform);
        events += result.eventsProcessed;
        ++runs;
        elapsed = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    } while (elapsed < min_seconds);

    CollJsonPoint point;
    point.config = "nas-cg-x8/fat-tree-taper2/algorithmic/bw4096";
    point.records = bundle.traces.totalRecords();
    point.eventsPerRun = events_per_run;
    point.stats = warmup.stats;
    point.schedCacheHitRate = obs::cacheReport()[2].hitRate();
    point.runs = runs;
    point.eventsPerSec = static_cast<double>(events) / elapsed;
    point.nsPerEvent =
        elapsed * 1e9 / static_cast<double>(events);
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    point.peakRssKb = usage.ru_maxrss;
    return point;
}

std::string
collPointToJson(const CollJsonPoint &point)
{
    char stamp[32] = "unknown";
    const std::time_t now = std::time(nullptr);
    if (std::tm tm_utc{}; gmtime_r(&now, &tm_utc) != nullptr)
        std::strftime(stamp, sizeof stamp, "%Y-%m-%dT%H:%M:%SZ",
                      &tm_utc);
    return strformat(
        "{\n"
        "    \"bench\": \"bench_micro.collectiveReplay\",\n"
        "    \"config\": \"%s\",\n"
        "    \"records\": %zu,\n"
        "    \"events_per_run\": %llu,\n"
        "    \"runs\": %llu,\n"
        "    \"coll_events_per_sec\": %.0f,\n"
        "    \"ns_per_event\": %.2f,\n"
        "    \"coll_steps\": %llu,\n"
        "    \"sched_cache_hit_rate\": %.4f,\n"
        "    \"peak_rss_kb\": %ld,\n"
        "    \"timestamp\": \"%s\"\n"
        "  }",
        point.config.c_str(), point.records,
        static_cast<unsigned long long>(point.eventsPerRun),
        static_cast<unsigned long long>(point.runs),
        point.eventsPerSec, point.nsPerEvent,
        static_cast<unsigned long long>(point.stats.collSteps),
        point.schedCacheHitRate, point.peakRssKb, stamp);
}

/**
 * The M7 configuration: the M5 contended replay with a dynamic
 * scenario installed — the whole fabric degrades to quarter
 * capacity (and doubled per-hop latency) over the middle half of
 * the run and recovers, so every replay pays the scenario seam:
 * per-link scale commits, frozen-finish re-arms and the flat/net
 * cost-path multiplier checks (src/scen/). The figure is directly
 * comparable to M5's scenario-free events/sec on the same workload
 * and fabric, so the trajectory prices what fault injection costs
 * the engine. The window is scaled once from a nominal warm-up
 * run, matching how degradation campaigns build their scenarios.
 */
struct ScenJsonPoint
{
    std::string config;
    std::size_t records = 0;
    std::uint64_t eventsPerRun = 0;
    std::uint64_t runs = 0;
    double eventsPerSec = 0.0;
    double nsPerEvent = 0.0;
    long peakRssKb = 0;
};

ScenJsonPoint
measureScenConfig(double min_seconds)
{
    const auto bundle = traceApp("sweep3d", 8);
    auto platform = sim::platforms::defaultCluster();
    platform.bandwidthMBps = 4096.0;
    platform.topology = net::topologies::taperedFatTree(4, 0.5);

    const auto program = sim::compileShared(bundle.traces);
    sim::ReplaySession session;
    const SimTime nominal =
        session.run(*program, platform).totalTime;

    scen::ScenarioEvent degrade;
    degrade.time = SimTime::fromNs(nominal.ns() / 4);
    degrade.kind = scen::ScenEventKind::degrade;
    degrade.target = scen::ScenTarget::all;
    degrade.bandwidthFactor = 0.25;
    degrade.latencyFactor = 2.0;
    platform.scenario.events.push_back(degrade);
    scen::ScenarioEvent recover;
    recover.time = SimTime::fromNs(3 * (nominal.ns() / 4));
    recover.kind = scen::ScenEventKind::recover;
    recover.target = scen::ScenTarget::all;
    platform.scenario.events.push_back(recover);

    const std::uint64_t events_per_run =
        session.run(*program, platform).eventsProcessed;

    std::uint64_t events = 0;
    std::uint64_t runs = 0;
    const auto start = std::chrono::steady_clock::now();
    double elapsed = 0.0;
    do {
        const auto result = session.run(*program, platform);
        events += result.eventsProcessed;
        ++runs;
        elapsed = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    } while (elapsed < min_seconds);

    ScenJsonPoint point;
    point.config = "sweep3d-x8/fat-tree-taper2/mid-degrade/bw4096";
    point.records = bundle.traces.totalRecords();
    point.eventsPerRun = events_per_run;
    point.runs = runs;
    point.eventsPerSec = static_cast<double>(events) / elapsed;
    point.nsPerEvent =
        elapsed * 1e9 / static_cast<double>(events);
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    point.peakRssKb = usage.ru_maxrss;
    return point;
}

std::string
scenPointToJson(const ScenJsonPoint &point)
{
    char stamp[32] = "unknown";
    const std::time_t now = std::time(nullptr);
    if (std::tm tm_utc{}; gmtime_r(&now, &tm_utc) != nullptr)
        std::strftime(stamp, sizeof stamp, "%Y-%m-%dT%H:%M:%SZ",
                      &tm_utc);
    return strformat(
        "{\n"
        "    \"bench\": \"bench_micro.scenarioReplay\",\n"
        "    \"config\": \"%s\",\n"
        "    \"records\": %zu,\n"
        "    \"events_per_run\": %llu,\n"
        "    \"runs\": %llu,\n"
        "    \"scen_events_per_sec\": %.0f,\n"
        "    \"ns_per_event\": %.2f,\n"
        "    \"peak_rss_kb\": %ld,\n"
        "    \"timestamp\": \"%s\"\n"
        "  }",
        point.config.c_str(), point.records,
        static_cast<unsigned long long>(point.eventsPerRun),
        static_cast<unsigned long long>(point.runs),
        point.eventsPerSec, point.nsPerEvent, point.peakRssKb,
        stamp);
}

/**
 * The M8 configuration: the M7 workload and fabric under the
 * resilience engine (src/res/) — a seeded per-node fail-stop fault
 * model expanded into a scenario, a checkpoint/restart cost model
 * on the platform, and at least one rollback per replay. Every run
 * pays checkpoint freezes (heap shift + machine snapshot) and a
 * restart (cancel in-flight flows, restore the snapshot, rebuild
 * the heap), so the figure prices what surviving failures costs
 * the engine next to M7's terminate-on-failure scenario seam.
 */
struct ResJsonPoint
{
    std::string config;
    std::size_t records = 0;
    std::uint64_t eventsPerRun = 0;
    std::uint64_t restartsPerRun = 0;
    std::uint64_t runs = 0;
    double eventsPerSec = 0.0;
    double nsPerEvent = 0.0;
    long peakRssKb = 0;
    /** Per-run engine counters (deterministic across runs). */
    obs::EngineStats stats;
};

ResJsonPoint
measureResConfig(double min_seconds)
{
    const auto bundle = traceApp("sweep3d", 8);
    auto platform = sim::platforms::defaultCluster();
    platform.bandwidthMBps = 4096.0;
    platform.topology = net::topologies::taperedFatTree(4, 0.5);

    const auto program = sim::compileShared(bundle.traces);
    sim::ReplaySession session;
    const SimTime nominal =
        session.run(*program, platform).totalTime;

    // Checkpoint five times per nominal run; a per-node MTBF equal
    // to the run length makes an 8-node machine essentially certain
    // to fail at least once, so the rollback path is always paid.
    platform.checkpointIntervalUs = nominal.toUs() / 5.0;
    platform.checkpointCostUs = nominal.toUs() / 200.0;
    platform.restartCostUs = nominal.toUs() / 50.0;
    res::FaultModel model;
    for (int n = 0; n < 8; ++n) {
        res::FaultProcess proc;
        proc.target = scen::ScenTarget::node;
        proc.nodeA = n;
        proc.effect = res::FaultEffect::failStop;
        proc.mtbfUs = nominal.toUs();
        model.processes.push_back(proc);
    }
    platform.scenario =
        res::generateScenario(model, 1, nominal * 4);

    const auto probe = session.run(*program, platform);
    if (probe.restarts == 0)
        std::abort(); // the rollback path must be on the clock

    std::uint64_t events = 0;
    std::uint64_t runs = 0;
    const auto start = std::chrono::steady_clock::now();
    double elapsed = 0.0;
    do {
        const auto result = session.run(*program, platform);
        events += result.eventsProcessed;
        ++runs;
        elapsed = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    } while (elapsed < min_seconds);

    ResJsonPoint point;
    point.config =
        "sweep3d-x8/fat-tree-taper2/fail-stop-ckpt/bw4096";
    point.records = bundle.traces.totalRecords();
    point.eventsPerRun = probe.eventsProcessed;
    point.restartsPerRun = probe.restarts;
    point.stats = probe.stats;
    point.runs = runs;
    point.eventsPerSec = static_cast<double>(events) / elapsed;
    point.nsPerEvent =
        elapsed * 1e9 / static_cast<double>(events);
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    point.peakRssKb = usage.ru_maxrss;
    return point;
}

std::string
resPointToJson(const ResJsonPoint &point)
{
    char stamp[32] = "unknown";
    const std::time_t now = std::time(nullptr);
    if (std::tm tm_utc{}; gmtime_r(&now, &tm_utc) != nullptr)
        std::strftime(stamp, sizeof stamp, "%Y-%m-%dT%H:%M:%SZ",
                      &tm_utc);
    return strformat(
        "{\n"
        "    \"bench\": \"bench_micro.resilienceReplay\",\n"
        "    \"config\": \"%s\",\n"
        "    \"records\": %zu,\n"
        "    \"events_per_run\": %llu,\n"
        "    \"restarts_per_run\": %llu,\n"
        "    \"runs\": %llu,\n"
        "    \"res_events_per_sec\": %.0f,\n"
        "    \"ns_per_event\": %.2f,\n"
        "    \"scenario_events\": %llu,\n"
        "    \"rollback_rework_ns\": %llu,\n"
        "    \"peak_rss_kb\": %ld,\n"
        "    \"timestamp\": \"%s\"\n"
        "  }",
        point.config.c_str(), point.records,
        static_cast<unsigned long long>(point.eventsPerRun),
        static_cast<unsigned long long>(point.restartsPerRun),
        static_cast<unsigned long long>(point.runs),
        point.eventsPerSec, point.nsPerEvent,
        static_cast<unsigned long long>(
            point.stats.scenarioEvents),
        static_cast<unsigned long long>(
            point.stats.rollbackReworkNs),
        point.peakRssKb, stamp);
}

/**
 * The M9 configuration: the full synthetic-workload path at a
 * scale no recorded trace reaches — a 1024-rank ML-training loop
 * (two steps, four gradient buckets of a 64 MiB gradient) is
 * generated from src/gen/, lowered by sim::compileTrace, and
 * replayed on the tapered fat tree with algorithmic collectives.
 * Every timed run pays generation + lowering + contended replay,
 * pricing exactly what a scaling campaign pays per grid point.
 * The allreduce algorithm is pinned to recursive doubling: `auto`
 * switches to the ring above coll::ringCutoffBytes, which at 1024
 * ranks turns every allreduce into an O(N)-transfer chain and
 * would swamp the figure with a pathological schedule.
 */
struct GenJsonPoint
{
    std::string config;
    std::size_t records = 0;
    std::uint64_t eventsPerRun = 0;
    std::uint64_t runs = 0;
    double eventsPerSec = 0.0;
    double nsPerEvent = 0.0;
    long peakRssKb = 0;
    /** Per-run engine counters (deterministic across runs). */
    obs::EngineStats stats;
};

GenJsonPoint
measureGenConfig(double min_seconds)
{
    gen::WorkloadConfig workload;
    workload.kind = gen::WorkloadKind::mlTraining;
    workload.name = "gen-ml";
    workload.ranks = 1024;
    workload.iterations = 2;
    workload.gradientBuckets = 4;
    workload.gradientBytes = Bytes(64) * 1024 * 1024;
    workload.stepInstr = 50'000'000;

    auto platform = sim::platforms::defaultCluster();
    platform.bandwidthMBps = 4096.0;
    platform.topology = net::topologies::taperedFatTree(4, 0.5);
    platform.collectiveModel =
        coll::CollectiveModel::algorithmic;
    platform.collectiveAlgorithms.set(
        trace::CollOp::allReduce,
        coll::Algorithm::recursiveDoubling);

    sim::ReplaySession session;
    // Warm-up run: pages in the fabric's compiled routes and the
    // session arenas outside the timing.
    const auto probeTraces = gen::generateTrace(workload, 1);
    const auto probe =
        session.run(sim::compileTrace(probeTraces), platform);

    std::uint64_t events = 0;
    std::uint64_t runs = 0;
    const auto start = std::chrono::steady_clock::now();
    double elapsed = 0.0;
    do {
        const auto traces = gen::generateTrace(workload, 1);
        const auto program = sim::compileTrace(traces);
        events += session.run(program, platform).eventsProcessed;
        ++runs;
        elapsed = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    } while (elapsed < min_seconds);

    GenJsonPoint point;
    point.config =
        "gen-ml-1024/fat-tree-taper2/rd-allreduce/bw4096";
    point.records = probeTraces.totalRecords();
    point.eventsPerRun = probe.eventsProcessed;
    point.stats = probe.stats;
    point.runs = runs;
    point.eventsPerSec = static_cast<double>(events) / elapsed;
    point.nsPerEvent =
        elapsed * 1e9 / static_cast<double>(events);
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    point.peakRssKb = usage.ru_maxrss;
    return point;
}

std::string
genPointToJson(const GenJsonPoint &point)
{
    char stamp[32] = "unknown";
    const std::time_t now = std::time(nullptr);
    if (std::tm tm_utc{}; gmtime_r(&now, &tm_utc) != nullptr)
        std::strftime(stamp, sizeof stamp, "%Y-%m-%dT%H:%M:%SZ",
                      &tm_utc);
    return strformat(
        "{\n"
        "    \"bench\": \"bench_micro.generatedReplay\",\n"
        "    \"config\": \"%s\",\n"
        "    \"records\": %zu,\n"
        "    \"events_per_run\": %llu,\n"
        "    \"runs\": %llu,\n"
        "    \"gen_events_per_sec\": %.0f,\n"
        "    \"ns_per_event\": %.2f,\n"
        "    \"arena_high_water\": %llu,\n"
        "    \"peak_rss_kb\": %ld,\n"
        "    \"timestamp\": \"%s\"\n"
        "  }",
        point.config.c_str(), point.records,
        static_cast<unsigned long long>(point.eventsPerRun),
        static_cast<unsigned long long>(point.runs),
        point.eventsPerSec, point.nsPerEvent,
        static_cast<unsigned long long>(
            point.stats.arenaHighWater),
        point.peakRssKb, stamp);
}

/**
 * The M10 configuration: the real-pattern 16-chunk overlap variant of
 * the sweep3d-x8 trace (the M3 transform's output) replayed on the
 * flat bus at 4096 MB/s. Chunking multiplies the transfers about
 * twentyfold and they contend for the per-node links, so this is
 * the replay that dominates an R1 sweep and the one that prices
 * flat-bus admission; M1 times the original trace, which barely
 * queues. The variant is built and lowered once and replayed
 * through one reusable session, as the sweep drives it. The
 * wait-queue gauges ride along (deterministic per run).
 */
struct VariantJsonPoint
{
    std::string config;
    std::size_t records = 0;
    std::uint64_t eventsPerRun = 0;
    std::uint64_t runs = 0;
    double eventsPerSec = 0.0;
    double nsPerEvent = 0.0;
    long peakRssKb = 0;
    /** Per-run engine counters (deterministic across runs). */
    obs::EngineStats stats;
};

VariantJsonPoint
measureVariantConfig(double min_seconds)
{
    const auto bundle = traceApp("sweep3d", 8);
    core::TransformConfig config;
    config.pattern = core::PatternModel::real;
    config.mechanism = core::Mechanism::both;
    config.chunks = 16;
    const auto variant = core::buildOverlappedTrace(
        bundle.traces, bundle.overlap, config);
    auto platform = sim::platforms::defaultCluster();
    platform.bandwidthMBps = 4096.0;

    const auto program = sim::compileShared(variant.traces);
    sim::ReplaySession session;
    const auto warmup = session.run(*program, platform);

    std::uint64_t events = 0;
    std::uint64_t runs = 0;
    const auto start = std::chrono::steady_clock::now();
    double elapsed = 0.0;
    do {
        const auto result = session.run(*program, platform);
        events += result.eventsProcessed;
        ++runs;
        elapsed = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    } while (elapsed < min_seconds);

    VariantJsonPoint point;
    point.config = "sweep3d-x8/overlap-real16/bw4096";
    point.records = variant.traces.totalRecords();
    point.eventsPerRun = warmup.eventsProcessed;
    point.stats = warmup.stats;
    point.runs = runs;
    point.eventsPerSec = static_cast<double>(events) / elapsed;
    point.nsPerEvent =
        elapsed * 1e9 / static_cast<double>(events);
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    point.peakRssKb = usage.ru_maxrss;
    return point;
}

std::string
variantPointToJson(const VariantJsonPoint &point)
{
    char stamp[32] = "unknown";
    const std::time_t now = std::time(nullptr);
    if (std::tm tm_utc{}; gmtime_r(&now, &tm_utc) != nullptr)
        std::strftime(stamp, sizeof stamp, "%Y-%m-%dT%H:%M:%SZ",
                      &tm_utc);
    return strformat(
        "{\n"
        "    \"bench\": \"bench_micro.variantReplay\",\n"
        "    \"config\": \"%s\",\n"
        "    \"records\": %zu,\n"
        "    \"events_per_run\": %llu,\n"
        "    \"runs\": %llu,\n"
        "    \"variant_events_per_sec\": %.0f,\n"
        "    \"ns_per_event\": %.2f,\n"
        "    \"wait_scan_steps\": %llu,\n"
        "    \"wait_queue_max_depth\": %llu,\n"
        "    \"peak_rss_kb\": %ld,\n"
        "    \"timestamp\": \"%s\"\n"
        "  }",
        point.config.c_str(), point.records,
        static_cast<unsigned long long>(point.eventsPerRun),
        static_cast<unsigned long long>(point.runs),
        point.eventsPerSec, point.nsPerEvent,
        static_cast<unsigned long long>(point.stats.waitScanSteps),
        static_cast<unsigned long long>(
            point.stats.waitQueueMaxDepth),
        point.peakRssKb, stamp);
}

/**
 * The M4 configuration: one R1-style bandwidth sweep of the sweep3d
 * proxy (original + the two standard variants per grid point),
 * repeated until the clock budget runs out. The figure of merit is
 * sweep points per second — the rate the campaign engine retires
 * (bandwidth, trace-variant) replay bundles. Since the sweep engine
 * lowers each variant once and shares the compiled program across
 * all grid points, this figure reflects program-replay speed plus
 * the amortized variant construction.
 */
struct SweepJsonPoint
{
    std::string config;
    int threads = 0;
    std::size_t gridPoints = 0;
    std::uint64_t sweeps = 0;
    double pointsPerSec = 0.0;
    double msPerPoint = 0.0;
    long peakRssKb = 0;
};

SweepJsonPoint
measureSweepConfig(int threads, double min_seconds)
{
    const auto bundle = traceApp("sweep3d", 8);
    auto platform = sim::platforms::defaultCluster();
    const auto grid = core::logBandwidthGrid(1.0, 65536.0, 4);
    const auto variants = core::standardVariants(16);

    // Warm-up sweep (pays variant construction, page faults and
    // thread spawning outside the timing).
    core::bandwidthSweep(bundle, platform, grid, variants,
                         threads);

    std::uint64_t sweeps = 0;
    const auto start = std::chrono::steady_clock::now();
    double elapsed = 0.0;
    do {
        const auto sweep = core::bandwidthSweep(
            bundle, platform, grid, variants, threads);
        if (sweep.points.size() != grid.size())
            std::abort(); // keep the replays observable
        ++sweeps;
        elapsed = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    } while (elapsed < min_seconds);

    SweepJsonPoint point;
    point.config = strformat("sweep3d-x8/grid%zux%zu",
                             grid.size(), variants.size() + 1);
    point.threads = threads;
    point.gridPoints = grid.size();
    point.sweeps = sweeps;
    const double points =
        static_cast<double>(sweeps * grid.size());
    point.pointsPerSec = points / elapsed;
    point.msPerPoint = elapsed * 1e3 / points;
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    point.peakRssKb = usage.ru_maxrss;
    return point;
}

std::string
sweepPointToJson(const SweepJsonPoint &point)
{
    char stamp[32] = "unknown";
    const std::time_t now = std::time(nullptr);
    if (std::tm tm_utc{}; gmtime_r(&now, &tm_utc) != nullptr)
        std::strftime(stamp, sizeof stamp, "%Y-%m-%dT%H:%M:%SZ",
                      &tm_utc);
    return strformat(
        "{\n"
        "    \"bench\": \"bench_micro.sweepThroughput\",\n"
        "    \"config\": \"%s\",\n"
        "    \"threads\": %d,\n"
        "    \"grid_points\": %zu,\n"
        "    \"sweeps\": %llu,\n"
        "    \"sweep_points_per_sec\": %.2f,\n"
        "    \"ms_per_point\": %.3f,\n"
        "    \"peak_rss_kb\": %ld,\n"
        "    \"timestamp\": \"%s\"\n"
        "  }",
        point.config.c_str(), point.threads, point.gridPoints,
        static_cast<unsigned long long>(point.sweeps),
        point.pointsPerSec, point.msPerPoint, point.peakRssKb,
        stamp);
}

/** Append a point to the JSON-array trajectory file in place. */
void
appendToTrajectory(const std::string &path,
                   const std::string &point_json)
{
    std::string existing;
    {
        std::ifstream in(path);
        if (in) {
            std::ostringstream os;
            os << in.rdbuf();
            existing = os.str();
        }
    }
    const std::size_t close = existing.rfind(']');
    const bool fresh =
        existing.find_first_not_of(" \t\r\n") == std::string::npos;
    if (!fresh && close == std::string::npos) {
        // Refuse to clobber a non-empty file that is not a JSON
        // array (typo'd path, or a trajectory truncated by a crash).
        std::fprintf(stderr,
                     "bench_micro: %s exists but is not a JSON "
                     "array; refusing to overwrite it\n",
                     path.c_str());
        std::exit(1);
    }
    // Write to a sibling temp file and rename so a crash mid-write
    // cannot truncate the committed trajectory history.
    const std::string tmp_path = path + ".tmp";
    {
        std::ofstream out(tmp_path, std::ios::trunc);
        if (!out) {
            std::fprintf(stderr, "bench_micro: cannot write %s\n",
                         tmp_path.c_str());
            std::exit(1);
        }
        if (fresh) {
            // Missing or empty trajectory: start a fresh array.
            out << "[\n  " << point_json << "\n]\n";
        } else {
            std::string head = existing.substr(0, close);
            // Trim trailing whitespace before the closing bracket.
            while (!head.empty() &&
                   (head.back() == ' ' || head.back() == '\n' ||
                    head.back() == '\t' || head.back() == '\r')) {
                head.pop_back();
            }
            const bool empty_array = head.ends_with("[");
            out << head << (empty_array ? "\n  " : ",\n  ")
                << point_json << "\n]\n";
        }
    }
    if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
        std::fprintf(stderr,
                     "bench_micro: cannot rename %s to %s\n",
                     tmp_path.c_str(), path.c_str());
        std::exit(1);
    }
}

int
runJsonMode(const std::string &path, int threads)
{
    JsonPoint largest;
    for (const auto &config : jsonConfigs) {
        const JsonPoint point = measureConfig(config, 1.5);
        std::printf(
            "%-22s %9.2f M events/s  %6.2f ns/event  "
            "(%llu runs x %llu events, rss %ld KB)\n",
            point.config.c_str(), point.eventsPerSec / 1e6,
            point.nsPerEvent,
            static_cast<unsigned long long>(point.runs),
            static_cast<unsigned long long>(point.eventsPerRun),
            point.peakRssKb);
        largest = point;
    }
    const CompileJsonPoint compile = measureCompileConfig(1.5);
    std::printf(
        "%-22s %9.2f M records/s  %6.2f ns/record  "
        "(%llu compiles x %zu records, rss %ld KB)\n",
        compile.config.c_str(), compile.recordsPerSec / 1e6,
        compile.nsPerRecord,
        static_cast<unsigned long long>(compile.runs),
        compile.records, compile.peakRssKb);
    const TransformJsonPoint transform =
        measureTransformConfig(1.5);
    std::printf(
        "%-22s %9.2f M records/s  %6.2f ns/record  "
        "(%llu builds x %zu records, rss %ld KB)\n",
        transform.config.c_str(),
        transform.recordsPerSec / 1e6, transform.nsPerRecord,
        static_cast<unsigned long long>(transform.runs),
        transform.records, transform.peakRssKb);
    const SweepJsonPoint sweep =
        measureSweepConfig(threads, 1.5);
    std::printf(
        "%-22s %9.2f sweep points/s  %6.3f ms/point  "
        "(%llu sweeps @ %d threads, rss %ld KB)\n",
        sweep.config.c_str(), sweep.pointsPerSec,
        sweep.msPerPoint,
        static_cast<unsigned long long>(sweep.sweeps),
        sweep.threads, sweep.peakRssKb);
    const TopoJsonPoint topo = measureTopoConfig(1.5);
    std::printf(
        "%-22s %9.2f M events/s  %6.2f ns/event  "
        "(%llu runs x %llu events, rss %ld KB)\n",
        topo.config.c_str(), topo.eventsPerSec / 1e6,
        topo.nsPerEvent,
        static_cast<unsigned long long>(topo.runs),
        static_cast<unsigned long long>(topo.eventsPerRun),
        topo.peakRssKb);
    const CollJsonPoint coll = measureCollConfig(1.5);
    std::printf(
        "%-22s %9.2f M events/s  %6.2f ns/event  "
        "(%llu runs x %llu events, rss %ld KB)\n",
        coll.config.c_str(), coll.eventsPerSec / 1e6,
        coll.nsPerEvent,
        static_cast<unsigned long long>(coll.runs),
        static_cast<unsigned long long>(coll.eventsPerRun),
        coll.peakRssKb);
    const ScenJsonPoint scen = measureScenConfig(1.5);
    std::printf(
        "%-22s %9.2f M events/s  %6.2f ns/event  "
        "(%llu runs x %llu events, rss %ld KB)\n",
        scen.config.c_str(), scen.eventsPerSec / 1e6,
        scen.nsPerEvent,
        static_cast<unsigned long long>(scen.runs),
        static_cast<unsigned long long>(scen.eventsPerRun),
        scen.peakRssKb);
    const ResJsonPoint res = measureResConfig(1.5);
    std::printf(
        "%-22s %9.2f M events/s  %6.2f ns/event  "
        "(%llu runs x %llu events, %llu restarts/run, rss %ld "
        "KB)\n",
        res.config.c_str(), res.eventsPerSec / 1e6,
        res.nsPerEvent,
        static_cast<unsigned long long>(res.runs),
        static_cast<unsigned long long>(res.eventsPerRun),
        static_cast<unsigned long long>(res.restartsPerRun),
        res.peakRssKb);
    const GenJsonPoint genPoint = measureGenConfig(1.5);
    std::printf(
        "%-22s %9.2f M events/s  %6.2f ns/event  "
        "(%llu runs x %llu events, rss %ld KB)\n",
        genPoint.config.c_str(), genPoint.eventsPerSec / 1e6,
        genPoint.nsPerEvent,
        static_cast<unsigned long long>(genPoint.runs),
        static_cast<unsigned long long>(genPoint.eventsPerRun),
        genPoint.peakRssKb);
    const VariantJsonPoint variant = measureVariantConfig(1.5);
    std::printf(
        "%-22s %9.2f M events/s  %6.2f ns/event  "
        "(%llu runs x %llu events, %llu wait-scan steps/run, "
        "rss %ld KB)\n",
        variant.config.c_str(), variant.eventsPerSec / 1e6,
        variant.nsPerEvent,
        static_cast<unsigned long long>(variant.runs),
        static_cast<unsigned long long>(variant.eventsPerRun),
        static_cast<unsigned long long>(variant.stats.waitScanSteps),
        variant.peakRssKb);
    appendToTrajectory(path, pointToJson(largest));
    appendToTrajectory(path, compilePointToJson(compile));
    appendToTrajectory(path, transformPointToJson(transform));
    appendToTrajectory(path, sweepPointToJson(sweep));
    appendToTrajectory(path, topoPointToJson(topo));
    appendToTrajectory(path, collPointToJson(coll));
    appendToTrajectory(path, scenPointToJson(scen));
    appendToTrajectory(path, resPointToJson(res));
    appendToTrajectory(path, genPointToJson(genPoint));
    appendToTrajectory(path, variantPointToJson(variant));
    std::printf(
        "trajectory points (%s, %s, %s, %s, %s, %s, %s, %s, %s, %s) "
        "appended to %s\n",
        largest.config.c_str(), compile.config.c_str(),
        transform.config.c_str(), sweep.config.c_str(),
        topo.config.c_str(), coll.config.c_str(),
        scen.config.c_str(), res.config.c_str(),
        genPoint.config.c_str(), variant.config.c_str(),
        path.c_str());
    return 0;
}

} // namespace

#ifdef OVLSIM_HAVE_GBENCH
BENCHMARK(simulatorThroughput)->Arg(16)->Arg(256)->Arg(4096);
BENCHMARK(programCompileThroughput);
BENCHMARK(tracerThroughput)->Arg(1)->Arg(2);
BENCHMARK(transformThroughput)->Arg(4)->Arg(16)->Arg(64);
BENCHMARK(traceSerialization);
#endif

int
main(int argc, char **argv)
{
    // M4 worker count for --json mode (0 = all hardware cores).
    // The flag is consumed here (compacted out of argv) so plain
    // google-benchmark runs don't trip on an unrecognized option.
    int threads = 0;
    std::string json_path;
    bool json_mode = false;
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            json_mode = true;
            json_path = "BENCH_engine.json";
        } else if (arg.rfind("--json=", 0) == 0) {
            json_mode = true;
            json_path = arg.substr(7);
        } else if (arg.rfind("--threads=", 0) == 0) {
            threads = std::atoi(arg.c_str() + 10);
        } else {
            argv[kept++] = argv[i];
        }
    }
    argc = kept;
    if (json_mode) {
        return runJsonMode(json_path,
                           ThreadPool::resolveThreads(threads));
    }
#ifdef OVLSIM_HAVE_GBENCH
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
#else
    std::fprintf(stderr,
                 "bench_micro: built without google-benchmark; "
                 "only --json[=PATH] is available\n");
    return 1;
#endif
}
