/**
 * @file
 * Engineering microbenchmarks of the environment itself.
 *
 * `--json[=PATH]` measures the M1-M10 figure table below and
 * appends one point per figure to the perf trajectory file (default
 * BENCH_engine.json); scripts/bench_check.sh gates each figure's
 * throughput key. Every figure is set up and warmed once, then its
 * unit of work (a replay, a compile, a transform or a sweep) repeats
 * until 1.5 s have passed. Selected src/obs/ counters ride along as
 * informational, ungated keys. See ROADMAP.md "Performance
 * methodology". Without --json the binary runs the google-benchmark
 * suite.
 */

// google-benchmark drives the suite; the --json trajectory mode
// needs none of it, so hosts without the library still get the
// perf gate (CMake defines OVLSIM_HAVE_GBENCH when it is found).
#ifdef OVLSIM_HAVE_GBENCH
#include <benchmark/benchmark.h>
#endif
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

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

/** A JSON key and its already formatted value. */
using Fields = std::vector<std::pair<std::string, std::string>>;

std::string
count(std::uint64_t value)
{
    return std::to_string(value);
}

/** How a figure reports its unit of work. */
struct Unit
{
    /** What the timed units count, for the stdout line. */
    const char *items;
    /** Key counting the timed units. */
    const char *runsKey;
    /** Decimals of the items-per-second figure. */
    int ratePrecision;
    /** Key, scale (from seconds) and decimals of the cost per
     * item. */
    const char *costKey;
    double costScale;
    int costPrecision;
};

constexpr Unit events{"events", "runs", 0, "ns_per_event", 1e9, 2};
constexpr Unit records{"records", "runs", 0, "ns_per_record", 1e9, 2};
constexpr Unit points{"points", "sweeps", 2, "ms_per_point", 1e3, 3};

/** A figure, set up and warmed, ready for the timing loop. */
struct Setup
{
    std::string config;
    /** Keys written before the run count (sizes, per-run counts). */
    Fields head;
    /** One timed unit of work; returns the items it did. */
    std::function<std::uint64_t()> work;
    /** Counter keys written after the cost, read once the loop is
     * done (process-wide cache hit rates include the timed runs). */
    std::function<Fields()> tail = [] { return Fields{}; };
};

/** One row of the figure table. */
struct Figure
{
    const char *bench;
    /** The gated items-per-second key. */
    const char *rateKey;
    const Unit &unit;
    std::function<Setup(int threads)> setup;
};

/** Keeps the results of compile and transform loops observable. */
volatile std::size_t sink = 0;

/** A compiled program replayed through one reusable session: how
 * campaigns drive the engine. */
struct Replay
{
    std::shared_ptr<const sim::ReplayProgram> program;
    sim::PlatformConfig platform;
    sim::ReplaySession session;

    sim::SimResult run() { return session.run(*program, platform); }
};

/** A replay figure whose last warm-up run was `probe`. */
Setup
replaySetup(std::string config, std::size_t records,
            std::shared_ptr<Replay> replay,
            const sim::SimResult &probe, Fields tail = {})
{
    Setup setup;
    setup.config = std::move(config);
    setup.head = {{"records", count(records)},
                  {"events_per_run", count(probe.eventsProcessed)}};
    setup.work = [replay] { return replay->run().eventsProcessed; };
    setup.tail = [tail] { return tail; };
    return setup;
}

std::shared_ptr<Replay>
replayOf(const trace::TraceSet &traces,
         const sim::PlatformConfig &platform)
{
    auto replay = std::make_shared<Replay>();
    replay->program = sim::compileShared(traces);
    replay->platform = platform;
    return replay;
}

sim::PlatformConfig
flatBus4096()
{
    auto platform = sim::platforms::defaultCluster();
    platform.bandwidthMBps = 4096.0;
    return platform;
}

/** The 2:1-per-level tapered fat tree, the congested fabric the
 * topology campaigns sweep. */
sim::PlatformConfig
taperedFatTree4096()
{
    auto platform = flatBus4096();
    platform.topology = net::topologies::taperedFatTree(4, 0.5);
    return platform;
}

/** The standard real-pattern 16-chunk overlap variant. */
const core::TransformConfig real16 = core::standardVariants(16)[0].config;

/** The figure table, in trajectory order. */
const Figure figures[] = {
    // M1: the replay engine proper on the original trace; lowering
    // is M2's.
    {"bench_micro.simulatorThroughput", "events_per_sec", events,
     [](int) {
         const auto bundle = traceApp("sweep3d", 64);
         auto replay = replayOf(bundle.traces, flatBus4096());
         const auto warmup = replay->run();
         return replaySetup(
             "sweep3d-x64/bw4096", bundle.traces.totalRecords(),
             replay, warmup,
             {{"heap_pushes", count(warmup.stats.heapPushes)},
              {"arena_high_water",
               count(warmup.stats.arenaHighWater)}});
     }},
    // M2: lowering a trace into a ReplayProgram, the one-time cost
    // a campaign pays per variant and all simulate() adds over a
    // pre-compiled replay.
    {"bench_micro.programCompile", "compile_records_per_sec", records,
     [](int) {
         auto bundle = std::make_shared<const tracer::TraceBundle>(
             traceApp("sweep3d", 8));
         sink = sim::compileTrace(bundle->traces).totalSends();
         Setup setup;
         setup.config = "sweep3d-x8/compile";
         setup.head = {
             {"records", count(bundle->traces.totalRecords())}};
         setup.work = [bundle]() -> std::uint64_t {
             const auto program = sim::compileTrace(bundle->traces);
             sink = program.totalSends();
             return program.totalOps();
         };
         return setup;
     }},
    // M3: building the overlapped variant, the dominant per-variant
    // setup cost of a sweep.
    {"bench_micro.transformThroughput", "transform_records_per_sec",
     records,
     [](int) {
         auto bundle = std::make_shared<const tracer::TraceBundle>(
             traceApp("sweep3d", 8));
         sink = core::buildOverlappedTrace(bundle->traces,
                                           bundle->overlap, real16)
                    .totalChunks;
         Setup setup;
         setup.config = "sweep3d-x8/transform-real16";
         setup.head = {
             {"records", count(bundle->traces.totalRecords())}};
         setup.work = [bundle]() -> std::uint64_t {
             const auto result = core::buildOverlappedTrace(
                 bundle->traces, bundle->overlap, real16);
             sink = result.totalChunks;
             return bundle->traces.totalRecords();
         };
         return setup;
     }},
    // M4: campaign throughput, an R1 bandwidth sweep (original +
    // the two standard variants per point) on the parallel runtime;
    // it scales with cores.
    {"bench_micro.sweepThroughput", "sweep_points_per_sec", points,
     [](int threads) {
         auto bundle = std::make_shared<const tracer::TraceBundle>(
             traceApp("sweep3d", 8));
         const auto platform = sim::platforms::defaultCluster();
         const auto grid = core::logBandwidthGrid(1.0, 65536.0, 4);
         const auto variants = core::standardVariants(16);
         core::bandwidthSweep(*bundle, platform, grid, variants,
                              threads);
         Setup setup;
         setup.config = strformat("sweep3d-x8/grid%zux%zu",
                                  grid.size(), variants.size() + 1);
         setup.head = {{"threads", count(threads)},
                       {"grid_points", count(grid.size())}};
         setup.work = [=]() -> std::uint64_t {
             const auto sweep = core::bandwidthSweep(
                 *bundle, platform, grid, variants, threads);
             if (sweep.points.size() != grid.size())
                 std::abort(); // keep the replays observable
             return grid.size();
         };
         return setup;
     }},
    // M5: M1's workload (x8) through per-link contention; the gap to
    // M1 is the price of contention.
    {"bench_micro.topologyReplay", "topo_events_per_sec", events,
     [](int) {
         const auto bundle = traceApp("sweep3d", 8);
         auto replay = replayOf(bundle.traces, taperedFatTree4096());
         const auto warmup = replay->run();
         auto setup = replaySetup(
             "sweep3d-x8/fat-tree-taper2/bw4096",
             bundle.traces.totalRecords(), replay, warmup);
         setup.tail = [stats = warmup.stats] {
             return Fields{
                 {"rate_recomputes", count(stats.rateRecomputes)},
                 {"recomputes_skipped",
                  count(stats.recomputesSkipped)},
                 {"topo_cache_hit_rate",
                  strformat("%.4f",
                            obs::cacheReport()[1].hitRate())}};
         };
         return setup;
     }},
    // M6: the collective-heavy proxy with collectives lowered into
    // point-to-point schedules contending on M5's fabric.
    {"bench_micro.collectiveReplay", "coll_events_per_sec", events,
     [](int) {
         const auto bundle = traceApp("nas-cg", 8);
         auto platform = taperedFatTree4096();
         platform.collectiveModel = coll::CollectiveModel::algorithmic;
         auto replay = replayOf(bundle.traces, platform);
         const auto warmup = replay->run();
         auto setup = replaySetup(
             "nas-cg-x8/fat-tree-taper2/algorithmic/bw4096",
             bundle.traces.totalRecords(), replay, warmup);
         setup.tail = [stats = warmup.stats] {
             return Fields{
                 {"coll_steps", count(stats.collSteps)},
                 {"sched_cache_hit_rate",
                  strformat("%.4f",
                            obs::cacheReport()[2].hitRate())}};
         };
         return setup;
     }},
    // M7: M5 while the whole fabric runs at quarter rate (doubled
    // latency) over the middle half of the run: the scenario seam.
    {"bench_micro.scenarioReplay", "scen_events_per_sec", events,
     [](int) {
         const auto bundle = traceApp("sweep3d", 8);
         auto replay = replayOf(bundle.traces, taperedFatTree4096());
         const SimTime nominal = replay->run().totalTime;

         scen::ScenarioEvent degrade;
         degrade.time = SimTime::fromNs(nominal.ns() / 4);
         degrade.kind = scen::ScenEventKind::degrade;
         degrade.target = scen::ScenTarget::all;
         degrade.bandwidthFactor = 0.25;
         degrade.latencyFactor = 2.0;
         replay->platform.scenario.events.push_back(degrade);
         scen::ScenarioEvent recover;
         recover.time = SimTime::fromNs(3 * (nominal.ns() / 4));
         recover.kind = scen::ScenEventKind::recover;
         recover.target = scen::ScenTarget::all;
         replay->platform.scenario.events.push_back(recover);

         return replaySetup(
             "sweep3d-x8/fat-tree-taper2/mid-degrade/bw4096",
             bundle.traces.totalRecords(), replay, replay->run());
     }},
    // M8: M7's workload surviving seeded per-node fail-stops with
    // checkpointing: every run pays checkpoint freezes and at least
    // one rollback.
    {"bench_micro.resilienceReplay", "res_events_per_sec", events,
     [](int) {
         const auto bundle = traceApp("sweep3d", 8);
         auto replay = replayOf(bundle.traces, taperedFatTree4096());
         const SimTime nominal = replay->run().totalTime;

         // Checkpoint five times per nominal run; a per-node MTBF
         // equal to the run length makes an 8-node machine
         // essentially certain to fail at least once.
         auto &platform = replay->platform;
         platform.checkpointIntervalUs = nominal.toUs() / 5.0;
         platform.checkpointCostUs = nominal.toUs() / 200.0;
         platform.restartCostUs = nominal.toUs() / 50.0;
         platform.scenario = res::generateScenario(
             res::nodeFailStopModel(8, nominal.toUs()), 1,
             nominal * 4);

         const auto probe = replay->run();
         if (probe.restarts == 0)
             std::abort(); // the rollback path must be on the clock
         auto setup = replaySetup(
             "sweep3d-x8/fat-tree-taper2/fail-stop-ckpt/bw4096",
             bundle.traces.totalRecords(), replay, probe,
             {{"scenario_events", count(probe.stats.scenarioEvents)},
              {"rollback_rework_ns",
               count(probe.stats.rollbackReworkNs)}});
         setup.head.emplace_back("restarts_per_run",
                                 count(probe.restarts));
         return setup;
     }},
    // M9: what a scaling campaign pays per grid point — generate a
    // 1024-rank ML-training loop, lower it and replay it on M5's
    // fabric. Allreduce is pinned to recursive doubling: `auto`
    // picks the ring above coll::ringCutoffBytes, an O(N)-transfer
    // chain at 1024 ranks that would swamp the figure.
    {"bench_micro.generatedReplay", "gen_events_per_sec", events,
     [](int) {
         gen::WorkloadConfig workload;
         workload.kind = gen::WorkloadKind::mlTraining;
         workload.name = "gen-ml";
         workload.ranks = 1024;
         workload.iterations = 2;
         workload.gradientBuckets = 4;
         workload.gradientBytes = Bytes(64) * 1024 * 1024;
         workload.stepInstr = 50'000'000;

         auto platform = taperedFatTree4096();
         platform.collectiveModel = coll::CollectiveModel::algorithmic;
         platform.collectiveAlgorithms.set(
             trace::CollOp::allReduce,
             coll::Algorithm::recursiveDoubling);

         auto session = std::make_shared<sim::ReplaySession>();
         const auto probe_traces = gen::generateTrace(workload, 1);
         const auto probe = session->run(
             sim::compileTrace(probe_traces), platform);

         Setup setup;
         setup.config = "gen-ml-1024/fat-tree-taper2/rd-allreduce/bw4096";
         setup.head = {
             {"records", count(probe_traces.totalRecords())},
             {"events_per_run", count(probe.eventsProcessed)}};
         setup.work = [=]() -> std::uint64_t {
             const auto traces = gen::generateTrace(workload, 1);
             const auto program = sim::compileTrace(traces);
             return session->run(program, platform).eventsProcessed;
         };
         setup.tail = [high = probe.stats.arenaHighWater] {
             return Fields{{"arena_high_water", count(high)}};
         };
         return setup;
     }},
    // M10: the 16-chunk real variant (M3's output) on M1's flat bus:
    // the replays that make up nearly all of an R1 sweep, and the
    // ones whose wait queue is deep.
    {"bench_micro.variantReplay", "variant_events_per_sec", events,
     [](int) {
         const auto bundle = traceApp("sweep3d", 8);
         const auto variant = core::buildOverlappedTrace(
             bundle.traces, bundle.overlap, real16);
         auto replay = replayOf(variant.traces, flatBus4096());
         const auto warmup = replay->run();
         return replaySetup(
             "sweep3d-x8/overlap-real16/bw4096",
             variant.traces.totalRecords(), replay, warmup,
             {{"wait_scan_steps", count(warmup.stats.waitScanSteps)},
              {"wait_queue_max_depth",
               count(warmup.stats.waitQueueMaxDepth)}});
     }},
};

/** One figure's measurement. */
struct Point
{
    const Figure *figure = nullptr;
    std::string config;
    Fields head;
    std::uint64_t runs = 0;
    std::uint64_t items = 0;
    double elapsed = 0.0;
    Fields tail;
    /** Process-wide ru_maxrss high-water mark after this figure:
     * cumulative over the figures measured before it. */
    long peakRssKb = 0;

    double rate() const { return static_cast<double>(items) / elapsed; }

    double
    cost() const
    {
        return elapsed * figure->unit.costScale /
            static_cast<double>(items);
    }
};

Point
measure(const Figure &figure, int threads)
{
    // The setup and everything it holds die with this call, before
    // the next figure is set up.
    const Setup setup = figure.setup(threads);
    Point point;
    point.figure = &figure;
    point.config = setup.config;
    point.head = setup.head;
    const auto start = std::chrono::steady_clock::now();
    do {
        point.items += setup.work();
        ++point.runs;
        point.elapsed = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    } while (point.elapsed < 1.5);
    point.tail = setup.tail();
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    point.peakRssKb = usage.ru_maxrss;

    const Unit &unit = figure.unit;
    std::printf("%-46s %14.2f %s/s  %.*f %s  (%llu %s, rss %ld KB)\n",
                point.config.c_str(), point.rate(), unit.items,
                unit.costPrecision, point.cost(), unit.costKey,
                static_cast<unsigned long long>(point.runs),
                unit.runsKey, point.peakRssKb);
    return point;
}

std::string
toJson(const Point &point, const char *stamp)
{
    const Unit &unit = point.figure->unit;
    Fields fields{
        {"bench", strformat("\"%s\"", point.figure->bench)},
        {"config", "\"" + point.config + "\""}};
    fields.insert(fields.end(), point.head.begin(),
                  point.head.end());
    fields.emplace_back(unit.runsKey, count(point.runs));
    fields.emplace_back(point.figure->rateKey,
                        strformat("%.*f", unit.ratePrecision,
                                  point.rate()));
    fields.emplace_back(unit.costKey, strformat("%.*f",
                                                unit.costPrecision,
                                                point.cost()));
    fields.insert(fields.end(), point.tail.begin(), point.tail.end());
    fields.emplace_back("peak_rss_kb", std::to_string(point.peakRssKb));
    fields.emplace_back("timestamp", strformat("\"%s\"", stamp));

    std::string json = "{";
    for (std::size_t i = 0; i < fields.size(); ++i) {
        json += i == 0 ? "\n    \"" : ",\n    \"";
        json += fields[i].first + "\": " + fields[i].second;
    }
    return json + "\n  }";
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
    std::vector<Point> measured;
    for (const Figure &figure : figures)
        measured.push_back(measure(figure, threads));

    char stamp[32] = "unknown";
    const std::time_t now = std::time(nullptr);
    if (std::tm tm_utc{}; gmtime_r(&now, &tm_utc) != nullptr)
        std::strftime(stamp, sizeof stamp, "%Y-%m-%dT%H:%M:%SZ",
                      &tm_utc);
    std::string configs;
    for (const Point &point : measured) {
        appendToTrajectory(path, toJson(point, stamp));
        configs += (configs.empty() ? "" : ", ") + point.config;
    }
    std::printf("trajectory points (%s) appended to %s\n",
                configs.c_str(), path.c_str());
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
