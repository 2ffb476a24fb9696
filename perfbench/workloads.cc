#include "workloads.hh"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <exception>
#include <memory>
#include <string_view>

#include "apps/app.hh"
#include "bench/bench_common.hh"
#include "core/analysis.hh"
#include "core/transform.hh"
#include "gen/gen.hh"
#include "net/topology.hh"
#include "res/fault_model.hh"
#include "scen/scenario.hh"
#include "sim/engine.hh"
#include "sim/program.hh"
#include "tracer/tracer.hh"
#include "util/counter_rng.hh"
#include "util/strings.hh"

namespace perfbench {

using namespace ovlsim;

namespace {

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Span names: the layer prefix before the first dot is what the
// per-layer figures aggregate on.
constexpr const char *spanTrace = "tracer.traceApplication";
constexpr const char *spanGenerate = "gen.generateTrace";
constexpr const char *spanTransform =
    "transform.buildOverlappedTrace";
constexpr const char *spanCompile = "program.compileTrace";
constexpr const char *spanScenario = "res.generateScenario";
constexpr const char *spanBandwidthSweep = "core.bandwidthSweep";
constexpr const char *spanResilienceSweep = "core.resilienceSweep";
constexpr const char *spanIntermediate =
    "analysis.findIntermediateBandwidth";

/** FNV-1a over the simulated outputs of a pass. */
class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xffU;
            h_ *= 0x100000001b3ULL;
        }
    }
    void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
    void add(SimTime t) { add(static_cast<std::uint64_t>(t.ns())); }
    void
    add(std::string_view text)
    {
        add(static_cast<std::uint64_t>(text.size()));
        for (const char c : text)
            add(static_cast<std::uint64_t>(
                static_cast<unsigned char>(c)));
    }
    void
    add(const obs::EngineStats &s)
    {
        for (const std::uint64_t v :
             {s.heapPushes, s.heapPops, s.channelProbes,
              s.arenaHighWater, s.rateRecomputes, s.recomputesSkipped,
              s.rearmsTaken, s.rearmsSkipped, s.scenarioEvents,
              s.collSteps, s.rollbackReworkNs})
            add(v);
    }
    void
    add(const sim::SimResult &r)
    {
        add(r.totalTime);
        add(r.eventsProcessed);
        add(r.checkpoints);
        add(r.restarts);
        add(r.stats);
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void
fail(Pass &pass, std::uint64_t replays, std::string why)
{
    pass.failed += replays;
    pass.problems.push_back(std::move(why));
}

/** A replay that drained its heap must have popped every push. */
void
checkDrained(Pass &pass, const obs::EngineStats &stats,
             std::uint64_t replays, const std::string &what)
{
    if (stats.heapPushes != stats.heapPops) {
        fail(pass, replays,
             strformat("%s: heapPushes %llu != heapPops %llu",
                       what.c_str(),
                       static_cast<unsigned long long>(
                           stats.heapPushes),
                       static_cast<unsigned long long>(
                           stats.heapPops)));
    }
}

void
collectJobs(const std::vector<ThreadPool::LaneSpan> &spans, Pass &pass)
{
    for (const auto &span : spans) {
        if (!isCampaignJob(span.name))
            continue;
        const double s =
            static_cast<double>(span.endNs - span.beginNs) * 1e-9;
        pass.jobMs.push_back(s * 1e3);
        pass.replayS += s;
    }
}

/** Run a sweep driver inside a span and attach its lane spans. */
template <typename Fn>
auto
runDriver(SpanLog &log, const char *name, core::CampaignObs &cobs,
          Fn &&fn)
{
    cobs.recordSpans = true;
    const int id = log.begin(name);
    struct Closer
    {
        SpanLog &log;
        int id;
        core::CampaignObs &cobs;
        ~Closer()
        {
            log.end(id);
            log.addLaneSpans(id, cobs.spans);
        }
    } closer{log, id, cobs};
    return fn();
}

/** An overlap transform plus its lowering, under spans. */
std::shared_ptr<const sim::ReplayProgram>
transformAndCompile(SpanLog &log, Pass &pass,
                    const tracer::TraceBundle &bundle,
                    const core::TransformConfig &config)
{
    core::TransformResult built;
    {
        ScopedSpan span(log, spanTransform);
        built = core::buildOverlappedTrace(bundle.traces,
                                           bundle.overlap, config);
    }
    const auto records =
        static_cast<double>(built.traces.totalRecords());
    pass.values["transform.records_out"] += records;
    pass.values["program.records"] += records;
    ScopedSpan span(log, spanCompile);
    return std::make_shared<const sim::ReplayProgram>(
        sim::compileTrace(built.traces));
}

std::shared_ptr<const sim::ReplayProgram>
compileOriginal(SpanLog &log, Pass &pass, const trace::TraceSet &traces)
{
    pass.values["program.records"] +=
        static_cast<double>(traces.totalRecords());
    ScopedSpan span(log, spanCompile);
    return std::make_shared<const sim::ReplayProgram>(
        sim::compileTrace(traces));
}

tracer::TraceBundle
traceApp(SpanLog &log, Pass &pass, const std::string &name,
         int iterations, std::uint64_t seed)
{
    const auto &app = apps::findApp(name);
    auto params = app.defaults();
    if (iterations > 0)
        params.iterations = iterations;
    params.seed = seed;
    tracer::TracerConfig config;
    config.appName = name;
    tracer::TraceBundle bundle;
    {
        ScopedSpan span(log, spanTrace);
        bundle = tracer::traceApplication(params.ranks,
                                          app.program(params), config);
    }
    pass.values["tracer.records"] +=
        static_cast<double>(bundle.traces.totalRecords());
    return bundle;
}

/** A replay timed outside the span log (the probes need per-replay
 * wall time whether or not spans are on). */
struct TimedRun
{
    sim::SimResult result;
    double seconds = 0.0;
};

TimedRun
timedRun(SpanLog &log, const char *span_name,
         sim::ReplaySession &session,
         const sim::ReplayProgram &program,
         const sim::PlatformConfig &platform)
{
    ScopedSpan span(log, span_name);
    const auto t0 = Clock::now();
    TimedRun run;
    run.result = session.run(program, platform);
    run.seconds = since(t0);
    return run;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

// ------------------------------------------------------------ r1-study

/**
 * The paper's R1 study of all six applications on the flat-bus
 * default cluster: trace, build the real and ideal 16-chunk
 * variants, lower, then the bandwidth sweep per application on the
 * lane pool, then R2 (the ideal speedup at the intermediate
 * bandwidth) against the paper's figures.
 */
class R1Study : public Workload
{
  public:
    /** Trace iterations per application and sweep resolution. */
    static constexpr int iterations = 4;
    static constexpr int perDecade = 16;
    static constexpr double hiMBps = 65536.0;
    /** The probe replays every `probeStride`-th grid point. */
    static constexpr std::size_t probeStride = 4;

    explicit R1Study(std::uint64_t seed)
        : variants_(core::standardVariants(16))
    {
        const CounterRng rng(seed, 0x5231);
        alyaSeed_ = rng.at(0);
        // An offset of less than one grid step moves every sweep
        // point off the decades.
        const double offset =
            static_cast<double>(rng.at(1) >> 11) * 0x1.0p-53;
        grid_ = core::logBandwidthGrid(
            std::pow(10.0, offset / perDecade), hiMBps, perDecade);
    }

    Pass
    runPass(SpanLog &log, int lanes) override
    {
        Pass pass;
        Digest digest;
        const auto t0 = Clock::now();
        pass.root = log.begin("study");
        apps_.clear();
        for (const auto &name : bench::paperApps()) {
            AppState app;
            app.name = name;
            app.bundle = traceApp(log, pass, name, iterations,
                                  name == "alya" ? alyaSeed_ : 42);
            app.programs.push_back(
                compileOriginal(log, pass, app.bundle.traces));
            for (const auto &variant : variants_) {
                app.programs.push_back(transformAndCompile(
                    log, pass, app.bundle, variant.config));
            }
            apps_.push_back(std::move(app));
        }
        pass.setupS = since(t0);

        const auto platform = sim::platforms::defaultCluster();
        const std::uint64_t per_point = 1 + variants_.size();
        for (AppState &app : apps_) {
            core::CampaignObs cobs;
            try {
                app.sweep = runDriver(log, spanBandwidthSweep, cobs, [&] {
                    return core::bandwidthSweep(app.bundle, platform,
                                                grid_, variants_,
                                                lanes, &cobs);
                });
            } catch (const std::exception &err) {
                pass.replays += grid_.size() * per_point;
                fail(pass, grid_.size() * per_point,
                     app.name + ": bandwidthSweep threw: " +
                         err.what());
                continue;
            }
            collectJobs(cobs.spans, pass);
            pass.replays += app.sweep.points.size() * per_point;
            pass.events += app.sweep.stats.heapPops;
            pass.stats.merge(app.sweep.stats);
            digest.add(app.name);
            for (const auto &point : app.sweep.points) {
                digest.add(point.bandwidthMBps);
                digest.add(point.originalTime);
                for (const SimTime t : point.variantTimes)
                    digest.add(t);
                digest.add(point.stats);
                checkDrained(pass, point.stats, per_point,
                             strformat("%s bw=%.4g", app.name.c_str(),
                                       point.bandwidthMBps));
                if (point.variantTimes.size() != variants_.size() ||
                    point.originalTime <= SimTime::zero()) {
                    fail(pass, per_point,
                         app.name + ": incomplete sweep point");
                }
            }
        }

        // R2: ideal-pattern speedup at the intermediate bandwidth,
        // against the paper's reported figure.
        sim::ReplaySession session;
        double err_sum = 0.0;
        for (const AppState &app : apps_) {
            try {
                double ib = 0.0;
                {
                    ScopedSpan span(log, spanIntermediate);
                    ib = core::findIntermediateBandwidth(
                        *app.programs[0], platform);
                }
                auto at_ib = platform;
                at_ib.bandwidthMBps = ib;
                const auto original =
                    timedRun(log, "engine.run", session,
                             *app.programs[0], at_ib);
                const auto ideal =
                    timedRun(log, "engine.run", session,
                             *app.programs[2], at_ib);
                pass.replays += 2;
                checkDrained(pass, original.result.stats, 1,
                             app.name + " R2 original");
                checkDrained(pass, ideal.result.stats, 1,
                             app.name + " R2 ideal");
                digest.add(ib);
                digest.add(original.result);
                digest.add(ideal.result);
                err_sum += std::fabs(
                    bench::speedupPct(original.result.totalTime,
                                      ideal.result.totalTime) -
                    bench::paperIntermediateSpeedupPct(app.name));
            } catch (const std::exception &err) {
                pass.replays += 2;
                fail(pass, 2, app.name + ": R2 replay threw: " +
                                  err.what());
            }
        }
        pass.values["paper_err_pct"] =
            err_sum / static_cast<double>(apps_.size());
        pass.studyS = since(t0);
        log.end(pass.root);
        pass.digest = digest.value();
        return pass;
    }

    void
    probe(SpanLog &log, Pass &pass) override
    {
        const int root = log.begin("probe");
        double original_s = 0.0;
        double variant_s = 0.0;
        double original_events = 0.0;
        double variant_events = 0.0;
        for (const AppState &app : apps_) {
            if (app.sweep.points.size() != grid_.size())
                continue;
            sim::ReplaySession session;
            for (std::size_t i = 0; i < grid_.size(); i += probeStride) {
                auto platform = sim::platforms::defaultCluster();
                platform.bandwidthMBps = grid_[i];
                const auto &point = app.sweep.points[i];
                obs::EngineStats merged;
                bool same = true;
                for (std::size_t v = 0; v < app.programs.size(); ++v) {
                    const auto run = timedRun(
                        log,
                        v == 0 ? "engine.run.original"
                               : "engine.run.variant",
                        session, *app.programs[v], platform);
                    const auto events =
                        static_cast<double>(run.result.stats.heapPops);
                    (v == 0 ? original_s : variant_s) += run.seconds;
                    (v == 0 ? original_events : variant_events) +=
                        events;
                    merged.merge(run.result.stats);
                    same = same &&
                        run.result.totalTime ==
                            (v == 0 ? point.originalTime
                                    : point.variantTimes[v - 1]);
                }
                pass.replays += app.programs.size();
                if (!same || !(merged == point.stats)) {
                    fail(pass, app.programs.size(),
                         strformat("%s bw=%.4g: direct replay differs "
                                   "from bandwidthSweep",
                                   app.name.c_str(), grid_[i]));
                }
            }
        }
        log.end(root);
        pass.values["engine.bus.original_ns_per_event"] =
            ratio(original_s * 1e9, original_events);
        pass.values["engine.bus.variant_ns_per_event"] =
            ratio(variant_s * 1e9, variant_events);
        pass.values["engine.bus.variant_share"] =
            ratio(variant_s, original_s + variant_s);
    }

  private:
    struct AppState
    {
        std::string name;
        tracer::TraceBundle bundle;
        /** Original, then one per variant. */
        std::vector<std::shared_ptr<const sim::ReplayProgram>> programs;
        core::SweepResult sweep;
    };

    std::vector<core::VariantSpec> variants_;
    std::uint64_t alyaSeed_ = 42;
    std::vector<double> grid_;
    /** The last pass's state, kept for probe(). */
    std::vector<AppState> apps_;
};

// ----------------------------------------------------------- gen-ladder

/**
 * The generated ML-training loop (recursive-doubling allreduce,
 * algorithmic collectives, 2:1 tapered fat tree, 4096 MB/s) at
 * growing rank counts, original traces only, on one lane.
 */
class GenLadder : public Workload
{
  public:
    static constexpr int rungs[] = {256, 1024, 2048};
    static constexpr int setupRepeats = 5;

    explicit GenLadder(std::uint64_t seed) : seed_(seed)
    {
        platform_ = sim::platforms::defaultCluster();
        platform_.bandwidthMBps = 4096.0;
        platform_.topology = net::topologies::taperedFatTree(4, 0.5);
        platform_.collectiveModel =
            coll::CollectiveModel::algorithmic;
        platform_.collectiveAlgorithms.set(
            trace::CollOp::allReduce,
            coll::Algorithm::recursiveDoubling);
    }

    static gen::WorkloadConfig
    config(int ranks)
    {
        gen::WorkloadConfig workload;
        workload.kind = gen::WorkloadKind::mlTraining;
        workload.name = "gen-ml";
        workload.ranks = ranks;
        workload.iterations = 1;
        workload.gradientBuckets = 1;
        workload.gradientBytes = Bytes(64) * 1024 * 1024;
        workload.stepInstr = 50'000'000;
        return workload;
    }

    bool singleLane() const override { return true; }

    Pass
    runPass(SpanLog &log, int lanes) override
    {
        (void)lanes;
        Pass pass;
        Digest digest;
        const auto t0 = Clock::now();
        pass.root = log.begin("study");
        // Generation and lowering take well under a millisecond, so
        // the set-up is repeated and its median reported; only the
        // last repetition, whose programs are replayed, is traced.
        std::vector<sim::ReplayProgram> programs;
        std::vector<double> setups;
        SpanLog quiet(false);
        for (int rep = 0; rep < setupRepeats; ++rep) {
            const bool last = rep + 1 == setupRepeats;
            SpanLog &rep_log = last ? log : quiet;
            const auto s0 = Clock::now();
            programs.clear();
            for (const int ranks : rungs) {
                trace::TraceSet traces;
                {
                    ScopedSpan span(rep_log, spanGenerate);
                    traces = gen::generateTrace(config(ranks), seed_);
                }
                if (last) {
                    const auto records =
                        static_cast<double>(traces.totalRecords());
                    pass.values["gen.records"] += records;
                    pass.values["program.records"] += records;
                }
                ScopedSpan span(rep_log, spanCompile);
                programs.push_back(sim::compileTrace(traces));
            }
            setups.push_back(since(s0));
        }
        std::sort(setups.begin(), setups.end());
        pass.setupS = setups[setups.size() / 2];

        sim::ReplaySession session;
        for (std::size_t k = 0; k < programs.size(); ++k) {
            const std::string rung = strformat("r%d", rungs[k]);
            ++pass.replays;
            try {
                const auto run = timedRun(log, "engine.run", session,
                                          programs[k], platform_);
                const auto &stats = run.result.stats;
                pass.jobMs.push_back(run.seconds * 1e3);
                pass.replayS += run.seconds;
                pass.events += stats.heapPops;
                pass.stats.merge(stats);
                checkDrained(pass, stats, 1, rung);
                digest.add(run.result);
                const auto events = static_cast<double>(stats.heapPops);
                pass.values["engine.link.ns_per_event." + rung] =
                    ratio(run.seconds * 1e9, events);
                pass.values["net.flows_scanned_per_event." + rung] =
                    ratio(static_cast<double>(stats.rateRecomputes +
                                              stats.recomputesSkipped),
                          events);
            } catch (const std::exception &err) {
                fail(pass, 1, rung + ": replay threw: " + err.what());
            }
        }
        pass.values["engine.link.slope"] =
            ratio(pass.values["engine.link.ns_per_event.r2048"],
                  pass.values["engine.link.ns_per_event.r256"]);
        pass.studyS = since(t0);
        log.end(pass.root);
        pass.digest = digest.value();
        return pass;
    }

    std::vector<std::string>
    report(const std::vector<Pass> &passes) const override
    {
        // Per-rung cost next to the scan count that explains it.
        std::vector<std::string> lines{
            "rung   ns/event(median)  flows_scanned/event"};
        for (const int ranks : rungs) {
            const std::string rung = strformat("r%d", ranks);
            std::vector<double> ns;
            double scanned = 0.0;
            for (const Pass &pass : passes) {
                const auto it =
                    pass.values.find("engine.link.ns_per_event." + rung);
                if (it != pass.values.end())
                    ns.push_back(it->second);
                const auto sc = pass.values.find(
                    "net.flows_scanned_per_event." + rung);
                if (sc != pass.values.end())
                    scanned = sc->second;
            }
            std::sort(ns.begin(), ns.end());
            lines.push_back(strformat(
                "%-6s %16.1f  %19.1f", rung.c_str(),
                ns.empty() ? 0.0 : ns[ns.size() / 2], scanned));
        }
        return lines;
    }

  private:
    std::uint64_t seed_;
    sim::PlatformConfig platform_;
};

// ----------------------------------------------------------- resilience

/**
 * resilienceSweep of sweep3d on the tapered fat tree: per-node
 * fail-stop faults over a 7-point MTBF grid x seeds, checkpointing
 * on, for the original and both 16-chunk variants.
 */
class Resilience : public Workload
{
  public:
    static constexpr std::uint32_t seeds = 20;

    explicit Resilience(std::uint64_t seed)
        : seed_(seed), variants_(core::standardVariants(16))
    {}

    Pass
    runPass(SpanLog &log, int lanes) override
    {
        Pass pass;
        Digest digest;
        const auto t0 = Clock::now();
        pass.root = log.begin("study");
        bundle_ = traceApp(log, pass, "sweep3d", 0, 42);
        programs_.clear();
        programs_.push_back(compileOriginal(log, pass, bundle_.traces));
        for (const auto &variant : variants_) {
            programs_.push_back(transformAndCompile(log, pass, bundle_,
                                                    variant.config));
        }
        // Scale the checkpoint cost model and the MTBF grid to the
        // nominal run on this fabric.
        base_ = sim::platforms::topologyCluster(
            net::topologies::taperedFatTree(4, 0.5));
        sim::ReplaySession session;
        const auto nominal = timedRun(log, "engine.run", session,
                                      *programs_[0], base_);
        ++pass.replays;
        checkDrained(pass, nominal.result.stats, 1, "nominal");
        digest.add(nominal.result);
        const double nominal_us = nominal.result.totalTime.toUs();
        base_.checkpointIntervalUs = nominal_us / 6.0;
        base_.checkpointCostUs = base_.checkpointIntervalUs / 50.0;
        base_.restartCostUs = base_.checkpointIntervalUs / 10.0;
        grid_ = core::logBandwidthGrid(2.0 * nominal_us,
                                       200.0 * nominal_us, 3);
        std::reverse(grid_.begin(), grid_.end());
        pass.setupS = since(t0);

        const std::uint64_t per_row = programs_.size();
        const std::uint64_t jobs = grid_.size() * seeds;
        core::CampaignObs cobs;
        try {
            result_ = runDriver(log, spanResilienceSweep, cobs, [&] {
                return core::resilienceSweep(bundle_, base_, grid_,
                                             variants_, seeds, seed_,
                                             lanes, &cobs);
            });
        } catch (const std::exception &err) {
            pass.replays += jobs * per_row;
            fail(pass, jobs * per_row,
                 std::string("resilienceSweep threw: ") + err.what());
            result_ = {};
        }
        collectJobs(cobs.spans, pass);
        // The campaign's failure-free pre-pass replays every
        // program once, then one replay per (rate, seed, program).
        pass.replays += (1 + jobs) * per_row;
        pass.events += result_.stats.heapPops;
        pass.stats.merge(result_.stats);
        digest.add(result_.horizon);
        digest.add(result_.stats);
        for (const auto &point : result_.points) {
            digest.add(point.mtbfUs);
            for (const auto &cell : point.cells) {
                for (std::uint32_t s = 0; s < cell.seedTimes.size();
                     ++s) {
                    const auto &diag = cell.seedDiagnoses[s];
                    const bool finished =
                        cell.seedTimes[s] != SimTime::max();
                    // Every replay either finishes or dies of the
                    // expected fail-stop, with its diagnosis.
                    if (finished == !diag.event.empty()) {
                        fail(pass, 1,
                             strformat("mtbf=%.4g seed=%u: neither "
                                       "finished nor diagnosed",
                                       point.mtbfUs, s));
                    }
                    digest.add(cell.seedTimes[s]);
                    digest.add(diag.event);
                    digest.add(diag.time);
                }
            }
        }
        pass.studyS = since(t0);
        log.end(pass.root);
        pass.digest = digest.value();
        return pass;
    }

    void
    probe(SpanLog &log, Pass &pass) override
    {
        if (result_.points.size() != grid_.size())
            return;
        const int root = log.begin("probe");
        const int nodes =
            (programs_[0]->ranks() + base_.cpusPerNode - 1) /
            base_.cpusPerNode;
        sim::PlatformConfig nominal = base_;
        nominal.scenario = scen::ScenarioConfig{};
        nominal.faultModelFile.clear();

        // Expand every (rate, seed) scenario exactly as the driver
        // does; replay seed 0 of every rate directly and check it
        // against the campaign's cells.
        double generate_s = 0.0;
        double replay_s = 0.0;
        double events = 0.0;
        double rework_ns = 0.0;
        double finished_ns = 0.0;
        sim::ReplaySession session;
        for (std::size_t i = 0; i < grid_.size(); ++i) {
            res::FaultModel model;
            for (int n = 0; n < nodes; ++n) {
                res::FaultProcess proc;
                proc.target = scen::ScenTarget::node;
                proc.nodeA = n;
                proc.effect = res::FaultEffect::failStop;
                proc.mtbfUs = grid_[i];
                model.processes.push_back(proc);
            }
            for (std::uint32_t s = 0; s < seeds; ++s) {
                const std::uint64_t row_seed =
                    CounterRng(seed_, static_cast<std::uint64_t>(i))
                        .at(s);
                sim::PlatformConfig platform = nominal;
                {
                    ScopedSpan span(log, spanScenario);
                    const auto t0 = Clock::now();
                    platform.scenario = res::generateScenario(
                        model, row_seed, result_.horizon);
                    generate_s += since(t0);
                }
                if (s != 0)
                    continue;
                for (std::size_t v = 0; v < programs_.size(); ++v) {
                    const auto &cell = result_.points[i].cells[v];
                    ++pass.replays;
                    const auto t0 = Clock::now();
                    try {
                        const auto run = timedRun(
                            log, "engine.run.res", session,
                            *programs_[v], platform);
                        const auto &stats = run.result.stats;
                        replay_s += run.seconds;
                        events += static_cast<double>(stats.heapPops);
                        rework_ns +=
                            static_cast<double>(stats.rollbackReworkNs);
                        finished_ns += static_cast<double>(
                            run.result.totalTime.ns());
                        pass.values["res.checkpoints"] +=
                            static_cast<double>(run.result.checkpoints);
                        pass.values["res.restarts"] +=
                            static_cast<double>(run.result.restarts);
                        pass.values["scen.events_applied"] +=
                            static_cast<double>(stats.scenarioEvents);
                        if (run.result.restarts == 0)
                            checkDrained(pass, stats, 1, "probe");
                        if (run.result.totalTime != cell.seedTimes[s]) {
                            fail(pass, 1,
                                 strformat("mtbf=%.4g v=%zu: direct "
                                           "replay differs from "
                                           "resilienceSweep",
                                           grid_[i], v));
                        }
                    } catch (const scen::FailureError &err) {
                        replay_s += since(t0);
                        if (err.diagnosis().event !=
                            cell.seedDiagnoses[s].event) {
                            fail(pass, 1,
                                 strformat("mtbf=%.4g v=%zu: direct "
                                           "failure differs",
                                           grid_[i], v));
                        }
                    } catch (const std::exception &err) {
                        fail(pass, 1,
                             std::string("probe replay threw: ") +
                                 err.what());
                    }
                }
            }
        }
        log.end(root);
        pass.values["res.generate_scenario_s"] = generate_s;
        pass.values["res.rework_frac"] = ratio(rework_ns, finished_ns);
        pass.values["engine.res.ns_per_event"] =
            ratio(replay_s * 1e9, events);
    }

  private:
    std::uint64_t seed_;
    std::vector<core::VariantSpec> variants_;
    /** The last pass's state, kept for probe(). */
    tracer::TraceBundle bundle_;
    std::vector<std::shared_ptr<const sim::ReplayProgram>> programs_;
    sim::PlatformConfig base_;
    std::vector<double> grid_;
    core::ResilienceResult result_;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "r1-study")
        return std::make_unique<R1Study>(seed);
    if (name == "gen-ladder")
        return std::make_unique<GenLadder>(seed);
    if (name == "resilience")
        return std::make_unique<Resilience>(seed);
    return nullptr;
}

} // namespace perfbench
