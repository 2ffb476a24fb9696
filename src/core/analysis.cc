#include "analysis.hh"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>

#include "res/fault_model.hh"
#include "util/counter_rng.hh"
#include "util/logging.hh"
#include "util/strings.hh"
#include "util/thread_pool.hh"

namespace ovlsim::core {

namespace {

using Programs = std::vector<std::shared_ptr<const sim::ReplayProgram>>;

/**
 * The fan-out every campaign driver runs on: one pool of lanes and
 * one ReplaySession per lane, so replays reuse the engine arenas
 * across jobs. Job i writes only its own slots, so every driver is
 * bit-identical to its sequential loop at any thread count.
 */
class Fanout
{
  public:
    /**
     * `widest` is the largest task count of any phase the driver
     * runs: lanes beyond it would only idle, so tiny campaigns
     * don't pay for a hardware-sized pool.
     */
    Fanout(int threads, std::size_t widest, CampaignObs *cobs)
        : cobs_(cobs), pool_(clampLanes(threads, widest)),
          sessions_(static_cast<std::size_t>(pool_.size()))
    {
        if (spans())
            pool_.enableSpans();
    }

    /**
     * Compile the original (slot 0) and every overlapped variant
     * (slot v + 1) once into shared immutable replay programs that
     * every job replays from. Each variant TraceSet dies as soon as
     * it is compiled, so a campaign holds one packed program per
     * variant and no lane ever re-lowers a trace. The constructions
     * are independent, so they fan out too (they dominate setup for
     * many-chunk variants).
     */
    Programs
    compile(const tracer::TraceBundle &bundle,
            const std::vector<VariantSpec> &variants)
    {
        Programs programs(variants.size() + 1);
        pool_.parallelFor(
            programs.size(), [&](std::size_t v, int lane) {
                pool_.spanBegin(lane, v == 0 ? "compile original"
                                             : "compile " +
                                                 variants[v - 1].name);
                if (v == 0) {
                    programs[0] = sim::compileShared(bundle.traces);
                } else {
                    const auto built = buildOverlappedTrace(
                        bundle.traces, bundle.overlap,
                        variants[v - 1].config);
                    programs[v] = sim::compileShared(built.traces);
                }
                pool_.spanEnd(lane);
            });
        return programs;
    }

    /**
     * Run job(i, session) for every i in [0, count) on the lane's
     * session. A job phase passes `label`: each job then runs
     * inside a lane span of that name and ticks progress when done;
     * a null label (setup pre-passes) does neither.
     */
    void
    run(std::size_t count,
        const std::function<std::string(std::size_t)> &label,
        const std::function<void(std::size_t, sim::ReplaySession &)>
            &job)
    {
        pool_.parallelFor(count, [&](std::size_t i, int lane) {
            if (label)
                pool_.spanBegin(lane, label(i));
            job(i, sessions_[static_cast<std::size_t>(lane)]);
            if (label) {
                pool_.spanEnd(lane);
                if (cobs_ != nullptr && cobs_->progress != nullptr)
                    cobs_->progress->tick();
            }
        });
    }

    /**
     * Hand the recorded lane spans to the hook, shifted past the
     * latest span already collected: campaigns chaining sweeps
     * (topologySweep) run their inner pools sequentially, so the
     * shift keeps the merged host track in wall order even though
     * every pool restarts its span clock at zero.
     */
    void
    finish()
    {
        if (!spans())
            return;
        std::uint64_t base = 0;
        for (const ThreadPool::LaneSpan &span : cobs_->spans)
            base = std::max(base, span.endNs);
        for (ThreadPool::LaneSpan &span : pool_.takeSpans()) {
            span.beginNs += base;
            span.endNs += base;
            cobs_->spans.push_back(std::move(span));
        }
    }

  private:
    static int
    clampLanes(int threads, std::size_t widest)
    {
        const int lanes = ThreadPool::resolveThreads(threads);
        if (widest > 0 && static_cast<std::size_t>(lanes) > widest)
            return static_cast<int>(widest);
        return lanes;
    }

    bool spans() const { return cobs_ != nullptr && cobs_->recordSpans; }

    CampaignObs *cobs_;
    ThreadPool pool_;
    std::vector<sim::ReplaySession> sessions_;
};

/** Original time over variant v's time (1.0 = equal; 0 when the
 * variant took no time). */
double
speedupOf(SimTime original, const std::vector<SimTime> &variants,
          std::size_t v)
{
    ovlAssert(v < variants.size(), "speedup: bad variant index");
    const auto t = variants[v].ns();
    if (t <= 0)
        return 0.0;
    return static_cast<double>(original.ns()) /
        static_cast<double>(t);
}

/** `base` without its scenario or fault model: the failure-free
 * platform whose runs size the resilience campaigns' fault
 * horizon. */
sim::PlatformConfig
nominalPlatform(const sim::PlatformConfig &base)
{
    sim::PlatformConfig nominal = base;
    nominal.scenario = scen::ScenarioConfig{};
    nominal.faultModelFile.clear();
    return nominal;
}

/** Fold one cell's per-seed outcomes into its aggregates. */
void
aggregateCell(ResilienceCell &cell)
{
    std::vector<SimTime> alive;
    alive.reserve(cell.seedTimes.size());
    for (const SimTime t : cell.seedTimes) {
        if (t != SimTime::max())
            alive.push_back(t);
    }
    cell.failedFraction =
        static_cast<double>(cell.seedTimes.size() - alive.size()) /
        static_cast<double>(cell.seedTimes.size());
    if (alive.empty()) {
        cell.meanTime = SimTime::zero();
        cell.p95Time = SimTime::zero();
        return;
    }
    // Integer arithmetic end to end (ns sums fit: 2^63 ns is ~292
    // years of simulated time) so the aggregates are bit-identical
    // across hosts and thread counts.
    std::int64_t sum = 0;
    for (const SimTime t : alive)
        sum += t.ns();
    cell.meanTime = SimTime::fromNs(
        sum / static_cast<std::int64_t>(alive.size()));
    std::sort(alive.begin(), alive.end());
    // Nearest-rank percentile: ceil(0.95 n) as (19n + 19) / 20.
    const std::size_t n = alive.size();
    const std::size_t rank = (19 * n + 19) / 20;
    cell.p95Time = alive[rank - 1];
}

/**
 * One bandwidthSweep per spec, each on `base` mutated by
 * `apply(platform, spec)` and renamed after the spec. The specs run
 * one after another: each inner sweep already fans its variant
 * construction and grid points over the pool, and sequential outer
 * order keeps every sweep's lane layout — and therefore the whole
 * campaign — bit-identical to a one-spec run at any thread count.
 */
template <typename Spec, typename Apply>
std::vector<SweepResult>
sweepPerPlatform(const std::vector<Spec> &specs, Apply apply,
                 const tracer::TraceBundle &bundle,
                 const sim::PlatformConfig &base,
                 const std::vector<double> &bandwidths,
                 const std::vector<VariantSpec> &variants,
                 int threads, CampaignObs *cobs)
{
    std::vector<SweepResult> sweeps;
    sweeps.reserve(specs.size());
    for (const Spec &spec : specs) {
        sim::PlatformConfig platform = base;
        apply(platform, spec);
        platform.name = base.name + "/" + spec.name;
        sweeps.push_back(bandwidthSweep(bundle, platform, bandwidths,
                                        variants, threads, cobs));
    }
    return sweeps;
}

} // namespace

std::vector<VariantSpec>
standardVariants(std::size_t chunks)
{
    std::vector<VariantSpec> variants;
    TransformConfig real;
    real.pattern = PatternModel::real;
    real.mechanism = Mechanism::both;
    real.chunks = chunks;
    variants.push_back(VariantSpec{"overlap-real", real});

    TransformConfig ideal = real;
    ideal.pattern = PatternModel::idealLinear;
    variants.push_back(VariantSpec{"overlap-ideal", ideal});
    return variants;
}

std::vector<double>
logBandwidthGrid(double lo_mbps, double hi_mbps,
                 int points_per_decade)
{
    ovlAssert(lo_mbps > 0.0 && hi_mbps > lo_mbps,
              "logBandwidthGrid: bad range");
    ovlAssert(points_per_decade > 0,
              "logBandwidthGrid: need at least one point/decade");
    std::vector<double> grid;
    const double step =
        std::pow(10.0, 1.0 / points_per_decade);
    for (double b = lo_mbps; b < hi_mbps * (1.0 + 1e-9); b *= step)
        grid.push_back(b);
    if (grid.empty() || grid.back() < hi_mbps * (1.0 - 1e-9))
        grid.push_back(hi_mbps);
    return grid;
}

double
SweepPoint::speedup(std::size_t v) const
{
    return speedupOf(originalTime, variantTimes, v);
}

SweepResult
bandwidthSweep(const tracer::TraceBundle &bundle,
               const sim::PlatformConfig &base,
               const std::vector<double> &bandwidths,
               const std::vector<VariantSpec> &variants,
               int threads, CampaignObs *cobs)
{
    SweepResult result;
    result.variants = variants;

    Fanout fanout(threads,
                  std::max(bandwidths.size(), variants.size() + 1),
                  cobs);
    const Programs programs = fanout.compile(bundle, variants);

    result.points.resize(bandwidths.size());
    fanout.run(
        bandwidths.size(),
        [&](std::size_t i) {
            return strformat("point bw=%.4g", bandwidths[i]);
        },
        [&](std::size_t i, sim::ReplaySession &session) {
            sim::PlatformConfig platform = base;
            platform.bandwidthMBps = bandwidths[i];

            SweepPoint &point = result.points[i];
            point.bandwidthMBps = bandwidths[i];
            const auto original =
                session.run(*programs[0], platform);
            point.originalTime = original.totalTime;
            point.originalCommFraction = original.commFraction();
            point.stats = original.stats;
            point.variantTimes.reserve(variants.size());
            for (std::size_t v = 1; v < programs.size(); ++v) {
                const auto run =
                    session.run(*programs[v], platform);
                point.variantTimes.push_back(run.totalTime);
                point.stats.merge(run.stats);
            }
        });
    // Sequential fold (merge is commutative anyway), so the
    // aggregate is bit-identical at any thread count.
    for (const SweepPoint &point : result.points)
        result.stats.merge(point.stats);
    fanout.finish();
    return result;
}

double
ScalingPoint::speedup(std::size_t v) const
{
    return speedupOf(originalTime, variantTimes, v);
}

ScalingResult
scalingSweep(const gen::WorkloadConfig &workload,
             std::uint64_t seed, const sim::PlatformConfig &base,
             const std::vector<int> &rank_grid,
             const std::vector<VariantSpec> &variants, int threads,
             CampaignObs *cobs)
{
    ScalingResult result;
    result.variants = variants;

    // Unlike the bandwidth sweep there is no shared compiled
    // program: every point is a different trace (its own rank
    // count), so the whole pipeline — generate, transform, compile,
    // replay — fans out per point. Generation is a pure function of
    // (workload, seed).
    Fanout fanout(threads, rank_grid.size(), cobs);
    result.points.resize(rank_grid.size());
    fanout.run(
        rank_grid.size(),
        [&](std::size_t i) {
            return strformat("point ranks=%d", rank_grid[i]);
        },
        [&](std::size_t i, sim::ReplaySession &session) {
            const auto config =
                gen::withRankCount(workload, rank_grid[i]);
            const auto bundle =
                gen::generateWorkload(config, seed);

            ScalingPoint &point = result.points[i];
            point.ranks = rank_grid[i];
            point.sentBytes = bundle.traces.totalSentBytes();
            point.messages = bundle.traces.totalMessages();
            const auto original =
                session.run(bundle.traces, base);
            point.originalTime = original.totalTime;
            point.originalCommFraction = original.commFraction();
            point.stats = original.stats;
            point.variantTimes.reserve(variants.size());
            for (const auto &variant : variants) {
                const auto built = buildOverlappedTrace(
                    bundle.traces, bundle.overlap,
                    variant.config);
                const auto run =
                    session.run(built.traces, base);
                point.variantTimes.push_back(run.totalTime);
                point.stats.merge(run.stats);
            }
        });
    for (const ScalingPoint &point : result.points)
        result.stats.merge(point.stats);
    fanout.finish();
    return result;
}

std::vector<TopologySpec>
standardTopologies()
{
    using namespace net::topologies;
    return {
        {"flat-bus", flatBus()},
        {"fat-tree", fatTree(4)},
        {"fat-tree-taper2", taperedFatTree(4, 0.5)},
        {"torus-2d", torus2d()},
        {"dragonfly", dragonfly()},
    };
}

TopologySweepResult
topologySweep(const tracer::TraceBundle &bundle,
              const sim::PlatformConfig &base,
              const std::vector<double> &bandwidths,
              const std::vector<VariantSpec> &variants,
              const std::vector<TopologySpec> &topologies,
              int threads, CampaignObs *cobs)
{
    TopologySweepResult result;
    result.topologies = topologies;
    result.sweeps = sweepPerPlatform(
        topologies,
        [](sim::PlatformConfig &platform, const TopologySpec &spec) {
            platform.topology = spec.topology;
        },
        bundle, base, bandwidths, variants, threads, cobs);
    return result;
}

DegradedSweepResult
degradedSweep(const tracer::TraceBundle &bundle,
              const sim::PlatformConfig &base,
              const std::vector<double> &bandwidths,
              const std::vector<VariantSpec> &variants,
              const std::vector<ScenarioSpec> &scenarios,
              int threads, CampaignObs *cobs)
{
    DegradedSweepResult result;
    result.scenarios = scenarios;
    result.sweeps = sweepPerPlatform(
        scenarios,
        [](sim::PlatformConfig &platform, const ScenarioSpec &spec) {
            platform.scenario = spec.scenario;
        },
        bundle, base, bandwidths, variants, threads, cobs);
    return result;
}

ResilienceResult
resilienceSweep(const tracer::TraceBundle &bundle,
                const sim::PlatformConfig &base,
                const std::vector<double> &mtbf_grid_us,
                const std::vector<VariantSpec> &variants,
                std::uint32_t seed_count, std::uint64_t seed,
                int threads, CampaignObs *cobs)
{
    ovlAssert(seed_count > 0,
              "resilienceSweep: need at least one seed");
    for (const double mtbf : mtbf_grid_us) {
        ovlAssert(mtbf > 0.0,
                  "resilienceSweep: MTBF must be positive");
    }

    ResilienceResult result;
    result.variants = variants;
    result.seedCount = seed_count;

    const std::size_t jobs = mtbf_grid_us.size() * seed_count;
    Fanout fanout(threads, std::max(jobs, variants.size() + 1), cobs);
    const Programs programs = fanout.compile(bundle, variants);

    // Failure-free pre-pass: nominal completion under the base
    // platform (checkpoint overhead included, faults excluded) sets
    // the fault horizon. Processes stop faulting at 4x the slowest
    // nominal run, so heavily reworked replays finish on a
    // fault-free tail instead of restarting forever.
    const sim::PlatformConfig nominal = nominalPlatform(base);
    std::vector<SimTime> nominalTimes(programs.size());
    std::vector<obs::EngineStats> nominalStats(programs.size());
    fanout.run(programs.size(), nullptr,
               [&](std::size_t v, sim::ReplaySession &session) {
                   const auto run = session.run(*programs[v], nominal);
                   nominalTimes[v] = run.totalTime;
                   nominalStats[v] = run.stats;
               });
    SimTime slowest;
    for (const SimTime t : nominalTimes) {
        if (t > slowest)
            slowest = t;
    }
    result.horizon = slowest * 4;

    const int nodes = (programs[0]->ranks() + base.cpusPerNode - 1) /
        base.cpusPerNode;

    result.points.resize(mtbf_grid_us.size());
    for (std::size_t i = 0; i < mtbf_grid_us.size(); ++i) {
        ResiliencePoint &point = result.points[i];
        point.mtbfUs = mtbf_grid_us[i];
        point.cells.resize(programs.size());
        for (ResilienceCell &cell : point.cells) {
            cell.seedTimes.assign(seed_count, SimTime::max());
            cell.seedDiagnoses.assign(seed_count,
                                      scen::FailureDiagnosis{});
        }
    }

    // One (rate, seed) job per row: the generated scenario is
    // shared across the row's variants, so cells compare under
    // identical fault sequences. The scenario expansion is a pure
    // function of (seed, i, s) through the counter RNG. Jobs of one
    // grid point race on that point, so per-job stats land in a
    // private slot and fold sequentially below.
    std::vector<obs::EngineStats> jobStats(jobs);
    fanout.run(
        jobs,
        [&](std::size_t job) {
            return strformat("job mtbf=%.4g seed=%zu",
                             mtbf_grid_us[job / seed_count],
                             job % seed_count);
        },
        [&](std::size_t job, sim::ReplaySession &session) {
            const std::size_t i = job / seed_count;
            const std::size_t s = job % seed_count;
            const std::uint64_t row_seed =
                CounterRng(seed, static_cast<std::uint64_t>(i)).at(s);
            sim::PlatformConfig platform = nominal;
            platform.scenario = res::generateScenario(
                res::nodeFailStopModel(nodes, mtbf_grid_us[i]),
                row_seed, result.horizon);

            ResiliencePoint &point = result.points[i];
            for (std::size_t v = 0; v < programs.size(); ++v) {
                try {
                    const auto run =
                        session.run(*programs[v], platform);
                    point.cells[v].seedTimes[s] = run.totalTime;
                    jobStats[job].merge(run.stats);
                } catch (const scen::FailureError &err) {
                    // A dead run is campaign data, not an error:
                    // the platform fails faster than this
                    // configuration recovers. The slot keeps its
                    // max() sentinel and the structured diagnosis
                    // (which event killed the run, which ranks were
                    // left unfinished) rides along for the campaign
                    // report.
                    point.cells[v].seedDiagnoses[s] = err.diagnosis();
                }
            }
        });

    for (ResiliencePoint &point : result.points) {
        for (ResilienceCell &cell : point.cells)
            aggregateCell(cell);
    }
    for (const obs::EngineStats &stats : nominalStats)
        result.stats.merge(stats);
    for (const obs::EngineStats &stats : jobStats)
        result.stats.merge(stats);
    fanout.finish();
    return result;
}

ProtocolSweepResult
protocolSweep(const tracer::TraceBundle &bundle,
              const sim::PlatformConfig &base, double mtbf_us,
              const std::vector<double> &interval_grid_us,
              const std::vector<CheckpointProtocol> &protocols,
              std::uint32_t seed_count, std::uint64_t seed,
              double machine_mtbf_us, int threads)
{
    ovlAssert(seed_count > 0,
              "protocolSweep: need at least one seed");
    ovlAssert(mtbf_us > 0.0,
              "protocolSweep: MTBF must be positive");
    ovlAssert(!protocols.empty(),
              "protocolSweep: need at least one protocol");
    ovlAssert(!interval_grid_us.empty(),
              "protocolSweep: need at least one interval");
    for (const double interval : interval_grid_us) {
        ovlAssert(interval > 0.0,
                  "protocolSweep: intervals must be positive");
    }

    ProtocolSweepResult result;
    result.mtbfUs = mtbf_us;
    result.machineMtbfUs = machine_mtbf_us;
    result.seedCount = seed_count;
    result.intervalGridUs = interval_grid_us;

    const std::size_t jobs =
        protocols.size() * interval_grid_us.size() * seed_count;
    Fanout fanout(threads, jobs, nullptr);

    // Protocols compare checkpointing cost models over one fixed
    // workload, so only the original program replays — overlap
    // variants are resilienceSweep's axis, not this sweep's.
    const auto program = fanout.compile(bundle, {})[0];

    // Failure-free, checkpoint-free pre-pass sets the fault horizon
    // at 4x the nominal run, as in resilienceSweep. Checkpointing is
    // stripped too because the interval is this sweep's axis; the
    // 4x headroom dwarfs any protocol's freeze overhead.
    sim::PlatformConfig nominal = nominalPlatform(base);
    nominal.checkpointIntervalUs = 0.0;
    nominal.checkpointCostUs = 0.0;
    nominal.restartCostUs = 0.0;
    nominal.checkpointGlobalIntervalUs = 0.0;
    nominal.checkpointGlobalCostUs = 0.0;
    nominal.restartGlobalCostUs = 0.0;
    fanout.run(1, nullptr,
               [&](std::size_t, sim::ReplaySession &session) {
                   result.horizon =
                       session.run(*program, nominal).totalTime * 4;
               });

    const int nodes = (program->ranks() + base.cpusPerNode - 1) /
        base.cpusPerNode;

    // Daly's M is the machine's mean time between *any* failure:
    // independent exponential processes superpose, so the system
    // rate is the per-node rate times the node count plus the
    // machine-wide rate.
    double failure_rate = static_cast<double>(nodes) / mtbf_us;
    if (machine_mtbf_us > 0.0)
        failure_rate += 1.0 / machine_mtbf_us;
    const double system_mtbf_us = 1.0 / failure_rate;

    result.rows.resize(protocols.size());
    for (std::size_t p = 0; p < protocols.size(); ++p) {
        ProtocolSweepRow &row = result.rows[p];
        row.protocol = protocols[p];
        row.dalyIntervalUs = res::dalyInterval(
            system_mtbf_us, protocols[p].checkpointCostUs);
        row.cells.resize(interval_grid_us.size());
        for (std::size_t k = 0; k < interval_grid_us.size(); ++k) {
            ProtocolCell &cell = row.cells[k];
            cell.intervalUs = interval_grid_us[k];
            cell.cell.seedTimes.assign(seed_count, SimTime::max());
            cell.cell.seedDiagnoses.assign(
                seed_count, scen::FailureDiagnosis{});
        }
    }

    // The fault model, and with it every seed's scenario, is the
    // same for every protocol and interval, so the comparison
    // isolates the cost model.
    res::FaultModel model = res::nodeFailStopModel(nodes, mtbf_us);
    if (machine_mtbf_us > 0.0) {
        // Machine-wide crashes restore from the global snapshot
        // under two-level protocols and from the local one
        // otherwise — the hierarchy's payoff shows up as data.
        res::FaultProcess proc;
        proc.target = scen::ScenTarget::all;
        proc.effect = res::FaultEffect::failStop;
        proc.mtbfUs = machine_mtbf_us;
        model.processes.push_back(std::move(proc));
    }

    // One job per (protocol, interval, seed) cell slot; each job
    // writes only its own slots.
    const std::size_t perProtocol =
        interval_grid_us.size() * seed_count;
    fanout.run(jobs, nullptr,
               [&](std::size_t job, sim::ReplaySession &session) {
        const std::size_t p = job / perProtocol;
        const std::size_t k = (job % perProtocol) / seed_count;
        const std::size_t s = job % seed_count;
        const CheckpointProtocol &proto = protocols[p];
        const double interval = interval_grid_us[k];

        sim::PlatformConfig platform = nominal;
        platform.scenario = res::generateScenario(
            model, CounterRng(seed, 0).at(s), result.horizon);
        platform.checkpointIntervalUs = interval;
        platform.checkpointCostUs = proto.checkpointCostUs;
        platform.restartCostUs = proto.restartCostUs;
        if (proto.globalIntervalFactor > 0.0) {
            platform.checkpointGlobalIntervalUs =
                proto.globalIntervalFactor * interval;
            platform.checkpointGlobalCostUs =
                proto.checkpointGlobalCostUs;
            platform.restartGlobalCostUs = proto.restartGlobalCostUs;
        }

        ResilienceCell &cell = result.rows[p].cells[k].cell;
        try {
            cell.seedTimes[s] =
                session.run(*program, platform).totalTime;
        } catch (const scen::FailureError &err) {
            cell.seedDiagnoses[s] = err.diagnosis();
        }
    });

    for (ProtocolSweepRow &row : result.rows) {
        SimTime best = SimTime::max();
        for (ProtocolCell &cell : row.cells) {
            aggregateCell(cell.cell);
            // Argmin of the mean over surviving seeds; cells where
            // every seed died don't compete.
            if (cell.cell.failedFraction < 1.0 &&
                cell.cell.meanTime < best) {
                best = cell.cell.meanTime;
                row.bestIntervalUs = cell.intervalUs;
            }
        }
    }
    return result;
}

CollectiveSweepResult
collectiveSweep(const tracer::TraceBundle &bundle,
                const sim::PlatformConfig &base,
                const std::vector<double> &bandwidths,
                const std::vector<VariantSpec> &variants,
                const std::vector<TopologySpec> &topologies,
                int threads)
{
    // One topology campaign per collective model: topologySweep
    // already owns the per-topology platform setup and the
    // bit-identical sequential ordering, and the sweeps are
    // independent replays, so running the models back to back is
    // equivalent to interleaving them. The collective schedules
    // are shared through the process-wide cache, so the
    // algorithmic pass compiles each collective shape once across
    // all topologies.
    CollectiveSweepResult result;
    result.topologies = topologies;
    sim::PlatformConfig model_base = base;
    model_base.collectiveModel = coll::CollectiveModel::analytic;
    result.analytic =
        topologySweep(bundle, model_base, bandwidths, variants,
                      topologies, threads)
            .sweeps;
    model_base.collectiveModel =
        coll::CollectiveModel::algorithmic;
    result.algorithmic =
        topologySweep(bundle, model_base, bandwidths, variants,
                      topologies, threads)
            .sweeps;
    return result;
}

double
findIntermediateBandwidth(const trace::TraceSet &original,
                          const sim::PlatformConfig &base,
                          double lo_mbps, double hi_mbps,
                          int iterations)
{
    return findIntermediateBandwidth(sim::compileTrace(original),
                                     base, lo_mbps, hi_mbps,
                                     iterations);
}

double
findIntermediateBandwidth(const sim::ReplayProgram &original,
                          const sim::PlatformConfig &base,
                          double lo_mbps, double hi_mbps,
                          int iterations)
{
    ovlAssert(lo_mbps > 0.0 && hi_mbps > lo_mbps,
              "findIntermediateBandwidth: bad range");

    // Balance function: > 0 while communication dominates. The
    // comm-blocked share shrinks as bandwidth grows, so bisection on
    // the log axis converges onto comm time == compute time. One
    // session serves every iteration of the compiled-once program,
    // so the bisection replays with warmed-up arenas and no
    // per-iteration lowering.
    sim::ReplaySession session;
    const auto imbalance = [&](double mbps) {
        sim::PlatformConfig platform = base;
        platform.bandwidthMBps = mbps;
        const auto result = session.run(original, platform);
        return result.commFraction() - result.computeFraction();
    };

    double lo = std::log(lo_mbps);
    double hi = std::log(hi_mbps);
    if (imbalance(lo_mbps) <= 0.0)
        return lo_mbps;
    if (imbalance(hi_mbps) >= 0.0)
        return hi_mbps;
    for (int i = 0; i < iterations; ++i) {
        const double mid = 0.5 * (lo + hi);
        if (imbalance(std::exp(mid)) > 0.0)
            lo = mid;
        else
            hi = mid;
    }
    return std::exp(0.5 * (lo + hi));
}

double
minBandwidthForTime(const trace::TraceSet &traces,
                    const sim::PlatformConfig &base,
                    SimTime target, double lo_mbps, double hi_mbps,
                    int iterations)
{
    return minBandwidthForTime(sim::compileTrace(traces), base,
                               target, lo_mbps, hi_mbps,
                               iterations);
}

double
minBandwidthForTime(const sim::ReplayProgram &program,
                    const sim::PlatformConfig &base,
                    SimTime target, double lo_mbps, double hi_mbps,
                    int iterations)
{
    ovlAssert(lo_mbps > 0.0 && hi_mbps > lo_mbps,
              "minBandwidthForTime: bad range");

    sim::ReplaySession session;
    const auto meets = [&](double mbps) {
        sim::PlatformConfig platform = base;
        platform.bandwidthMBps = mbps;
        return session.run(program, platform).totalTime <= target;
    };

    if (meets(lo_mbps))
        return lo_mbps;
    if (!meets(hi_mbps))
        return hi_mbps;

    double lo = std::log(lo_mbps);
    double hi = std::log(hi_mbps);
    for (int i = 0; i < iterations; ++i) {
        const double mid = 0.5 * (lo + hi);
        if (meets(std::exp(mid)))
            hi = mid;
        else
            lo = mid;
    }
    return std::exp(hi);
}

IsoPerformanceResult
isoPerformance(const tracer::TraceBundle &bundle,
               const sim::PlatformConfig &base,
               const TransformConfig &variant,
               double reference_mbps, double tolerance,
               double search_lo_mbps, int threads)
{
    ovlAssert(reference_mbps > 0.0,
              "isoPerformance: bad reference bandwidth");
    ovlAssert(tolerance >= 0.0, "isoPerformance: bad tolerance");

    IsoPerformanceResult result;
    result.referenceBandwidth = reference_mbps;
    result.tolerance = tolerance;

    // One compiled program of the original serves the reference
    // replay and every iteration of its bisection below.
    const auto original = sim::compileShared(bundle.traces);

    sim::PlatformConfig reference = base;
    reference.bandwidthMBps = reference_mbps;
    result.originalTime =
        sim::simulate(*original, reference).totalTime;

    const auto target = SimTime::fromNs(static_cast<std::int64_t>(
        static_cast<double>(result.originalTime.ns()) *
        (1.0 + tolerance)));

    // The two bisections are independent searches against the same
    // target; each writes its own result field, so running them
    // concurrently cannot change the outcome. The overlapped-trace
    // construction and lowering stay inside their task to overlap
    // with the original's search; the TraceSet dies at compile.
    const int lanes = ThreadPool::resolveThreads(threads);
    ThreadPool pool(lanes > 2 ? 2 : lanes);
    pool.parallelFor(2, [&](std::size_t task, int) {
        if (task == 0) {
            result.originalRequiredBandwidth = minBandwidthForTime(
                *original, base, target, search_lo_mbps,
                reference_mbps);
        } else {
            const auto overlapped =
                sim::compileTrace(buildOverlappedTrace(
                                      bundle.traces,
                                      bundle.overlap, variant)
                                      .traces);
            result.overlappedRequiredBandwidth =
                minBandwidthForTime(overlapped, base, target,
                                    search_lo_mbps,
                                    reference_mbps);
        }
    });
    return result;
}

} // namespace ovlsim::core
