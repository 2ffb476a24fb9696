/**
 * @file
 * Golden bit-identity pins for flat-bus admission.
 *
 * The flat bus admits a remote transfer only while a bus (buses > 0)
 * and its endpoints' out/in links are free; everything else waits in
 * FIFO order until a release makes it startable. The goldens below
 * were recorded from the engine whose admission rescanned the whole
 * wait queue on every release, so any change to the wait-queue data
 * structure must reproduce them exactly:
 *
 *  - a matrix of buses {0, 1, 3} x out/in links {(0,1), (1,0),
 *    (1,1), (2,2)} x eager threshold {0, 4 KiB, 1 MiB} over a
 *    generated stencil, a generated fan-in and sweep3d's 16-chunk
 *    real overlap variant,
 *  - three edge cases of the release path: a transfer posted inside
 *    a release window that the release cannot have unblocked,
 *    background flows that drive the free counts negative, and a
 *    checkpoint rollback that restores non-empty wait queues.
 *
 * The stencil and fan-in rows at eager thresholds 0 and 4 KiB, the
 * reentrant rows with out/in links (1,0) and the rollback rows were
 * re-recorded when a rendezvous send matching an earlier-posted
 * receive stopped starting at the receive's post time; they start at
 * the send's.
 *
 * Each case compares totalTime and eventsProcessed directly and a
 * digest of everything else the admission order decides: per-rank
 * end, compute and blocked times, message counts, and the
 * obs::EngineStats counters.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "apps/app.hh"
#include "core/transform.hh"
#include "gen/gen.hh"
#include "helpers.hh"
#include "sim/engine.hh"
#include "sim/platform.hh"
#include "trace/trace.hh"

namespace ovlsim {
namespace {

using scen::ScenarioEvent;
using scen::ScenEventKind;
using scen::ScenTarget;
using trace::CpuBurst;
using trace::IRecvRec;
using trace::RecvRec;
using trace::SendRec;
using trace::TraceSet;
using trace::WaitAllRec;

using testing::Digest;

std::uint64_t
digestOf(const sim::SimResult &r)
{
    Digest d;
    d.add(r.totalTime);
    d.add(r.eventsProcessed);
    d.add(r.transfers);
    for (const auto &rank : r.perRank) {
        d.add(rank.endTime);
        d.add(rank.computeTime);
        d.add(rank.sendBlockedTime);
        d.add(rank.recvBlockedTime);
        d.add(rank.waitBlockedTime);
        d.add(rank.collectiveTime);
        d.add(rank.messagesSent);
        d.add(rank.messagesReceived);
        d.add(rank.bytesSent);
    }
    const obs::EngineStats &s = r.stats;
    for (const std::uint64_t v :
         {s.heapPushes, s.heapPops, s.channelProbes, s.arenaHighWater,
          s.rateRecomputes, s.recomputesSkipped, s.rearmsTaken,
          s.rearmsSkipped, s.scenarioEvents, s.collSteps,
          s.rollbackReworkNs})
        d.add(v);
    d.add(r.checkpoints);
    d.add(r.restarts);
    return d.h;
}

/** Expected outcome of one replay. */
struct Golden
{
    std::int64_t totalNs;
    std::uint64_t events;
    std::uint64_t digest;
};

/** Compare against a golden; on mismatch print the observed row. */
void
expectGolden(const sim::SimResult &r, const Golden &g,
             const std::string &label)
{
    const Golden got{r.totalTime.ns(), r.eventsProcessed,
                     digestOf(r)};
    EXPECT_EQ(got.totalNs, g.totalNs) << label;
    EXPECT_EQ(got.events, g.events) << label;
    EXPECT_EQ(got.digest, g.digest)
        << label << "\n  observed: {" << got.totalNs << ", "
        << got.events << "u, 0x" << std::hex << got.digest
        << "ULL},";
}

// ---------------------------------------------------------------
// The configuration matrix.
// ---------------------------------------------------------------

TraceSet
stencilTrace()
{
    gen::WorkloadConfig w;
    w.kind = gen::WorkloadKind::stencil;
    w.ranks = 32;
    w.iterations = 4;
    w.stencilDims = 2;
    w.haloBytes = 48 * 1024;
    w.computePerIteration = 200'000;
    w.computeJitter = 0.25;
    return gen::generateTrace(w, 7);
}

TraceSet
fanInTrace()
{
    gen::WorkloadConfig w;
    w.kind = gen::WorkloadKind::fanIn;
    w.ranks = 16;
    w.iterations = 3;
    w.servers = 3;
    w.requestsPerClient = 3;
    w.requestBytes = 2048;
    w.replyBytes = 64 * 1024;
    return gen::generateTrace(w, 11);
}

TraceSet
sweep3dRealVariant()
{
    const auto bundle = testing::traceOf(
        apps::findApp("sweep3d").defaults().ranks,
        apps::findApp("sweep3d").program(
            apps::findApp("sweep3d").defaults()),
        "sweep3d");
    core::TransformConfig config;
    config.pattern = core::PatternModel::real;
    config.mechanism = core::Mechanism::both;
    config.chunks = 16;
    return core::buildOverlappedTrace(bundle.traces, bundle.overlap,
                                      config)
        .traces;
}

struct LinkShape
{
    int out;
    int in;
};

constexpr int matrixBuses[] = {0, 1, 3};
constexpr LinkShape matrixLinks[] = {{0, 1}, {1, 0}, {1, 1}, {2, 2}};
constexpr Bytes matrixEager[] = {0, 4 * 1024, 1024 * 1024};
constexpr std::size_t matrixCases = 3 * 4 * 3;

/** Goldens per input, in (buses, links, eager) row-major order. */
const Golden stencilGoldens[matrixCases] = {
    {3668531, 992u, 0xc73784fcb9ab86f9ULL},
    {3668531, 992u, 0xc73784fcb9ab86f9ULL},
    {3272361, 992u, 0x91062e4b81c6fef3ULL},
    {3646044, 992u, 0x17e25e10905df9b8ULL},
    {3646044, 992u, 0x17e25e10905df9b8ULL},
    {3660459, 992u, 0xe7c2314f7b44f8ecULL},
    {3668531, 992u, 0x5d7498ad10822244ULL},
    {3668531, 992u, 0x5d7498ad10822244ULL},
    {3704771, 992u, 0x98bbcaa01a9a9dfULL},
    {3467877, 992u, 0xf677fcb7ab013b2dULL},
    {3467877, 992u, 0xf677fcb7ab013b2dULL},
    {2831470, 992u, 0xf663ee9fe968bc5bULL},
    {27810373, 992u, 0xd1d4bd8689d3c9e9ULL},
    {27810373, 992u, 0xd1d4bd8689d3c9e9ULL},
    {27810036, 992u, 0xd1a70933b843114fULL},
    {27810373, 992u, 0xd1d4bd8689d3c9e9ULL},
    {27810373, 992u, 0xd1d4bd8689d3c9e9ULL},
    {27810036, 992u, 0xd1a70933b843114fULL},
    {27810373, 992u, 0xd1d4bd8689d3c9e9ULL},
    {27810373, 992u, 0xd1d4bd8689d3c9e9ULL},
    {27810036, 992u, 0xd1a70933b843114fULL},
    {27810373, 992u, 0xd1d4bd8689d3c9e9ULL},
    {27810373, 992u, 0xd1d4bd8689d3c9e9ULL},
    {27810036, 992u, 0xd1a70933b843114fULL},
    {9411269, 992u, 0x8245944cfcd0ee8eULL},
    {9411269, 992u, 0x8245944cfcd0ee8eULL},
    {9386373, 992u, 0xf3476b6854ec6efeULL},
    {9411269, 992u, 0x8b574148846160baULL},
    {9411269, 992u, 0x8b574148846160baULL},
    {9381565, 992u, 0x4cebdd79551b0beULL},
    {9411269, 992u, 0xb48f1758c0e21671ULL},
    {9411269, 992u, 0xb48f1758c0e21671ULL},
    {9386036, 992u, 0xe0be6db615d966d7ULL},
    {9411269, 992u, 0xacbfc0bc94fc2e91ULL},
    {9411269, 992u, 0xacbfc0bc94fc2e91ULL},
    {9386373, 992u, 0xc49b59aeb541af48ULL},
};

const Golden fanInGoldens[matrixCases] = {
    {13252750, 718u, 0xe1bdbf4b3323eda1ULL},
    {12760000, 718u, 0x1b9806512fd974beULL},
    {7354000, 718u, 0x632ce40026615d9aULL},
    {17196000, 718u, 0x44ec6b89129ebc1fULL},
    {17124000, 718u, 0x69a7f7127c213b1ULL},
    {16782000, 718u, 0x17e94ba360a04ecbULL},
    {17246000, 718u, 0x7c985f7b91778834ULL},
    {17124000, 718u, 0x1fcc27250f8004fbULL},
    {16782000, 718u, 0x8340c312fd07b533ULL},
    {12678750, 718u, 0x7a6f4237b4e6bfe6ULL},
    {12206000, 718u, 0x7d038ad431321f89ULL},
    {8882000, 718u, 0xfbd4611cf8889115ULL},
    {26298750, 718u, 0xf45d95c3d422110cULL},
    {24244000, 718u, 0xde6f31b513247efaULL},
    {24116000, 718u, 0x24ffcf7716f7303bULL},
    {26298750, 718u, 0xf45d95c3d422110cULL},
    {24244000, 718u, 0xde6f31b513247efaULL},
    {24116000, 718u, 0x24ffcf7716f7303bULL},
    {26298750, 718u, 0xf45d95c3d422110cULL},
    {24244000, 718u, 0xde6f31b513247efaULL},
    {24116000, 718u, 0x24ffcf7716f7303bULL},
    {26298750, 718u, 0xf45d95c3d422110cULL},
    {24244000, 718u, 0xde6f31b513247efaULL},
    {24116000, 718u, 0x24ffcf7716f7303bULL},
    {13252750, 718u, 0xe1bdbf4b3323eda1ULL},
    {12760000, 718u, 0x1b9806512fd974beULL},
    {8770000, 718u, 0x2c183f509ab17b37ULL},
    {17196000, 718u, 0x44ec6b89129ebc1fULL},
    {17124000, 718u, 0x69a7f7127c213b1ULL},
    {16782000, 718u, 0x17e94ba360a04ecbULL},
    {17246000, 718u, 0x7c985f7b91778834ULL},
    {17124000, 718u, 0x1fcc27250f8004fbULL},
    {16782000, 718u, 0x8340c312fd07b533ULL},
    {12678750, 718u, 0x7a6f4237b4e6bfe6ULL},
    {12206000, 718u, 0xabee9094d78dd455ULL},
    {9164000, 718u, 0xbed70c78941b3898ULL},
};

const Golden sweep3dGoldens[matrixCases] = {
    {27035220, 24621u, 0x696505bd91031abbULL},
    {27035220, 24621u, 0x696505bd91031abbULL},
    {27035220, 24621u, 0x696505bd91031abbULL},
    {27076900, 24621u, 0xcbac484b9c2713c5ULL},
    {27076900, 24621u, 0xcbac484b9c2713c5ULL},
    {27076900, 24621u, 0xcbac484b9c2713c5ULL},
    {27076900, 24621u, 0xcbac484b9c2713c5ULL},
    {27076900, 24621u, 0xcbac484b9c2713c5ULL},
    {27076900, 24621u, 0xcbac484b9c2713c5ULL},
    {26536948, 24621u, 0x63ffe11b5b02d1c9ULL},
    {26536948, 24621u, 0x63ffe11b5b02d1c9ULL},
    {26536948, 24621u, 0x63ffe11b5b02d1c9ULL},
    {27715520, 24621u, 0x218ce03c7dd653b2ULL},
    {27715520, 24621u, 0x218ce03c7dd653b2ULL},
    {27715520, 24621u, 0x218ce03c7dd653b2ULL},
    {27715520, 24621u, 0x218ce03c7dd653b2ULL},
    {27715520, 24621u, 0x218ce03c7dd653b2ULL},
    {27715520, 24621u, 0x218ce03c7dd653b2ULL},
    {27715520, 24621u, 0x218ce03c7dd653b2ULL},
    {27715520, 24621u, 0x218ce03c7dd653b2ULL},
    {27715520, 24621u, 0x218ce03c7dd653b2ULL},
    {27715520, 24621u, 0x218ce03c7dd653b2ULL},
    {27715520, 24621u, 0x218ce03c7dd653b2ULL},
    {27715520, 24621u, 0x218ce03c7dd653b2ULL},
    {27035220, 24621u, 0x696505bd91031abbULL},
    {27035220, 24621u, 0x696505bd91031abbULL},
    {27035220, 24621u, 0x696505bd91031abbULL},
    {27076900, 24621u, 0xcbac484b9c2713c5ULL},
    {27076900, 24621u, 0xcbac484b9c2713c5ULL},
    {27076900, 24621u, 0xcbac484b9c2713c5ULL},
    {27076900, 24621u, 0xcbac484b9c2713c5ULL},
    {27076900, 24621u, 0xcbac484b9c2713c5ULL},
    {27076900, 24621u, 0xcbac484b9c2713c5ULL},
    {26666604, 24621u, 0x108c7081c0075e08ULL},
    {26666604, 24621u, 0x108c7081c0075e08ULL},
    {26666604, 24621u, 0x108c7081c0075e08ULL},
};

void
checkMatrix(const TraceSet &traces,
            const Golden (&goldens)[matrixCases], const char *input)
{
    const auto program = sim::compileShared(traces);
    sim::ReplaySession session;
    std::size_t k = 0;
    for (const int buses : matrixBuses) {
        for (const LinkShape links : matrixLinks) {
            for (const Bytes eager : matrixEager) {
                auto platform = sim::platforms::defaultCluster(2);
                platform.bandwidthMBps = 512.0;
                platform.buses = buses;
                platform.outLinksPerNode = links.out;
                platform.inLinksPerNode = links.in;
                platform.eagerThreshold = eager;
                expectGolden(
                    session.run(*program, platform), goldens[k],
                    std::string(input) + " buses=" +
                        std::to_string(buses) + " out=" +
                        std::to_string(links.out) + " in=" +
                        std::to_string(links.in) + " eager=" +
                        std::to_string(eager));
                ++k;
            }
        }
    }
}

TEST(BusAdmissionTest, StencilMatrixMatchesGoldens)
{
    checkMatrix(stencilTrace(), stencilGoldens, "stencil");
}

TEST(BusAdmissionTest, FanInMatrixMatchesGoldens)
{
    checkMatrix(fanInTrace(), fanInGoldens, "fan-in");
}

TEST(BusAdmissionTest, Sweep3dRealVariantMatrixMatchesGoldens)
{
    checkMatrix(sweep3dRealVariant(), sweep3dGoldens, "sweep3d");
}

// ---------------------------------------------------------------
// Edge cases of the release path.
// ---------------------------------------------------------------

/**
 * Rank 0's blocking send to rank 1 and rank 2's send to rank 1 both
 * need rank 1's in-link, so rank 2's waits. When rank 0's send
 * injects, the release frees out[0] and in[1] and wakes rank 0,
 * whose next receive matches rank 3's rendezvous send: a transfer
 * 3 -> 0 posted inside the release window on links the release did
 * not free. FIFO admission starts the queued 2 -> 1 first and only
 * then tries 3 -> 0, which starts at once when rank 4's shorter
 * send to rank 0 has already left rank 0's in-link, and otherwise
 * waits for that send's own release.
 */
TraceSet
reentrantTrace(Bytes rank4_bytes)
{
    constexpr Bytes mb = 1'000'000;
    TraceSet traces("reentrant", 5);
    auto &r0 = traces.rankTrace(0);
    r0.append(IRecvRec{4, 4, rank4_bytes, 4, 1});
    r0.append(SendRec{1, 1, mb, 1});
    r0.append(RecvRec{3, 3, mb, 3});
    r0.append(WaitAllRec{});
    auto &r1 = traces.rankTrace(1);
    r1.append(IRecvRec{0, 1, mb, 1, 1});
    r1.append(IRecvRec{2, 2, mb, 2, 2});
    r1.append(WaitAllRec{});
    traces.rankTrace(2).append(CpuBurst{1'000});
    traces.rankTrace(2).append(SendRec{1, 2, mb, 2});
    traces.rankTrace(3).append(SendRec{0, 3, mb, 3});
    traces.rankTrace(4).append(SendRec{0, 4, rank4_bytes, 4});
    return traces;
}

const Golden reentrantGoldens[6] = {
    {7820500, 14u, 0x4656e9dc4efa29c7ULL},
    {7820500, 14u, 0x4734cbde3e3f7a4bULL},
    {7820500, 14u, 0x4656e9dc4efa29c7ULL},
    {11726750, 14u, 0x2248a5f33bbf76dULL},
    {7820500, 14u, 0xa15af4c80514c1fdULL},
    {11726750, 14u, 0x2248a5f33bbf76dULL},
};

TEST(BusAdmissionTest, ReentrantPostOutsideThePendingRelease)
{
    std::size_t k = 0;
    for (const Bytes rank4_bytes : {Bytes(500'000), Bytes(2'000'000)}) {
        const auto traces = reentrantTrace(rank4_bytes);
        for (const LinkShape links :
             {LinkShape{1, 1}, LinkShape{1, 0}, LinkShape{0, 1}}) {
            auto platform = sim::platforms::defaultCluster();
            platform.eagerThreshold = 0;
            platform.outLinksPerNode = links.out;
            platform.inLinksPerNode = links.in;
            expectGolden(sim::simulate(traces, platform),
                         reentrantGoldens[k],
                         "reentrant bytes=" +
                             std::to_string(rank4_bytes) + " out=" +
                             std::to_string(links.out) + " in=" +
                             std::to_string(links.in));
            ++k;
        }
    }
}

ScenarioEvent
backgroundFlow(double us, int src, int dst, Bytes bytes)
{
    ScenarioEvent ev;
    ev.time = SimTime::fromUs(us);
    ev.kind = ScenEventKind::background;
    ev.target = ScenTarget::route;
    ev.nodeA = src;
    ev.nodeB = dst;
    ev.bytes = bytes;
    return ev;
}

const Golden backgroundGoldens[2] = {
    {9052216, 46u, 0x1deaf3ed829496a8ULL},
    {11274000, 46u, 0x2eaf6444cb090b91ULL},
};

/**
 * Two overlapping background flows on the route 0 -> 1 hold the bus
 * and both endpoints' links twice over, driving the free counts to
 * -1; the first finish only brings them back to zero (no waiter may
 * start), the second releases them for the queued app traffic.
 */
TEST(BusAdmissionTest, BackgroundFlowsDriveFreeCountsNegative)
{
    const auto bundle = testing::traceOf(
        4, testing::ringExchange(64 * 1024, 20'000, 3));
    std::size_t k = 0;
    for (const int buses : {0, 1}) {
        auto platform = testing::platformAt(256.0);
        platform.buses = buses;
        platform.scenario.events.push_back(
            backgroundFlow(1.0, 0, 1, 1 << 20));
        platform.scenario.events.push_back(
            backgroundFlow(2.0, 0, 1, 2 << 20));
        platform.scenario.events.push_back(
            backgroundFlow(3.0, 2, 1, 1 << 19));
        expectGolden(sim::simulate(bundle.traces, platform),
                     backgroundGoldens[k],
                     "background buses=" + std::to_string(buses));
        ++k;
    }
}

/**
 * Seven ranks push 1 MB each into rank 0 per round through its single
 * in-link, so the wait queue holds up to six transfers for most of
 * the run; checkpoints land while it is full and a node failure
 * rolls back to one, restoring the queued transfers and their order.
 */
TraceSet
fanInRounds()
{
    constexpr Bytes mb = 1'000'000;
    constexpr int ranks = 8;
    TraceSet traces("fan-in-rounds", ranks);
    for (int round = 0; round < 3; ++round) {
        auto &root = traces.rankTrace(0);
        for (int p = 1; p < ranks; ++p) {
            root.append(IRecvRec{p, round, mb,
                                 std::uint64_t(round * ranks + p),
                                 std::uint64_t(p)});
        }
        root.append(WaitAllRec{});
        root.append(CpuBurst{100'000});
        for (int p = 1; p < ranks; ++p) {
            auto &leaf = traces.rankTrace(p);
            leaf.append(CpuBurst{Instr(10'000 * p)});
            leaf.append(SendRec{0, round, mb,
                                std::uint64_t(round * ranks + p)});
        }
    }
    return traces;
}

const Golden rollbackGoldens[2] = {
    {22471823, 91u, 0x64aba8ae94e4ab2bULL},
    {22471823, 91u, 0x64aba8ae94e4ab2bULL},
};

TEST(BusAdmissionTest, RollbackRestoresNonEmptyNodeQueues)
{
    const auto traces = fanInRounds();
    std::size_t k = 0;
    for (const int buses : {0, 2}) {
        auto platform = testing::platformAt(1024.0);
        platform.eagerThreshold = 0;
        platform.buses = buses;
        platform.checkpointIntervalUs = 2'500.0;
        platform.checkpointCostUs = 10.0;
        platform.restartCostUs = 50.0;
        ScenarioEvent fail;
        fail.time = SimTime::fromUs(4'000.0);
        fail.kind = ScenEventKind::fail;
        fail.target = ScenTarget::node;
        fail.nodeA = 3;
        platform.scenario.events.push_back(fail);
        const auto result = sim::simulate(traces, platform);
        EXPECT_EQ(result.restarts, 1u);
        expectGolden(result, rollbackGoldens[k],
                     "rollback buses=" + std::to_string(buses));
        ++k;
    }
}

} // namespace
} // namespace ovlsim
