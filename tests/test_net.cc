/**
 * @file
 * The topology-aware network subsystem: route compilation, the
 * link-contention model's invariants, platform-file coverage of the
 * topology fields, and the engine seam.
 *
 * Key contracts pinned here:
 *  - per-link occupancy conservation: while flows are in flight the
 *    summed link loads equal the summed route lengths, and a
 *    drained network holds zero load,
 *  - route symmetry: route(a, b) and route(b, a) traverse the same
 *    number of links in every compiled topology,
 *  - bus-model bit-identity: a platform carrying the default
 *    flat-bus topology replays exactly like the pre-topology
 *    engine path (same struct, same code path — pinned against the
 *    compile-on-entry reference),
 *  - uncontended equivalence: a lone transfer through a
 *    full-bisection fabric costs exactly the flat model's
 *    serialization + latency,
 *  - determinism: every topology replays bit-identically across
 *    repeats, sessions and the one-shot entry point.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <sstream>
#include <tuple>
#include <vector>

#include "core/analysis.hh"
#include "helpers.hh"
#include "net/network.hh"
#include "net/topology.hh"
#include "sim/engine.hh"
#include "sim/platform_file.hh"
#include "util/counter_rng.hh"

namespace ovlsim {
namespace {

using net::CompiledTopology;
using net::LinkNetwork;
using net::TopologyConfig;
using net::TopologyKind;
using testing::expectIdentical;

TEST(TopologyKindTest, NamesRoundTrip)
{
    for (const auto kind :
         {TopologyKind::flatBus, TopologyKind::fatTree,
          TopologyKind::torus, TopologyKind::dragonfly}) {
        EXPECT_EQ(net::topologyKindFromName(
                      net::topologyKindName(kind)),
                  kind);
    }
    EXPECT_THROW(net::topologyKindFromName("hypercube"),
                 FatalError);
}

TEST(TopologyConfigTest, ValidateRejectsNonsense)
{
    TopologyConfig tree = net::topologies::fatTree();
    tree.fatTreeRadix = 3; // not a power of two
    EXPECT_THROW(tree.validate(), FatalError);
    tree.fatTreeRadix = 1;
    EXPECT_THROW(tree.validate(), FatalError);
    tree = net::topologies::fatTree();
    tree.fatTreeTaper = 0.0;
    EXPECT_THROW(tree.validate(), FatalError);

    TopologyConfig torus = net::topologies::torus2d();
    torus.torusDims = {4, 0};
    EXPECT_THROW(torus.validate(), FatalError);

    TopologyConfig fly = net::topologies::dragonfly();
    fly.dragonflyRoutersPerGroup = 0;
    EXPECT_THROW(fly.validate(), FatalError);

    TopologyConfig bad = net::topologies::fatTree();
    bad.linkBandwidthMBps = -1.0;
    EXPECT_THROW(bad.validate(), FatalError);
    bad = net::topologies::fatTree();
    bad.hopLatencyUs = -0.5;
    EXPECT_THROW(bad.validate(), FatalError);
}

TEST(TopologyConfigTest, PlatformValidateCoversTopology)
{
    auto platform = sim::platforms::topologyCluster(
        net::topologies::fatTree());
    platform.topology.fatTreeRadix = 6;
    EXPECT_THROW(platform.validate(), FatalError);
}

TEST(PlatformFileTopologyTest, RoundTripPreservesTopology)
{
    auto config = sim::platforms::defaultCluster(2);
    config.topology = net::topologies::taperedFatTree(8, 0.25);
    config.topology.linkBandwidthMBps = 512.0;
    config.topology.hopLatencyUs = 0.75;

    std::stringstream stream;
    sim::writePlatformConfig(config, stream);
    const auto parsed = sim::readPlatformConfig(stream);
    EXPECT_TRUE(parsed.topology == config.topology);

    auto torus = sim::platforms::defaultCluster();
    torus.topology = net::topologies::torus2d();
    torus.topology.torusDims = {4, 2, 2};
    torus.topology.torusWrap = false;
    std::stringstream stream2;
    sim::writePlatformConfig(torus, stream2);
    EXPECT_TRUE(sim::readPlatformConfig(stream2).topology ==
                torus.topology);
}

TEST(PlatformFileTopologyTest, RejectsBadTopologyValues)
{
    std::stringstream unknown("topology = moebius-strip\n");
    EXPECT_THROW(sim::readPlatformConfig(unknown), FatalError);

    std::stringstream radix("topology = fat-tree\n"
                            "fat_tree_radix = 6\n");
    EXPECT_THROW(sim::readPlatformConfig(radix), FatalError);

    std::stringstream zerobw("topology = torus\n"
                             "link_bandwidth_mbps = 0\n");
    EXPECT_THROW(sim::readPlatformConfig(zerobw), FatalError);

    std::stringstream dims("topology = torus\n"
                           "torus_dims = 4x0\n");
    EXPECT_THROW(sim::readPlatformConfig(dims), FatalError);
}

/** Route length of every ordered pair, for symmetry checks. */
void
expectRouteSymmetry(const CompiledTopology &topo)
{
    for (int a = 0; a < topo.nodes(); ++a) {
        for (int b = 0; b < topo.nodes(); ++b) {
            EXPECT_EQ(topo.route(a, b).size(),
                      topo.route(b, a).size())
                << "pair " << a << "<->" << b;
        }
    }
}

TEST(RouteCompilerTest, FatTreeRoutes)
{
    const auto topo = net::compileTopology(
        net::topologies::fatTree(2), 8);
    EXPECT_EQ(topo.nodes(), 8);
    // Same leaf: injection + reception only.
    EXPECT_EQ(topo.route(0, 1).size(), 2u);
    // Opposite halves of an 8-node radix-2 tree: 2 up, 2 down.
    EXPECT_EQ(topo.route(0, 7).size(), 6u);
    // Intra-node traffic never touches the network.
    EXPECT_TRUE(topo.route(3, 3).empty());
    expectRouteSymmetry(topo);
}

TEST(RouteCompilerTest, TorusRoutesUseShortestDirection)
{
    TopologyConfig config = net::topologies::torus2d();
    config.torusDims = {4};
    const auto topo = net::compileTopology(config, 4);
    // Ring of 4: 0 -> 1 is one hop (+ inject/eject), 0 -> 3 wraps
    // backwards in one hop, 0 -> 2 ties and takes two.
    EXPECT_EQ(topo.route(0, 1).size(), 3u);
    EXPECT_EQ(topo.route(0, 3).size(), 3u);
    EXPECT_EQ(topo.route(0, 2).size(), 4u);
    expectRouteSymmetry(topo);

    config.torusWrap = false;
    const auto mesh = net::compileTopology(config, 4);
    // Mesh: no wrap, 0 -> 3 walks the full line.
    EXPECT_EQ(mesh.route(0, 3).size(), 5u);
    expectRouteSymmetry(mesh);
}

TEST(RouteCompilerTest, DragonflyRoutes)
{
    TopologyConfig config = net::topologies::dragonfly();
    config.dragonflyGroups = 3;
    config.dragonflyRoutersPerGroup = 2;
    config.dragonflyNodesPerRouter = 2;
    const auto topo = net::compileTopology(config, 12);
    // Same router: inject + eject.
    EXPECT_EQ(topo.route(0, 1).size(), 2u);
    // Same group, different router: one local hop.
    EXPECT_EQ(topo.route(0, 2).size(), 3u);
    expectRouteSymmetry(topo);
    // Cross-group routes take at most local-global-local + NIC.
    for (int a = 0; a < 12; ++a) {
        for (int b = 0; b < 12; ++b) {
            if (a != b) {
                EXPECT_LE(topo.route(a, b).size(), 5u);
            }
        }
    }
}

TEST(RouteCompilerTest, AutoSizingCoversTheNodeCount)
{
    for (const int nodes : {1, 2, 5, 16, 33}) {
        const auto torus = net::compileTopology(
            net::topologies::torus2d(), nodes);
        const auto fly = net::compileTopology(
            net::topologies::dragonfly(), nodes);
        EXPECT_EQ(torus.nodes(), nodes);
        EXPECT_EQ(fly.nodes(), nodes);
    }
    // Explicit sizing that cannot host the machine is fatal.
    TopologyConfig small = net::topologies::torus2d();
    small.torusDims = {2, 2};
    EXPECT_THROW(net::compileTopology(small, 5), FatalError);
    TopologyConfig fly = net::topologies::dragonfly();
    fly.dragonflyGroups = 1;
    EXPECT_THROW(net::compileTopology(fly, 5), FatalError);
}

/**
 * Mini event loop over a LinkNetwork: drives every armed finish
 * event in time order, checking occupancy conservation throughout.
 */
struct NetHarness
{
    explicit NetHarness(const CompiledTopology &topo,
                        double base_mbps)
        : topo_(topo)
    {
        net.configure(&topo_, base_mbps);
    }

    void
    start(std::uint32_t id, int src, int dst, Bytes bytes,
          SimTime now)
    {
        expectedLoad += topo_.route(src, dst).size();
        const SimTime finish = net.start(id, src, dst, bytes, now, stats);
        events.push({finish.ns(), id});
        EXPECT_EQ(net.totalLoad(), expectedLoad);
    }

    /** Run until drained; returns the completion time per flow id. */
    std::vector<std::pair<std::uint32_t, SimTime>>
    drain()
    {
        std::vector<std::pair<std::uint32_t, SimTime>> done;
        std::vector<std::uint32_t> finished;
        while (!events.empty()) {
            const auto [ns, id] = events.top();
            events.pop();
            // Leftover events of completed flows are dropped, the
            // way the engine's tfInNet flag drops them.
            if (std::find(finished.begin(), finished.end(), id) !=
                finished.end())
                continue;
            const SimTime now = SimTime::fromNs(ns);
            const auto check = net.onFinishEvent(id, now, stats);
            if (!check.done) {
                if (check.reschedule)
                    events.push({check.retry.ns(), id});
                continue;
            }
            done.emplace_back(id, now);
            finished.push_back(id);
            for (const auto &[flow, finish] :
                 net.pendingReschedules())
                events.push({finish.ns(), flow});
            net.clearPendingReschedules();
        }
        EXPECT_EQ(net.activeFlows(), 0u);
        EXPECT_EQ(net.totalLoad(), 0u);
        return done;
    }

    const CompiledTopology &topo_;
    LinkNetwork net;
    obs::EngineStats stats;
    std::uint64_t expectedLoad = 0;
    using Ev = std::pair<std::int64_t, std::uint32_t>;
    std::priority_queue<Ev, std::vector<Ev>, std::greater<Ev>>
        events;
};

TEST(LinkNetworkTest, OccupancyConservation)
{
    const auto topo = net::compileTopology(
        net::topologies::fatTree(2), 8);
    NetHarness h(topo, 1000.0); // 1 B/ns
    h.start(0, 0, 7, 64 * 1024, SimTime::zero());
    h.start(1, 1, 6, 32 * 1024, SimTime::fromNs(100));
    h.start(2, 4, 3, 16 * 1024, SimTime::fromNs(200));
    const auto done = h.drain();
    EXPECT_EQ(done.size(), 3u);
}

TEST(LinkNetworkTest, UncontendedFlowMatchesSerialization)
{
    // 1000 MB/s = 1 B/ns: a lone 4096-byte flow through a
    // full-bisection tree serializes in exactly 4096 ns.
    const auto topo = net::compileTopology(
        net::topologies::fatTree(2), 4);
    NetHarness h(topo, 1000.0);
    h.start(0, 0, 3, 4096, SimTime::zero());
    const auto done = h.drain();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].second.ns(), 4096);
}

TEST(LinkNetworkTest, SharedBottleneckHalvesTheRate)
{
    // Radix-2 tapered tree over 4 nodes: flows 0->2 and 1->3 both
    // cross the leaf0->root and root->leaf1 aggregate links, whose
    // taper-0.5 factor gives them exactly the base capacity. Two
    // equal flows admitted together must each take twice the lone
    // serialization; with full bisection (factor 2) they must not
    // contend at all.
    TopologyConfig tapered = net::topologies::taperedFatTree(2);
    const auto topo = net::compileTopology(tapered, 4);
    NetHarness both(topo, 1000.0);
    both.start(0, 0, 2, 4096, SimTime::zero());
    both.start(1, 1, 3, 4096, SimTime::zero());
    auto done = both.drain();
    ASSERT_EQ(done.size(), 2u);
    for (const auto &[id, finish] : done)
        EXPECT_EQ(finish.ns(), 8192) << "flow " << id;

    const auto full = net::compileTopology(
        net::topologies::fatTree(2), 4);
    NetHarness wide(full, 1000.0);
    wide.start(0, 0, 2, 4096, SimTime::zero());
    wide.start(1, 1, 3, 4096, SimTime::zero());
    done = wide.drain();
    ASSERT_EQ(done.size(), 2u);
    for (const auto &[id, finish] : done)
        EXPECT_EQ(finish.ns(), 4096) << "flow " << id;
}

TEST(LinkNetworkTest, CancelAllDrainsTheNetwork)
{
    // A whole-replay rollback cancels everything in flight; the
    // network must come back drained and immediately reusable.
    const auto topo = net::compileTopology(
        net::topologies::fatTree(2), 8);
    LinkNetwork net;
    obs::EngineStats stats;
    net.configure(&topo, 1000.0);
    net.start(0, 0, 7, 64 * 1024, SimTime::zero(), stats);
    net.start(1, 1, 6, 32 * 1024, SimTime::fromNs(100), stats);
    net.start(2, 4, 3, 16 * 1024, SimTime::fromNs(200), stats);
    EXPECT_EQ(net.activeFlows(), 3u);

    net.cancelAll(SimTime::fromNs(300));
    EXPECT_EQ(net.activeFlows(), 0u);
    EXPECT_EQ(net.totalLoad(), 0u);
    EXPECT_TRUE(net.pendingReschedules().empty());

    // Reuse after the rollback behaves like a fresh network.
    const SimTime finish =
        net.start(3, 0, 3, 4096, SimTime::fromNs(400), stats);
    EXPECT_EQ(finish.ns(), 400 + 4096);
    const auto check = net.onFinishEvent(3, finish, stats);
    EXPECT_TRUE(check.done);
    EXPECT_EQ(net.totalLoad(), 0u);
}

TEST(LinkNetworkTest, LateArrivalSlowsAndCompletionSpeedsUp)
{
    // One flow runs alone for 2048 ns, shares the fabric with a
    // second for its remaining 2048 bytes (at half rate: 4096 ns),
    // then the second finishes alone at full rate again:
    //   flow 0: 2048 + 4096 = 6144 ns total.
    //   flow 1: 2048 shared bytes + 2048 solo = 6144 + 2048.
    TopologyConfig tapered = net::topologies::taperedFatTree(2);
    const auto topo = net::compileTopology(tapered, 4);
    NetHarness h(topo, 1000.0);
    h.start(0, 0, 2, 4096, SimTime::zero());
    h.start(1, 1, 3, 4096, SimTime::fromNs(2048));
    const auto done = h.drain();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0].first, 0u);
    EXPECT_EQ(done[0].second.ns(), 6144);
    EXPECT_EQ(done[1].first, 1u);
    EXPECT_EQ(done[1].second.ns(), 8192);
}

/** One flow of a differential run: admitted at `start`. */
struct RefFlowSpec
{
    int src = 0;
    int dst = 0;
    Bytes bytes = 0;
    std::int64_t start = 0;
};

/** A scenario capacity change: `links` scale to `scale` at `time`. */
struct RefScaleChange
{
    std::int64_t time = 0;
    std::vector<std::uint32_t> links;
    double scale = 1.0;
};

/**
 * Reference fluid model: the same physics as LinkNetwork (equal
 * shares of each link, a flow runs at its bottleneck share, finish
 * instants ceil to the integer-ns clock), computed the naive way.
 * At every admission, completion and scale change it settles every
 * flow and recomputes every share and every finish instant from
 * scratch: no touched-link filter, no lazy re-arm, no event heap.
 *
 * It is exact. With a 1 B/ns base, integer link factors, scales in
 * quarters and at most maxRefFlows flows, every share is a multiple
 * of 1 / refUnit B/ns, so bytes are counted in units of 1 / refUnit
 * and every settle and ceil is integer arithmetic. Returns the
 * finish instant of each flow, in ns.
 */
constexpr std::int64_t maxRefFlows = 24;
/** 4 * lcm(1..24): quarters of a link divided among <= 24 flows. */
constexpr std::int64_t refUnit = 4 * 5'354'228'880;

std::vector<std::int64_t>
referenceFinishes(const CompiledTopology &topo,
                  const std::vector<RefFlowSpec> &flows,
                  std::vector<RefScaleChange> changes)
{
    constexpr std::int64_t never =
        std::numeric_limits<std::int64_t>::max();
    EXPECT_LE(static_cast<std::int64_t>(flows.size()), maxRefFlows);
    // Link capacity in units of 1 / refUnit B/ns, before sharing.
    const auto capacityAt = [&](std::uint32_t l, double scale) {
        const double units = topo.linkFactor(l) * scale * 4.0;
        EXPECT_EQ(units, std::floor(units)) << "link " << l;
        return static_cast<std::int64_t>(units) * (refUnit / 4);
    };
    std::vector<std::int64_t> capacity(topo.linkCount());
    for (std::uint32_t l = 0; l < topo.linkCount(); ++l)
        capacity[l] = capacityAt(l, 1.0);
    std::stable_sort(changes.begin(), changes.end(),
                     [](const auto &a, const auto &b) {
                         return a.time < b.time;
                     });

    struct Live
    {
        std::uint32_t id;
        std::int64_t remaining; // 1 / refUnit bytes
        std::int64_t rate = 0;  // 1 / refUnit B/ns
        std::int64_t finish = 0;
    };
    std::vector<Live> live;
    std::vector<std::int64_t> finish(flows.size(), never);
    std::vector<bool> admitted(flows.size(), false);
    std::size_t next_change = 0;
    std::int64_t now = 0;
    while (true) {
        // The next instant anything happens.
        std::int64_t t = never;
        for (std::size_t i = 0; i < flows.size(); ++i) {
            if (!admitted[i])
                t = std::min(t, flows[i].start);
        }
        if (next_change < changes.size())
            t = std::min(t, changes[next_change].time);
        for (const Live &f : live)
            t = std::min(t, f.finish);
        if (t == never)
            break;
        // Settle every flow, retire the ones due now, admit the
        // arrivals, apply the scale changes.
        for (Live &f : live)
            f.remaining = std::max<std::int64_t>(
                0, f.remaining - f.rate * (t - now));
        now = t;
        for (const Live &f : live) {
            if (f.finish == now)
                finish[f.id] = now;
        }
        std::erase_if(live,
                      [&](const Live &f) { return f.finish == now; });
        for (std::size_t i = 0; i < flows.size(); ++i) {
            if (!admitted[i] && flows[i].start == now) {
                admitted[i] = true;
                live.push_back({static_cast<std::uint32_t>(i),
                                static_cast<std::int64_t>(
                                    flows[i].bytes) *
                                    refUnit});
            }
        }
        for (; next_change < changes.size() &&
             changes[next_change].time == now;
             ++next_change) {
            for (const std::uint32_t l : changes[next_change].links)
                capacity[l] =
                    capacityAt(l, changes[next_change].scale);
        }
        // Every share and every finish, from scratch.
        std::vector<std::int64_t> load(topo.linkCount(), 0);
        for (const Live &f : live) {
            for (const std::uint32_t l :
                 topo.route(flows[f.id].src, flows[f.id].dst))
                ++load[l];
        }
        for (Live &f : live) {
            f.rate = never;
            for (const std::uint32_t l :
                 topo.route(flows[f.id].src, flows[f.id].dst))
                f.rate = std::min(f.rate, capacity[l] / load[l]);
            if (f.remaining == 0)
                f.finish = now;
            else if (f.rate == 0)
                f.finish = never;
            else
                f.finish = now + (f.remaining + f.rate - 1) / f.rate;
        }
    }
    return finish;
}

/**
 * Drive LinkNetwork the way the engine does: one event heap ordered
 * by (time, sequence) holding admissions, scale changes and finish
 * events; early finish events re-arm, completions and applyScales
 * hand back speedups to schedule, and events of finished flows are
 * dropped. Returns the finish instant of each flow, in ns.
 */
std::vector<std::int64_t>
linkNetworkFinishes(const CompiledTopology &topo, double base_mbps,
                    const std::vector<RefFlowSpec> &flows,
                    const std::vector<RefScaleChange> &changes)
{
    enum Kind : std::uint32_t { admit, change, finish };
    // (time, seq, kind, index)
    using Ev = std::tuple<std::int64_t, std::uint64_t, std::uint32_t,
                          std::uint32_t>;
    std::priority_queue<Ev, std::vector<Ev>, std::greater<Ev>> heap;
    std::uint64_t seq = 0;
    for (std::uint32_t i = 0; i < flows.size(); ++i)
        heap.push({flows[i].start, seq++, admit, i});
    for (std::uint32_t i = 0; i < changes.size(); ++i)
        heap.push({changes[i].time, seq++, change, i});

    LinkNetwork net;
    obs::EngineStats stats;
    net.configure(&topo, base_mbps);
    std::vector<std::int64_t> done(
        flows.size(), std::numeric_limits<std::int64_t>::max());
    const auto drain = [&]() {
        for (const auto &[id, at] : net.pendingReschedules())
            heap.push({at.ns(), seq++, finish, id});
        net.clearPendingReschedules();
    };
    while (!heap.empty()) {
        const auto [ns, s, kind, i] = heap.top();
        heap.pop();
        const SimTime now = SimTime::fromNs(ns);
        if (kind == admit) {
            const SimTime at = net.start(i, flows[i].src, flows[i].dst,
                                         flows[i].bytes, now, stats);
            if (at != SimTime::max())
                heap.push({at.ns(), seq++, finish, i});
        } else if (kind == change) {
            for (const std::uint32_t l : changes[i].links)
                net.setLinkScale(l, changes[i].scale);
            net.applyScales(now, stats);
            drain();
        } else if (done[i] == std::numeric_limits<std::int64_t>::max()) {
            const auto check = net.onFinishEvent(i, now, stats);
            if (check.done) {
                done[i] = ns;
                drain();
            } else if (check.reschedule) {
                heap.push({check.retry.ns(), seq++, finish, i});
            }
        }
    }
    EXPECT_EQ(net.activeFlows(), 0u);
    EXPECT_EQ(net.totalLoad(), 0u);
    return done;
}

TEST(LinkNetworkTest, MatchesTheReferenceFluidModel)
{
    // CounterRng-drawn flows (a sixth of them zero-byte) with random
    // start times, under random degrade, freeze and recover changes
    // on random link sets, over three fabrics, against the exact
    // reference. Tolerance: LinkNetwork may finish a flow up to 4 ns
    // late, never early. It computes in doubles, and when a finish
    // instant is a whole ns (common: shares are 1/k of a link and
    // byte counts are integers) the rounded quotient can land just
    // above it and ceil to the next ns: late by design, so a finish
    // event never fires with bytes left. A flow that finishes late
    // holds its links that much longer, which can delay the flows
    // sharing them in turn, never speed them up. Over 3,000 seeds per
    // fabric the lateness never exceeded 3 ns, while a modelling error
    // (a wrong share, a lost re-arm, a scale applied to the wrong
    // flows) moves finishes by hundreds of ns or more.
    std::vector<std::pair<const char *, TopologyConfig>> fabrics = {
        {"fat tree", net::topologies::fatTree(2)},
        {"tapered fat tree", net::topologies::taperedFatTree(2, 0.5)},
        {"torus", net::topologies::torus2d()},
    };
    fabrics[2].second.torusDims = {4, 2};
    constexpr int nodes = 8;
    constexpr double mbps = 1000.0; // 1 B/ns
    const double scales[] = {0.0, 0.25, 0.5, 0.75};
    for (const auto &[name, config] : fabrics) {
        const auto topo = net::compileTopology(config, nodes);
        for (std::uint64_t iter = 0; iter < 1000; ++iter) {
            CounterRng rng(0x5eed, iter);
            std::vector<RefFlowSpec> flows(
                static_cast<std::size_t>(
                    rng.nextInRange(1, maxRefFlows)));
            for (RefFlowSpec &f : flows) {
                f.src = static_cast<int>(rng.nextBelow(nodes));
                f.dst = (f.src + 1 +
                         static_cast<int>(rng.nextBelow(nodes - 1))) %
                    nodes;
                f.bytes = rng.nextBelow(6) == 0
                    ? 0
                    : static_cast<Bytes>(rng.nextInRange(1, 65536));
                f.start = rng.nextInRange(0, 100'000);
            }
            // Degrades and freezes on random link sets, then one
            // recover of every link they touched.
            std::vector<RefScaleChange> changes(
                static_cast<std::size_t>(rng.nextInRange(0, 4)));
            RefScaleChange recover;
            recover.time = 150'000;
            for (RefScaleChange &c : changes) {
                c.time = rng.nextInRange(0, 120'000);
                c.scale = scales[rng.nextBelow(4)];
                for (std::uint32_t l = 0; l < topo.linkCount(); ++l) {
                    if (rng.nextBelow(5) == 0) {
                        c.links.push_back(l);
                        recover.links.push_back(l);
                    }
                }
            }
            changes.push_back(recover);

            const auto expected =
                referenceFinishes(topo, flows, changes);
            const auto actual =
                linkNetworkFinishes(topo, mbps, flows, changes);
            for (std::size_t i = 0; i < flows.size(); ++i) {
                ASSERT_LT(expected[i], 1'000'000'000) << "never finished";
                EXPECT_GE(actual[i], expected[i])
                    << name << ", iteration " << iter << ", flow "
                    << i;
                EXPECT_LE(actual[i], expected[i] + 4)
                    << name << ", iteration " << iter << ", flow "
                    << i << " (" << flows[i].bytes << " bytes from "
                    << flows[i].start << " ns)";
            }
        }
    }
}

TEST(EngineSeamTest, FlatBusTopologyIsBitIdentical)
{
    // A platform carrying an explicit flat-bus TopologyConfig is
    // the same struct as one that predates the field; both must
    // take the classic engine path and replay identically.
    const auto bundle = testing::traceOf(
        4, testing::ringExchange(64 * 1024, 400'000, 5));
    const auto plain = testing::platformAt(256.0);
    auto tagged = plain;
    tagged.topology = net::topologies::flatBus();
    expectIdentical(simulate(bundle.traces, tagged),
                    simulate(bundle.traces, plain));
}

TEST(EngineSeamTest, UncontendedFatTreeMatchesFlatModel)
{
    // One lone remote message: link-shared serialization over a
    // full-bisection tree with zero hop latency degenerates to the
    // flat model's bytes/bandwidth + latency. 1000 MB/s = 1 B/ns
    // keeps both paths' integer rounding exact.
    const auto bundle = testing::traceOf(
        2, testing::producerConsumer(256 * 1024, 1'000'000));
    auto flat = testing::platformAt(1000.0);
    auto tree = flat;
    tree.topology = net::topologies::fatTree(4);
    const auto a = simulate(bundle.traces, flat);
    const auto b = simulate(bundle.traces, tree);
    EXPECT_EQ(a.totalTime.ns(), b.totalTime.ns());
}

TEST(EngineSeamTest, HopLatencyAddsPerHop)
{
    const auto bundle = testing::traceOf(
        2, testing::producerConsumer(256 * 1024, 1'000'000));
    auto tree = testing::platformAt(1000.0);
    tree.topology = net::topologies::fatTree(4);
    const auto base = simulate(bundle.traces, tree);
    // Nodes 0 and 1 share a radix-4 leaf: 2 links, 1 extra hop.
    tree.topology.hopLatencyUs = 3.0;
    const auto slowed = simulate(bundle.traces, tree);
    EXPECT_EQ(slowed.totalTime.ns() - base.totalTime.ns(),
              SimTime::fromUs(3.0).ns());
}

TEST(EngineSeamTest, ContentionNeverBeatsTheFlatModel)
{
    // The flat bus (unlimited buses) serializes every transfer at
    // full bandwidth; link sharing can only slow them down.
    const auto bundle = testing::traceOf(
        8, testing::ringExchange(128 * 1024, 200'000, 4));
    const auto flat = testing::platformAt(1000.0);
    const auto flat_time =
        simulate(bundle.traces, flat).totalTime;
    for (const auto &spec : core::standardTopologies()) {
        auto platform = flat;
        platform.topology = spec.topology;
        const auto result = simulate(bundle.traces, platform);
        EXPECT_GE(result.totalTime.ns(), flat_time.ns())
            << spec.name;
        EXPECT_GT(result.totalTime.ns(), 0) << spec.name;
    }
}

TEST(EngineSeamTest, TopologiesReplayDeterministically)
{
    const auto bundle = testing::traceOf(
        8, testing::ringExchange(96 * 1024, 300'000, 4));
    for (const auto &spec : core::standardTopologies()) {
        auto platform = testing::platformAt(512.0);
        platform.topology = spec.topology;
        const auto reference = simulate(bundle.traces, platform);
        // Repeats, the one-shot path and a reused session agree.
        expectIdentical(simulate(bundle.traces, platform),
                        reference);
        sim::ReplaySession session;
        expectIdentical(session.run(bundle.traces, platform),
                        reference);
        expectIdentical(session.run(bundle.traces, platform),
                        reference);
    }
}

TEST(EngineSeamTest, RendezvousOverTopology)
{
    // Rendezvous protocol (tiny eager threshold) across the
    // contention model: deterministic and deadlock-free. (A ring
    // of blocking rendezvous sends would deadlock on any model;
    // producer/consumer is the protocol-safe shape.)
    const auto bundle = testing::traceOf(
        2, testing::producerConsumer(256 * 1024, 800'000));
    auto platform = sim::platforms::rendezvousCluster(4 * 1024);
    platform.topology = net::topologies::taperedFatTree(2);
    const auto reference = simulate(bundle.traces, platform);
    EXPECT_GT(reference.totalTime.ns(), 0);
    sim::ReplaySession session;
    expectIdentical(session.run(bundle.traces, platform),
                    reference);
}

TEST(EngineSeamTest, SessionReusesAcrossTopologiesAndBandwidths)
{
    // One session sweeping platforms (the campaign pattern): the
    // compiled-topology cache must never leak state between runs.
    const auto bundle = testing::traceOf(
        4, testing::ringExchange(48 * 1024, 350'000, 3));
    sim::ReplaySession session;
    for (const double bandwidth : {64.0, 1024.0}) {
        for (const auto &spec : core::standardTopologies()) {
            auto platform = testing::platformAt(bandwidth);
            platform.topology = spec.topology;
            expectIdentical(session.run(bundle.traces, platform),
                            simulate(bundle.traces, platform));
        }
    }
}

} // namespace
} // namespace ovlsim
