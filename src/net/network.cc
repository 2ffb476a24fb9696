#include "network.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.hh"

namespace ovlsim::net {

namespace {

/**
 * Residual-byte tolerance when deciding that a flow has finished.
 * finishTime() rounds up to the integer-ns clock, so at the armed
 * instant a flow's remaining bytes are <= 0 up to double rounding;
 * anything materially positive means a slowdown intervened and the
 * event fired early.
 */
constexpr double remainingEps = 1e-3;

} // namespace

void
LinkNetwork::configure(const CompiledTopology *topo,
                       double base_mbps)
{
    ovlAssert(topo != nullptr, "LinkNetwork: null topology");
    ovlAssert(base_mbps > 0.0,
              "LinkNetwork: base bandwidth must be positive");
    clear();
    topo_ = topo;
    const std::size_t links = topo->linkCount();
    linkRate_.resize(links);
    linkBase_.resize(links);
    for (std::size_t l = 0; l < links; ++l) {
        // MB/s = 1e6 bytes per second = 1e-3 bytes per ns.
        linkBase_[l] = topo->linkFactor(
                           static_cast<std::uint32_t>(l)) *
            base_mbps * 1e-3;
        linkRate_[l] = linkBase_[l];
    }
    linkScale_.assign(links, 1.0);
    linkLoad_.assign(links, 0);
    linkTouch_.assign(links, 0);
}

void
LinkNetwork::clear()
{
    topo_ = nullptr;
    linkRate_.clear();
    linkLoad_.clear();
    linkBase_.clear();
    linkScale_.clear();
    linkLat_.clear();
    scaleDirty_.clear();
    overrideIdx_.clear();
    overrideRoutes_.clear();
    linkTouch_.clear();
    touchEpoch_ = 0;
    flows_.clear();
    reschedules_.clear();
}

void
LinkNetwork::markTouched(int src, int dst)
{
    ++touchEpoch_;
    for (const std::uint32_t link : routeOf(src, dst))
        linkTouch_[link] = touchEpoch_;
}

bool
LinkNetwork::touches(const Flow &flow) const
{
    for (const std::uint32_t link :
         routeOf(flow.src, flow.dst)) {
        if (linkTouch_[link] == touchEpoch_)
            return true;
    }
    return false;
}

double
LinkNetwork::bottleneckRate(const Flow &flow) const
{
    double rate = std::numeric_limits<double>::infinity();
    for (const std::uint32_t link :
         routeOf(flow.src, flow.dst)) {
        const double share = linkRate_[link] /
            static_cast<double>(linkLoad_[link]);
        if (share < rate)
            rate = share;
    }
    // Rate 0 is legal: a scenario froze a link on the route and the
    // flow is parked until recovery.
    ovlAssert(rate >= 0.0 && std::isfinite(rate),
              "LinkNetwork: flow over an empty route");
    return rate;
}

void
LinkNetwork::advanceAll(SimTime now)
{
    for (Flow &flow : flows_) {
        const std::int64_t dt = (now - flow.lastUpdate).ns();
        if (dt <= 0)
            continue;
        flow.remaining -= flow.rate * static_cast<double>(dt);
        if (flow.remaining < 0.0)
            flow.remaining = 0.0;
        flow.lastUpdate = now;
    }
}

void
LinkNetwork::rebalanceTouched(SimTime now, obs::EngineStats &stats)
{
    // Every flow is one re-arm decision: taken here, skipped
    // otherwise (untouched, same rate, or a pending event already
    // covers the new finish).
    std::uint64_t recomputes = 0;
    std::uint64_t taken = 0;
    for (Flow &flow : flows_) {
        if (!touches(flow))
            continue;
        ++recomputes;
        const double rate = bottleneckRate(flow);
        if (rate == flow.rate)
            continue;
        flow.rate = rate;
        const SimTime finish = finishTime(flow, now);
        if (finish < flow.armed) {
            flow.armed = finish;
            reschedules_.emplace_back(flow.id, finish);
            ++taken;
        }
    }
    stats.rateRecomputes += recomputes;
    stats.recomputesSkipped += flows_.size() - recomputes;
    stats.rearmsTaken += taken;
    stats.rearmsSkipped += flows_.size() - taken;
}

SimTime
LinkNetwork::finishTime(const Flow &flow, SimTime now)
{
    if (flow.remaining <= 0.0)
        return now;
    if (flow.rate <= 0.0)
        return SimTime::max(); // frozen: only a recovery re-arms
    const double ns = std::ceil(flow.remaining / flow.rate);
    return now + SimTime::fromNs(static_cast<std::int64_t>(ns));
}

SimTime
LinkNetwork::start(std::uint32_t id, int src, int dst, Bytes bytes,
                   SimTime now, obs::EngineStats &stats)
{
    ovlAssert(topo_ != nullptr, "LinkNetwork: not configured");
    ovlAssert(src != dst,
              "LinkNetwork: intra-node traffic bypasses the "
              "network");
    // Settle everyone's progress under the pre-admission rates.
    advanceAll(now);
    for (const std::uint32_t link : routeOf(src, dst))
        ++linkLoad_[link];
    markTouched(src, dst);

    Flow flow;
    flow.id = id;
    flow.src = src;
    flow.dst = dst;
    flow.remaining = static_cast<double>(bytes);
    flow.lastUpdate = now;
    flows_.push_back(flow);

    // Occupancy only grew, so rates can only drop: no flow's armed
    // event needs replacing — stale early events re-arm when they
    // fire. (A flow admitted mid-rendezvous-overhead may have
    // lastUpdate ahead of older flows; advanceAll clamps dt >= 0.)
    // Flows whose routes miss every link the admission loaded keep
    // their bottleneck share unchanged, so their rate is not even
    // recomputed.
    std::uint64_t recomputes = 0;
    for (Flow &f : flows_) {
        if (touches(f)) {
            f.rate = bottleneckRate(f);
            ++recomputes;
        }
    }
    stats.rateRecomputes += recomputes;
    stats.recomputesSkipped += flows_.size() - recomputes;
    Flow &admitted = flows_.back();
    admitted.armed = finishTime(admitted, now);
    return admitted.armed;
}

LinkNetwork::FinishCheck
LinkNetwork::onFinishEvent(std::uint32_t id, SimTime now,
                           obs::EngineStats &stats)
{
    std::size_t slot = flows_.size();
    for (std::size_t i = 0; i < flows_.size(); ++i) {
        if (flows_[i].id == id) {
            slot = i;
            break;
        }
    }
    ovlAssert(slot < flows_.size(),
              "LinkNetwork: finish event for unknown flow");

    {
        Flow &flow = flows_[slot];
        const std::int64_t dt = (now - flow.lastUpdate).ns();
        if (dt > 0) {
            flow.remaining -=
                flow.rate * static_cast<double>(dt);
            flow.lastUpdate = now;
        }
        if (flow.remaining > remainingEps) {
            // Early (stale) event: a slowdown moved the finish out.
            // Re-arm unless a pending event already covers it. A
            // frozen flow (rate 0) parks instead: no event to
            // schedule, the recovery's applyScales() re-arms it.
            const SimTime retry = finishTime(flow, now);
            FinishCheck check;
            check.retry = retry;
            if (retry == SimTime::max()) {
                flow.armed = SimTime::max();
                return check;
            }
            if (retry < flow.armed || flow.armed <= now) {
                flow.armed = retry;
                check.reschedule = true;
            }
            return check;
        }
    }

    // Completed: free the links, settle the survivors under the old
    // rates, then hand out the speedups. Survivors whose routes
    // miss every freed link — or whose bottleneck sits on an
    // untouched link and keeps the same share — skip the re-arm
    // check entirely: their armed finish event is still exact
    // (ROADMAP's "O(active flows) per rate change" open item, the
    // rate-recompute/re-arm half).
    const Flow done = flows_[slot];
    advanceAll(now);
    flows_.erase(flows_.begin() +
                 static_cast<std::ptrdiff_t>(slot));
    for (const std::uint32_t link :
         routeOf(done.src, done.dst)) {
        ovlAssert(linkLoad_[link] > 0,
                  "LinkNetwork: link occupancy underflow");
        --linkLoad_[link];
    }
    markTouched(done.src, done.dst);
    rebalanceTouched(now, stats);
    FinishCheck check;
    check.done = true;
    check.retry = now;
    return check;
}

void
LinkNetwork::shiftFlowClocks(SimTime delta)
{
    for (Flow &flow : flows_) {
        flow.lastUpdate = flow.lastUpdate + delta;
        if (flow.armed != SimTime::max())
            flow.armed = flow.armed + delta;
    }
}

void
LinkNetwork::cancelAll(SimTime now)
{
    // Free links in admission order; no rate recompute is needed
    // since no survivors remain.
    advanceAll(now);
    for (const Flow &flow : flows_) {
        for (const std::uint32_t link :
             routeOf(flow.src, flow.dst)) {
            ovlAssert(linkLoad_[link] > 0,
                      "LinkNetwork: link occupancy underflow");
            --linkLoad_[link];
        }
    }
    flows_.clear();
    reschedules_.clear();
    ovlAssert(totalLoad() == 0,
              "cancelled in-flight flows left link occupancy behind");
}

std::uint64_t
LinkNetwork::totalLoad() const
{
    std::uint64_t total = 0;
    for (const std::uint32_t load : linkLoad_)
        total += load;
    return total;
}

void
LinkNetwork::setLinkScale(std::uint32_t link, double bandwidth,
                          double latency)
{
    ovlAssert(bandwidth >= 0.0,
              "LinkNetwork: link scale must be non-negative");
    if (latency != 1.0 && linkLat_.empty())
        linkLat_.assign(linkScale_.size(), 1.0);
    if (!linkLat_.empty())
        linkLat_[link] = latency;
    if (linkScale_[link] == bandwidth)
        return;
    linkScale_[link] = bandwidth;
    linkRate_[link] = linkBase_[link] * bandwidth;
    scaleDirty_.push_back(link);
}

void
LinkNetwork::applyScales(SimTime now, obs::EngineStats &stats)
{
    if (scaleDirty_.empty())
        return;
    advanceAll(now);
    ++touchEpoch_;
    for (const std::uint32_t link : scaleDirty_)
        linkTouch_[link] = touchEpoch_;
    scaleDirty_.clear();
    // Speedups (including unfreezes, whose armed is "never")
    // re-arm eagerly; slowdowns wait for their stale event.
    rebalanceTouched(now, stats);
}

LinkNetwork::RerouteReport
LinkNetwork::rerouteDeadLinks(SimTime now, obs::EngineStats &stats)
{
    ovlAssert(topo_ != nullptr, "LinkNetwork: not configured");
    advanceAll(now);
    const int nodes = topo_->nodes();
    const std::uint32_t links = topo_->linkCount();

    // Snapshot the routes whose occupancy the in-flight flows
    // currently hold, before any override changes underneath them.
    std::vector<std::vector<std::uint32_t>> held;
    held.reserve(flows_.size());
    for (const Flow &flow : flows_) {
        const auto r = routeOf(flow.src, flow.dst);
        held.emplace_back(r.begin(), r.end());
    }

    // Adjacency of the surviving directed graph, links in id order
    // so the breadth-first parents — and hence every detour — are
    // deterministic.
    std::vector<std::vector<std::uint32_t>> out(
        topo_->vertexCount());
    for (std::uint32_t l = 0; l < links; ++l) {
        if (linkScale_[l] > 0.0)
            out[topo_->linkFrom(l)].push_back(l);
    }
    const auto isDead = [&](std::span<const std::uint32_t> route) {
        for (const std::uint32_t l : route)
            if (linkScale_[l] <= 0.0)
                return true;
        return false;
    };
    constexpr std::uint32_t noParent =
        std::numeric_limits<std::uint32_t>::max();
    std::vector<std::uint32_t> parent(topo_->vertexCount());
    std::vector<std::uint32_t> queue;

    overrideRoutes_.clear();
    overrideIdx_.assign(static_cast<std::size_t>(nodes) *
                            static_cast<std::size_t>(nodes),
                        -1);
    for (int s = 0; s < nodes; ++s) {
        for (int d = 0; d < nodes; ++d) {
            if (s == d)
                continue;
            const auto compiled = topo_->route(s, d);
            if (!isDead(compiled))
                continue; // compiled route survives; no override
            // Shortest surviving path s -> d by hop count.
            parent.assign(parent.size(), noParent);
            queue.clear();
            queue.push_back(static_cast<std::uint32_t>(s));
            bool found = false;
            for (std::size_t head = 0;
                 head < queue.size() && !found; ++head) {
                const std::uint32_t v = queue[head];
                for (const std::uint32_t l : out[v]) {
                    const std::uint32_t w = topo_->linkTo(l);
                    if (w == static_cast<std::uint32_t>(s) ||
                        parent[w] != noParent)
                        continue;
                    parent[w] = l;
                    if (w == static_cast<std::uint32_t>(d)) {
                        found = true;
                        break;
                    }
                    queue.push_back(w);
                }
            }
            if (!found) {
                RerouteReport report;
                report.ok = false;
                report.src = s;
                report.dst = d;
                return report;
            }
            std::vector<std::uint32_t> path;
            for (std::uint32_t v = static_cast<std::uint32_t>(d);
                 v != static_cast<std::uint32_t>(s);
                 v = topo_->linkFrom(parent[v]))
                path.push_back(parent[v]);
            std::reverse(path.begin(), path.end());
            overrideIdx_[rowOf(s, d)] = static_cast<std::int32_t>(
                overrideRoutes_.size());
            overrideRoutes_.push_back(std::move(path));
        }
    }
    if (overrideRoutes_.empty())
        overrideIdx_.clear();

    // Migrate in-flight flows: move their occupancy from the route
    // they held to the new effective one, then recompute every
    // rate. Total load is conserved by construction: each flow
    // holds exactly one route's worth of occupancy at all times.
    for (std::size_t i = 0; i < flows_.size(); ++i) {
        Flow &flow = flows_[i];
        const auto fresh = routeOf(flow.src, flow.dst);
        const auto &old = held[i];
        if (std::equal(fresh.begin(), fresh.end(), old.begin(),
                       old.end()))
            continue;
        for (const std::uint32_t l : old) {
            ovlAssert(linkLoad_[l] > 0,
                      "LinkNetwork: link occupancy underflow");
            --linkLoad_[l];
        }
        for (const std::uint32_t l : fresh)
            ++linkLoad_[l];
    }
    // Occupancies may have moved anywhere: touch every link, so
    // every rate is recomputed and nothing is proven untouched.
    ++touchEpoch_;
    std::fill(linkTouch_.begin(), linkTouch_.end(), touchEpoch_);
    rebalanceTouched(now, stats);
    return RerouteReport{};
}

} // namespace ovlsim::net
