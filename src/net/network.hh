/**
 * @file
 * Link-level contention model over compiled topologies.
 *
 * LinkNetwork tracks the set of in-flight transfers (flows) of one
 * replay. A flow occupies every link of its compiled route for its
 * whole serialization; each link's capacity is shared equally among
 * its occupants, and a flow progresses at the bandwidth of its
 * bottleneck link share — a simplified fluid model re-evaluated at
 * event granularity, in the spirit of SimGrid's flow-level network
 * models.
 *
 * The driver (sim/engine.cc) owns the event heap; LinkNetwork owns
 * bytes-remaining accounting, rate assignment, the scenario scales
 * of its links and the flight time of a finished transfer:
 *
 *  - start() admits a flow and returns the finish time to schedule,
 *  - onFinishEvent() is called when a scheduled finish event fires;
 *    it either completes the flow (freeing its links and recomputing
 *    the survivors' rates) or reports the corrected finish time to
 *    reschedule — flows slow down lazily (the stale early event
 *    re-arms itself) and speed up eagerly (completions emit
 *    reschedules via pendingReschedules()),
 *  - setLinkScale()/applyScales() and rerouteDeadLinks() apply
 *    scenario degrades, failures and recoveries,
 *  - flightTime() prices the flight of a finished transfer over its
 *    effective route.
 *
 * LinkNetwork is a plain value: the engine keeps it in its machine
 * state, so a checkpoint copies it whole and a rollback copies it
 * back. It therefore holds no pointer into the engine except the
 * compiled topology, a cache that outlives every image. The
 * observability counters it feeds are passed in by reference on
 * each call, so they stay monotone across rollbacks.
 *
 * Scheduling stays deterministic: flows are iterated in admission
 * order, all arithmetic is event-ordered double precision, and equal
 * replays produce equal event sequences on any host or thread.
 */

#ifndef OVLSIM_NET_NETWORK_HH
#define OVLSIM_NET_NETWORK_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "net/topology.hh"
#include "obs/stats.hh"
#include "util/types.hh"

namespace ovlsim::net {

class LinkNetwork
{
  public:
    LinkNetwork() = default;

    /**
     * Bind to a compiled topology with a base link bandwidth in
     * MB/s (a factor-1.0 link). Drops any in-flight flows; keeps
     * allocations, so sessions reconfigure per replay for free.
     */
    void configure(const CompiledTopology *topo, double base_mbps);

    /**
     * Drop the topology, every flow, scale and reroute; keeps
     * allocations. A replay on the flat bus leaves the network
     * cleared, so its checkpoint images copy nothing of it.
     */
    void clear();

    /**
     * Admit flow `id` from `src` to `dst` nodes at `now` and return
     * the finish time the driver must schedule. Admission can only
     * slow other flows down; their already-scheduled finish events
     * re-arm lazily when they fire early. Returns SimTime::max()
     * when the route is currently frozen (a scenario stalled or
     * failed one of its links): the flow is admitted but makes no
     * progress, and a later applyScales() recovery reschedules it.
     * Every call that moves rates counts its rate recomputes and
     * re-arm decisions in `stats`.
     */
    SimTime start(std::uint32_t id, int src, int dst, Bytes bytes,
                  SimTime now, obs::EngineStats &stats);

    struct FinishCheck
    {
        /** The flow completed; its links are freed. */
        bool done = false;
        /** When !done && reschedule: the corrected finish time. */
        SimTime retry;
        /**
         * When !done: whether the driver must schedule `retry` (a
         * pending event may already cover the corrected finish).
         */
        bool reschedule = false;
    };

    /**
     * A finish event for `id` fired at `now`. Completion frees the
     * flow's links, advances every surviving flow and recomputes
     * their rates; flows that sped up appear in
     * pendingReschedules() for the driver to re-arm.
     */
    FinishCheck onFinishEvent(std::uint32_t id, SimTime now,
                              obs::EngineStats &stats);

    /**
     * (flow id, earlier finish time) pairs produced by the last
     * completion; the driver schedules each and then clears.
     */
    std::span<const std::pair<std::uint32_t, SimTime>>
    pendingReschedules() const
    {
        return reschedules_;
    }

    void clearPendingReschedules() { reschedules_.clear(); }

    /** In-flight flow count (0 when the network is drained). */
    std::uint32_t
    activeFlows() const
    {
        return static_cast<std::uint32_t>(flows_.size());
    }

    /**
     * Sum of link occupancies. Invariant pinned by tests: equals
     * the summed route lengths of the in-flight flows, and zero
     * once the network drains.
     */
    std::uint64_t totalLoad() const;

    /** Current occupancy of one link (flows crossing it). */
    std::uint32_t
    linkLoad(std::uint32_t link) const
    {
        return linkLoad_[link];
    }

    /**
     * Scenario seam: scale a link's capacity relative to its
     * configured rate and its flight latency. A bandwidth of 1.0
     * restores the compiled capacity, values in (0, 1) degrade it,
     * 0 kills the link (flows crossing it freeze at rate 0); the
     * capacity takes effect at the next applyScales(). The latency
     * multiplier applies to flights priced from now on.
     */
    void setLinkScale(std::uint32_t link, double bandwidth,
                      double latency = 1.0);

    /**
     * Commit pending setLinkScale() changes at `now`: settle every
     * flow's progress under the old rates, then recompute the rates
     * of flows crossing a changed link through the same bottleneck
     * machinery as admission/completion. Slowdowns re-arm lazily
     * (the stale early event corrects itself); speedups — including
     * flows unfreezing after a recovery — appear in
     * pendingReschedules() for the driver.
     */
    void applyScales(SimTime now, obs::EngineStats &stats);

    /**
     * Effective route of a (src, dst) pair: the scenario reroute
     * override when one is active, else the compiled route.
     */
    std::span<const std::uint32_t>
    routeOf(int src, int dst) const
    {
        if (!overrideRoutes_.empty()) {
            const std::int32_t o = overrideIdx_[rowOf(src, dst)];
            if (o >= 0)
                return overrideRoutes_[static_cast<std::size_t>(o)];
        }
        return topo_->route(src, dst);
    }

    /**
     * Flight latency of a message that finished serializing from
     * `src` to `dst`: `base` plus `per_hop` for every link of its
     * effective route past the first, the whole flight scaled by the
     * largest latency multiplier on that route. Until a scenario
     * sets a multiplier other than 1 the route is not walked for it.
     */
    SimTime
    flightTime(int src, int dst, SimTime base, SimTime per_hop) const
    {
        const auto route = routeOf(src, dst);
        SimTime flight = base;
        if (route.size() > 1)
            flight += per_hop *
                static_cast<std::int64_t>(route.size() - 1);
        if (linkLat_.empty())
            return flight;
        double scale = 1.0;
        for (const std::uint32_t link : route)
            scale = std::max(scale, linkLat_[link]);
        if (scale == 1.0)
            return flight;
        return SimTime::fromNs(static_cast<std::int64_t>(std::llround(
            static_cast<double>(flight.ns()) * scale)));
    }

    /**
     * Resilience seam: slide every in-flight flow's clock forward
     * by `delta` without progressing any bytes. The checkpoint
     * freeze stops simulated time for the whole machine while the
     * checkpoint is written; the driver shifts its pending events
     * by the same delta, so each flow's armed event still matches
     * its (unchanged) remaining bytes and rate.
     */
    void shiftFlowClocks(SimTime delta);

    /**
     * Cancel every in-flight flow (rollback of a whole replay
     * region), freeing each flow's links exactly like a completion.
     * Asserts the occupancy invariant: afterwards activeFlows() and
     * totalLoad() are 0.
     */
    void cancelAll(SimTime now);

    /** First unroutable pair when rerouteDeadLinks() fails. */
    struct RerouteReport
    {
        bool ok = true;
        int src = 0;
        int dst = 0;
    };

    /**
     * Re-resolve every (src, dst) pair whose effective route
     * crosses a dead (scale == 0) link: breadth-first shortest path
     * over the surviving directed links of the topology graph,
     * deterministic (links expand in id order). Pairs whose
     * compiled route no longer crosses a dead link drop back to it.
     * In-flight flows migrate — their occupancy moves from the old
     * route to the new one and every rate is recomputed, so
     * totalLoad() stays equal to the summed effective route
     * lengths. Returns {false, src, dst} for the first pair with no
     * surviving path (the topology has no diversity there); the
     * caller decides how fatal that is.
     */
    RerouteReport rerouteDeadLinks(SimTime now,
                                   obs::EngineStats &stats);

  private:
    struct Flow
    {
        std::uint32_t id = 0;
        int src = 0;
        int dst = 0;
        /** Bytes still to serialize through the bottleneck. */
        double remaining = 0.0;
        /** Current bottleneck share, bytes per ns. */
        double rate = 0.0;
        SimTime lastUpdate;
        /**
         * Time of the pending finish event believed to be the
         * earliest for this flow. Between rate changes there is
         * always one pending event at `armed`, so no completion is
         * ever missed; extra stale events re-arm or fall through
         * harmlessly.
         */
        SimTime armed;
    };

    /** Bottleneck share of one flow under current occupancies. */
    double bottleneckRate(const Flow &flow) const;

    /**
     * Recompute the rate of every flow crossing a link of the
     * current touch epoch and re-arm eagerly the ones that sped up
     * (emitting reschedules); untouched flows are provably
     * unaffected and skipped. Shared tail of completion,
     * applyScales and rerouteDeadLinks (which touches every link) —
     * the decision counts feed the skip/take counters of `stats`.
     */
    void rebalanceTouched(SimTime now, obs::EngineStats &stats);

    /** Progress every flow to `now` at its current rate. */
    void advanceAll(SimTime now);

    /**
     * Mark the links of a route touched by the current join/leave
     * (bumps the touch epoch). touches() then answers whether a
     * flow's route crosses any touched link — flows that do not are
     * provably unaffected: no load on their route changed, so their
     * bottleneck share (and armed finish event) is still exact and
     * both the rate recompute and the re-arm check can be skipped.
     */
    void markTouched(int src, int dst);
    bool touches(const Flow &flow) const;

    /**
     * Finish instant of a flow at its current rate (ceil to the
     * integer-ns clock, so the event never fires with bytes left
     * from rounding alone).
     */
    static SimTime finishTime(const Flow &flow, SimTime now);

    std::size_t
    rowOf(int src, int dst) const
    {
        return static_cast<std::size_t>(src) *
            static_cast<std::size_t>(topo_->nodes()) +
            static_cast<std::size_t>(dst);
    }

    const CompiledTopology *topo_ = nullptr;
    /** Per-link capacity in bytes/ns and current occupancy. */
    std::vector<double> linkRate_;
    std::vector<std::uint32_t> linkLoad_;
    /** Configured (scale-1.0) capacity per link. */
    std::vector<double> linkBase_;
    /** Scenario capacity scale per link (1.0 = undisturbed). */
    std::vector<double> linkScale_;
    /** Scenario latency multiplier per link; empty until a scenario
     * sets one other than 1.0. */
    std::vector<double> linkLat_;
    /** Links changed since the last applyScales(). */
    std::vector<std::uint32_t> scaleDirty_;
    /** Reroute overrides: per (src, dst) row, -1 or an index into
     * overrideRoutes_. Empty overrideRoutes_ = no overrides. */
    std::vector<std::int32_t> overrideIdx_;
    std::vector<std::vector<std::uint32_t>> overrideRoutes_;
    /** Links touched in the current epoch (see markTouched). */
    std::vector<std::uint32_t> linkTouch_;
    std::uint32_t touchEpoch_ = 0;
    /** In-flight flows, admission-ordered. */
    std::vector<Flow> flows_;
    std::vector<std::pair<std::uint32_t, SimTime>> reschedules_;
};

} // namespace ovlsim::net

#endif // OVLSIM_NET_NETWORK_HH
