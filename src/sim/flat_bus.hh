/**
 * @file
 * Flat-bus admission, the paper's Dimemas-style resource model: a
 * remote transfer holds one bus, one out-link of its source node and
 * one in-link of its destination node (each only when limited) for
 * its whole serialization. The replay engine (sim/engine.cc) owns
 * pricing and the event heap and calls FlatBus directly.
 *
 * FlatBus is a plain value that checkpoints copy whole, so it holds
 * no pointer outside itself: the gauges it feeds are passed in by
 * reference and stay monotone across rollbacks.
 */

#ifndef OVLSIM_SIM_FLAT_BUS_HH
#define OVLSIM_SIM_FLAT_BUS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/stats.hh"
#include "util/logging.hh"

namespace ovlsim::sim {

/**
 * Bus, out-link and in-link counters plus the wait queue, indexed
 * by the resource a waiter needs.
 *
 * A transfer that cannot acquire its resources waits in FIFO
 * (admission) order. With buses limited there is one FIFO,
 * queues_[0][0]. Otherwise a waiter is linked into the out-queue of
 * its source node (queues_[0], when out-links are limited) and into
 * the in-queue of its destination node (queues_[1], when in-links
 * are limited). The entries, with their links and admission
 * sequence numbers, live in pool_.
 *
 * Invariant: outside a release window every waiter is stuck, i.e.
 * some resource it needs has no free unit. A release (an injection
 * or a background flow finishing) records the queues of what it
 * freed in released_, and startReleased then walks only those
 * queues — merged by sequence number, each walk stopping once its
 * resource is exhausted again, which every later waiter of that
 * queue needs — starting every waiter that can now acquire. This
 * starts exactly the transfers, in exactly the order, that a scan
 * of the whole FIFO would: a waiter that needs none of the released
 * resources was stuck before the release and stays stuck, because a
 * scan only shrinks capacity; and visiting the remaining candidates
 * in admission order is the whole-FIFO order restricted to the
 * waiters that can start. A transfer posted inside the window (a
 * woken rank re-entering the engine's send path) is newer than
 * every waiter, so the engine closes the window before trying it —
 * the place FIFO gives it — and queues it only if it is stuck.
 *
 * A waiter that starts leaves both of its queues at once (they are
 * doubly linked). `waiting_` counts the waiters for the depth gauge.
 */
class FlatBus
{
  public:
    /**
     * Empty the bus for a replay over `nodes` nodes; a limit of 0
     * leaves that resource unlimited. Keeps every allocation.
     */
    void configure(int buses, int out_links, int in_links,
                   std::size_t nodes);

    /** Empty every container (a replay that uses no flat bus). */
    void clear() { configure(0, 0, 0, 0); }

    /** Claim bus/out/in capacity for a src -> dst node transfer if
     * all are free. */
    bool
    tryAcquire(std::uint32_t src, std::uint32_t dst)
    {
        if ((busLimited_ && busFree_ <= 0) ||
            (outLimited_ && outFree_[src] <= 0) ||
            (inLimited_ && inFree_[dst] <= 0))
            return false;
        adjust(src, dst, -1);
        return true;
    }

    /**
     * Claim unconditionally (background flows, which are not
     * admitted but simply occupy the resources): the free counts
     * may go negative, and app transfers wait until they recover.
     */
    void
    hold(std::uint32_t src, std::uint32_t dst)
    {
        adjust(src, dst, -1);
    }

    /**
     * Free what a tryAcquire or hold claimed and open a release
     * window over the queues of what was freed; startReleased
     * closes it.
     */
    void
    release(std::uint32_t src, std::uint32_t dst)
    {
        adjust(src, dst, +1);
        ovlAssert(released_[0] == npos && released_[1] == npos,
                  "overlapping resource releases");
        released_[0] = queueOf(0, src, dst);
        released_[1] = queueOf(1, src, dst);
    }

    /** Queue `transfer` (src -> dst nodes) behind every waiter. */
    void enqueue(std::uint32_t transfer, std::uint32_t src,
                 std::uint32_t dst, obs::EngineStats &stats);

    /**
     * Close the pending release window (if any): call
     * start(transfer) for every waiter of the released queues that
     * can now acquire its resources, in admission order. `start`
     * must not call back into the bus.
     */
    template <typename Start>
    void
    startReleased(obs::EngineStats &stats, Start &&start)
    {
        const std::uint32_t q[2] = {released_[0], released_[1]};
        if (q[0] == npos && q[1] == npos)
            return;
        released_[0] = released_[1] = npos;
        std::uint32_t cur[2] = {npos, npos};
        for (int side = 0; side < 2; ++side) {
            if (q[side] != npos)
                cur[side] = queues_[side][q[side]].head;
        }
        for (;;) {
            // A queue whose resource is exhausted holds only stuck
            // waiters from here on.
            for (int side = 0; side < 2; ++side) {
                if (cur[side] != npos && exhausted(side, q[side]))
                    cur[side] = npos;
            }
            std::uint32_t w = cur[0];
            if (w == npos ||
                (cur[1] != npos && pool_[cur[1]].seq < pool_[w].seq))
                w = cur[1];
            if (w == npos)
                break;
            ++stats.waitScanSteps;
            // Both walks reach a waiter they share at the same step.
            for (int side = 0; side < 2; ++side) {
                if (cur[side] == w)
                    cur[side] = pool_[w].next[side];
            }
            const Waiter &waiter = pool_[w];
            if (tryAcquire(waiter.src, waiter.dst)) {
                const std::uint32_t transfer = waiter.transfer;
                unlink(w);
                start(transfer);
            }
        }
    }

  private:
    /** Null index of the queues' intrusive links. */
    static constexpr std::uint32_t npos = 0xFFFFFFFFu;

    /** One waiting transfer; free entries are threaded through
     * next[0]. Side 0 links the out-queue (or the bus FIFO), side 1
     * the in-queue; prev/next are pool indices. */
    struct Waiter
    {
        std::uint32_t transfer = npos;
        /** Admission order, which merges the two queues of a
         * release. */
        std::uint32_t seq = 0;
        std::uint32_t src = 0;
        std::uint32_t dst = 0;
        std::uint32_t prev[2] = {npos, npos};
        std::uint32_t next[2] = {npos, npos};
    };

    /** Head and tail of one wait queue. */
    struct Queue
    {
        std::uint32_t head = npos;
        std::uint32_t tail = npos;
    };

    void
    adjust(std::uint32_t src, std::uint32_t dst, int delta)
    {
        if (busLimited_)
            busFree_ += delta;
        if (outLimited_)
            outFree_[src] += delta;
        if (inLimited_)
            inFree_[dst] += delta;
    }

    /**
     * Id of the queue on `side` (0: bus FIFO or out-queue, 1:
     * in-queue) that a src -> dst transfer waits in, or npos when
     * that side has no limited resource.
     */
    std::uint32_t
    queueOf(int side, std::uint32_t src, std::uint32_t dst) const
    {
        if (busLimited_)
            return side == 0 ? 0 : npos;
        if (side == 0)
            return outLimited_ ? src : npos;
        return inLimited_ ? dst : npos;
    }

    /** No free unit of the resource every waiter of queue `q` on
     * `side` needs. */
    bool
    exhausted(int side, std::uint32_t q) const
    {
        if (side == 1)
            return inFree_[q] <= 0;
        return busLimited_ ? busFree_ <= 0 : outFree_[q] <= 0;
    }

    void unlink(std::uint32_t w);

    bool busLimited_ = false;
    bool outLimited_ = false;
    bool inLimited_ = false;
    int busFree_ = 0;
    std::vector<int> outFree_;
    std::vector<int> inFree_;

    std::vector<Waiter> pool_;
    std::uint32_t poolFree_ = npos;
    std::vector<Queue> queues_[2];
    std::uint32_t seq_ = 0;
    std::uint32_t waiting_ = 0;
    /** Queue ids (per side) of the pending release, or npos. */
    std::uint32_t released_[2] = {npos, npos};
};

} // namespace ovlsim::sim

#endif // OVLSIM_SIM_FLAT_BUS_HH
