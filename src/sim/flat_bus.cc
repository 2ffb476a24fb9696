#include "flat_bus.hh"

namespace ovlsim::sim {

void
FlatBus::configure(int buses, int out_links, int in_links,
                   std::size_t nodes)
{
    busLimited_ = buses > 0;
    outLimited_ = out_links > 0;
    inLimited_ = in_links > 0;
    busFree_ = buses;
    outFree_.assign(outLimited_ ? nodes : 0, out_links);
    inFree_.assign(inLimited_ ? nodes : 0, in_links);
    pool_.clear();
    poolFree_ = npos;
    queues_[0].assign(busLimited_ ? 1 : outFree_.size(), Queue{});
    queues_[1].assign(busLimited_ ? 0 : inFree_.size(), Queue{});
    seq_ = 0;
    waiting_ = 0;
    released_[0] = released_[1] = npos;
}

void
FlatBus::enqueue(std::uint32_t transfer, std::uint32_t src,
                 std::uint32_t dst, obs::EngineStats &stats)
{
    std::uint32_t w = poolFree_;
    if (w != npos) {
        poolFree_ = pool_[w].next[0];
    } else {
        w = static_cast<std::uint32_t>(pool_.size());
        pool_.emplace_back();
    }
    Waiter &waiter = pool_[w];
    waiter.transfer = transfer;
    waiter.seq = seq_++;
    waiter.src = src;
    waiter.dst = dst;
    for (int side = 0; side < 2; ++side) {
        const std::uint32_t q = queueOf(side, src, dst);
        if (q == npos)
            continue;
        Queue &wq = queues_[side][q];
        waiter.prev[side] = wq.tail;
        waiter.next[side] = npos;
        if (wq.tail == npos)
            wq.head = w;
        else
            pool_[wq.tail].next[side] = w;
        wq.tail = w;
    }
    if (++waiting_ > stats.waitQueueMaxDepth)
        stats.waitQueueMaxDepth = waiting_;
}

/** Take a waiter out of its queues and return it to the pool. */
void
FlatBus::unlink(std::uint32_t w)
{
    Waiter &waiter = pool_[w];
    for (int side = 0; side < 2; ++side) {
        const std::uint32_t q = queueOf(side, waiter.src, waiter.dst);
        if (q == npos)
            continue;
        Queue &wq = queues_[side][q];
        const std::uint32_t p = waiter.prev[side];
        const std::uint32_t n = waiter.next[side];
        if (p == npos)
            wq.head = n;
        else
            pool_[p].next[side] = n;
        if (n == npos)
            wq.tail = p;
        else
            pool_[n].prev[side] = p;
    }
    waiter.next[0] = poolFree_;
    poolFree_ = w;
    --waiting_;
}

} // namespace ovlsim::sim
