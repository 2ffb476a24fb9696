/**
 * @file
 * The benchmark's workloads: one whole study per pass.
 *
 * A pass is what a user pays for one answer: set-up (trace or
 * generate, overlap transform, lowering), then the campaign. Every
 * pass starts with cold process-wide compile caches and fresh
 * replay sessions, and every pass of a run must reproduce the same
 * simulated outputs bit for bit (the digest).
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/stats.hh"
#include "spans.hh"

namespace perfbench {

/** What one pass measured and checked. */
struct Pass
{
    /** Wall time of the whole study, set-up included. */
    double studyS = 0.0;
    /** Wall time before the campaign's first replay. */
    double setupS = 0.0;
    /** Summed duration of the campaign's replay jobs. */
    double replayS = 0.0;
    /** Per-job latencies (ms): one sweep point, one resilience
     * (rate, seed) row or one ladder replay. */
    std::vector<double> jobMs;
    std::uint64_t replays = 0;
    /** Engine events (heap pops) of the campaign's replays. */
    std::uint64_t events = 0;
    /** Replays that failed an output check or threw unexpectedly. */
    std::uint64_t failed = 0;
    /** Human-readable reasons for `failed`. */
    std::vector<std::string> problems;
    /** FNV-1a over every simulated output of the pass. */
    std::uint64_t digest = 0;
    /** Engine counters of the campaign's replays, merged. */
    ovlsim::obs::EngineStats stats;
    /** Pass-level figures: per-layer metrics (traced passes) and
     * simulated results such as paper_err_pct. */
    std::map<std::string, double> values;
    /** Span id of the pass's root ("study"), -1 when untraced. */
    int root = -1;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Whether the workload runs on one lane whatever it is given. */
    virtual bool singleLane() const { return false; }

    /** Run one study with at most `lanes` sweep lanes. */
    virtual Pass runPass(SpanLog &log, int lanes) = 0;

    /**
     * Traced run only: replay part of the last pass's campaign
     * directly through the layer entry points, check that it
     * reproduces the driver's outputs exactly, and add the
     * per-replay layer figures to `pass.values`.
     */
    virtual void probe(SpanLog &log, Pass &pass) { (void)log, (void)pass; }

    /** Lines printed before the metrics (per-workload tables). */
    virtual std::vector<std::string>
    report(const std::vector<Pass> &passes) const
    {
        (void)passes;
        return {};
    }
};

/** nullptr for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
