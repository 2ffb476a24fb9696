/**
 * @file
 * In-memory span log for the benchmark's traced run.
 *
 * The benchmark wraps each call into a layer's public entry point
 * (tracer, gen, transform, program, engine, res, the core sweep
 * drivers) in a span: name, start, end and the span that was open
 * when it began. The sweep drivers' own per-lane spans arrive
 * through core::CampaignObs and are attached as children of the
 * driver span that produced them. Nothing is written until the run
 * ends; then the log renders as Chrome trace-event JSON.
 *
 * A disabled log records nothing: begin() returns -1 and end() on
 * -1 is a no-op, so the untraced measurement runs the same code.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/thread_pool.hh"

namespace perfbench {

/** One recorded interval. Track 0 is the calling thread; track
 * 1 + n is sweep lane n. */
struct Span
{
    std::string name;
    int id = 0;
    /** Enclosing span's id, or -1 for a root. */
    int parent = -1;
    int track = 0;
    std::uint64_t beginNs = 0;
    std::uint64_t endNs = 0;

    double
    seconds() const
    {
        return static_cast<double>(endNs - beginNs) * 1e-9;
    }
};

class SpanLog
{
  public:
    explicit SpanLog(bool enabled = false);

    bool enabled() const { return enabled_; }

    /** Open a span on track 0 under the innermost open span. */
    int begin(std::string name);

    /** Close span `id` (must be the innermost open one). */
    void end(int id);

    /**
     * Attach a driver's lane spans (times relative to the driver's
     * pool epoch) as children of the closed span `parent`, shifted
     * to its start and clamped to its end.
     */
    void addLaneSpans(int parent,
                      const std::vector<ovlsim::ThreadPool::LaneSpan>
                          &lane_spans);

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Self time of span `id`: its duration minus the part of its
     * interval covered by its children (union of intervals, so
     * overlapping lane spans are not counted twice).
     */
    double selfSeconds(int id) const;

    /** Ids of the spans whose parent is `id`. */
    std::vector<int> children(int id) const;

    /** Write the log as a Perfetto-loadable trace-event file;
     * returns false when the file cannot be written. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    std::uint64_t nowNs() const;

    bool enabled_;
    std::chrono::steady_clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/**
 * Whether a sweep driver's lane span is a campaign job (a sweep
 * point or a resilience row) rather than the driver's own variant
 * construction ("compile ..."), which precedes the first job.
 */
inline bool
isCampaignJob(const std::string &lane_span_name)
{
    return lane_span_name.rfind("compile", 0) != 0;
}

/** Scoped span: opens on construction, closes on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, std::string name)
        : log_(log), id_(log.begin(std::move(name)))
    {}
    ~ScopedSpan() { log_.end(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return id_; }

  private:
    SpanLog &log_;
    int id_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
