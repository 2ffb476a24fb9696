#include "spans.hh"

#include <algorithm>
#include <cstdio>

#include "util/logging.hh"

namespace perfbench {

SpanLog::SpanLog(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now())
{}

std::uint64_t
SpanLog::nowNs() const
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
}

int
SpanLog::begin(std::string name)
{
    if (!enabled_)
        return -1;
    Span span;
    span.name = std::move(name);
    span.id = static_cast<int>(spans_.size());
    span.parent = open_.empty() ? -1 : open_.back();
    span.beginNs = nowNs();
    spans_.push_back(std::move(span));
    open_.push_back(spans_.back().id);
    return spans_.back().id;
}

void
SpanLog::end(int id)
{
    if (id < 0)
        return;
    ovlsim::ovlAssert(!open_.empty() && open_.back() == id,
                      "SpanLog::end: spans must close innermost "
                      "first");
    open_.pop_back();
    spans_[static_cast<std::size_t>(id)].endNs = nowNs();
}

void
SpanLog::addLaneSpans(
    int parent,
    const std::vector<ovlsim::ThreadPool::LaneSpan> &lane_spans)
{
    if (parent < 0)
        return;
    const Span outer = spans_[static_cast<std::size_t>(parent)];
    for (const auto &lane : lane_spans) {
        Span span;
        span.name = lane.name;
        span.id = static_cast<int>(spans_.size());
        span.parent = parent;
        span.track = 1 + lane.lane;
        span.beginNs = std::min(outer.beginNs + lane.beginNs,
                                outer.endNs);
        span.endNs = std::min(outer.beginNs + lane.endNs,
                              outer.endNs);
        spans_.push_back(std::move(span));
    }
}

std::vector<int>
SpanLog::children(int id) const
{
    std::vector<int> out;
    for (const Span &span : spans_) {
        if (span.parent == id)
            out.push_back(span.id);
    }
    return out;
}

double
SpanLog::selfSeconds(int id) const
{
    const Span &outer = spans_[static_cast<std::size_t>(id)];
    std::vector<std::pair<std::uint64_t, std::uint64_t>> covered;
    for (const int child : children(id)) {
        const Span &c = spans_[static_cast<std::size_t>(child)];
        covered.emplace_back(std::max(c.beginNs, outer.beginNs),
                             std::min(c.endNs, outer.endNs));
    }
    std::sort(covered.begin(), covered.end());
    std::uint64_t union_ns = 0;
    std::uint64_t reach = outer.beginNs;
    for (const auto &[b, e] : covered) {
        const std::uint64_t from = std::max(b, reach);
        if (e > from) {
            union_ns += e - from;
            reach = e;
        }
    }
    return static_cast<double>(outer.endNs - outer.beginNs -
                               union_ns) *
        1e-9;
}

namespace {

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out;
}

} // namespace

bool
SpanLog::writeChromeTrace(const std::string &path) const
{
    std::FILE *file = std::fopen(path.c_str(), "w");
    if (file == nullptr)
        return false;
    // Complete ("X") events: nesting needs no B/E pairing, and the
    // id/parent args carry the causal links Perfetto shows in its
    // argument panel. Timestamps are microseconds.
    std::fprintf(file, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    std::fprintf(file,
                 "\n{\"ph\":\"M\",\"pid\":1,\"tid\":0,"
                 "\"name\":\"thread_name\","
                 "\"args\":{\"name\":\"benchmark\"}}");
    int max_track = 0;
    for (const Span &span : spans_)
        max_track = std::max(max_track, span.track);
    for (int track = 1; track <= max_track; ++track) {
        std::fprintf(file,
                     ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
                     "\"name\":\"thread_name\","
                     "\"args\":{\"name\":\"lane %d\"}}",
                     track, track - 1);
    }
    for (const Span &span : spans_) {
        std::fprintf(file,
                     ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                     "\"name\":\"%s\",\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%d,\"parent\":%d}}",
                     span.track, jsonEscape(span.name).c_str(),
                     static_cast<double>(span.beginNs) * 1e-3,
                     static_cast<double>(span.endNs - span.beginNs) *
                         1e-3,
                     span.id, span.parent);
    }
    std::fprintf(file, "\n]}\n");
    return std::fclose(file) == 0;
}

} // namespace perfbench
