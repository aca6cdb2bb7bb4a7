// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark around its own calls into each layer (build, run_sweep, each
// scenario, aggregate); nothing inside the library is instrumented. The
// spans are written out once, when the run ends, as a Chrome trace-event
// file (chrome://tracing, Perfetto).
#ifndef PERFBENCH_TRACE_HPP
#define PERFBENCH_TRACE_HPP

#include <chrono>
#include <cstddef>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

struct Span {
    std::string name;
    /// Index of the span that caused this one; kNoParent for roots.
    std::size_t parent = 0;
    Clock::time_point start;
    Clock::time_point end;
    std::thread::id thread;
};

inline constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

class Tracer {
public:
    /// Record a finished span; returns its index (a parent for later spans).
    std::size_t add(std::string name, std::size_t parent,
                    Clock::time_point start, Clock::time_point end,
                    std::thread::id thread = std::this_thread::get_id());

    /// Start a span that ends at close(); returns its index.
    std::size_t open(std::string name, std::size_t parent) {
        const Clock::time_point now = Clock::now();
        return add(std::move(name), parent, now, now);
    }
    void close(std::size_t span) { spans_.at(span).end = Clock::now(); }

    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

    /// Write every span as a Chrome trace-event JSON array.
    /// \throws std::runtime_error when `path` is not writable.
    void write_chrome_trace(const std::string& path) const;

private:
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_HPP
