#include "trace.hpp"

#include <fstream>
#include <map>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::size_t Tracer::add(std::string name, std::size_t parent,
                        Clock::time_point start, Clock::time_point end,
                        std::thread::id thread) {
    spans_.push_back({std::move(name), parent, start, end, thread});
    return spans_.size() - 1;
}

void Tracer::write_chrome_trace(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write trace file " + path);
    // Small dense thread numbers instead of opaque std::thread::id values.
    std::map<std::thread::id, int> tids;
    const auto micros = [&](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin_).count();
    };
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        const int tid = tids.emplace(s.thread, static_cast<int>(tids.size()))
                            .first->second;
        out << (i == 0 ? "" : ",\n") << "{\"name\": \"" << s.name
            << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << tid
            << ", \"ts\": " << micros(s.start)
            << ", \"dur\": " << micros(s.end) - micros(s.start)
            << ", \"args\": {\"id\": " << i << ", \"parent\": "
            << (s.parent == kNoParent ? -1 : static_cast<long long>(s.parent))
            << "}}";
    }
    out << "\n]\n";
    if (!out) throw std::runtime_error("failed writing trace file " + path);
}

}  // namespace perfbench
