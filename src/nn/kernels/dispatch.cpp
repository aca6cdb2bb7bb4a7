#include "nn/kernels/dispatch.hpp"

#include <atomic>
#include <stdexcept>

namespace imx::nn::kernels {

namespace {

constexpr int kNotForced = -1;

/// The force_backend() pin, or kNotForced. Read on every kernel call, so a
/// relaxed atomic rather than a lock.
std::atomic<int> g_forced{kNotForced};

Backend detected_backend() {
    static const bool avx2 = avx2_kernels_compiled() && cpu_supports_avx2();
    return avx2 ? Backend::kAvx2 : Backend::kScalar;
}

}  // namespace

const char* to_string(Backend backend) {
    return backend == Backend::kScalar ? "scalar" : "avx2";
}

bool cpu_supports_avx2() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    return __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
}

Backend parse_backend(const std::string& name) {
    if (name == "scalar") return Backend::kScalar;
    if (name == "avx2") return Backend::kAvx2;
    throw std::runtime_error("unknown kernel backend \"" + name +
                             "\" (valid: scalar, avx2)");
}

Backend active_backend() {
    const int forced = g_forced.load(std::memory_order_relaxed);
    return forced == kNotForced ? detected_backend()
                                : static_cast<Backend>(forced);
}

void force_backend(Backend backend) {
    if (backend == Backend::kAvx2) {
        if (!avx2_kernels_compiled()) {
            throw std::runtime_error(
                "avx2 kernels: this binary was built without them");
        }
        if (!cpu_supports_avx2()) {
            throw std::runtime_error(
                "avx2 kernels: this CPU does not support AVX2");
        }
    }
    g_forced.store(static_cast<int>(backend), std::memory_order_relaxed);
}

void clear_backend_override() {
    g_forced.store(kNotForced, std::memory_order_relaxed);
}

}  // namespace imx::nn::kernels
