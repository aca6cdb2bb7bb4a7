// Runtime kernel-backend selection.
//
// The dispatch contract (docs/kernels.md):
//   * Default: AVX2 when both the binary carries AVX2 code and the CPU
//     reports the feature, otherwise the scalar reference. Every backend
//     is bitwise identical to scalar, so the choice moves speed, never
//     output.
//   * force_backend() pins a backend in-process (tests, benches,
//     `micro_kernels --kernel`); forcing avx2 where the binary or the CPU
//     cannot honor it is a hard error — a silent fallback would let perf
//     claims lie about which kernels actually ran.
#ifndef IMX_NN_KERNELS_DISPATCH_HPP
#define IMX_NN_KERNELS_DISPATCH_HPP

#include <string>

namespace imx::nn::kernels {

enum class Backend {
    kScalar,  ///< portable reference; bitwise-pinned to the legacy loops
    kAvx2,    ///< 8-lane AVX2 (x86-64), selected by CPU detection
};

/// "scalar" / "avx2" — the same spellings parse_backend accepts.
[[nodiscard]] const char* to_string(Backend backend);

/// Does the running CPU report AVX2 support?
[[nodiscard]] bool cpu_supports_avx2();

/// Was the AVX2 translation unit built with AVX2 code generation? (False on
/// non-x86 targets or toolchains without -mavx2; dispatch then never
/// selects kAvx2 on its own and forcing it is a hard error.)
[[nodiscard]] bool avx2_kernels_compiled();

/// Parse a backend spelling ("scalar" | "avx2").
/// \throws std::runtime_error for anything else.
[[nodiscard]] Backend parse_backend(const std::string& name);

/// The backend every dispatched kernel call uses: the force_backend() pin
/// if one is set, otherwise the CPU-detected default.
[[nodiscard]] Backend active_backend();

/// Test/bench hook: pin the active backend in-process.
/// \throws std::runtime_error when avx2 cannot be honored.
void force_backend(Backend backend);

/// Drop any force_backend() pin; dispatch returns to CPU detection.
void clear_backend_override();

}  // namespace imx::nn::kernels

#endif  // IMX_NN_KERNELS_DISPATCH_HPP
