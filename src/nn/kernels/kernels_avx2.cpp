// AVX2 backend. This TU is the only one built with -mavx2 (and without
// FMA contraction — see CMakeLists.txt): everything else in the library
// stays baseline-x86-64 so the binary runs on any CPU, and dispatch only
// routes here after __builtin_cpu_supports("avx2") says it may.
//
// Every kernel here is bitwise identical to the scalar reference
// (docs/kernels.md): lanes carry independent outputs, each accumulated in
// the scalar loop's order, so no reduction is ever re-associated.
//   * conv2d_forward: the input is copied once into an explicitly
//     zero-padded scratch, removing every bounds check; lanes then carry 8
//     consecutive output columns in the scalar per-element tap order.
//   * gemm: lanes carry 8 output rows; an in-register 8x8 transpose of the
//     row-major weight block feeds them column by column, so each row
//     starts at its bias and adds w[r,c]*x[c] for c = 0..in-1.
//   * gemm_backward: the scalar r-outer/c-inner order with lane-
//     independent updates of grad_weight and grad_x.
// conv2d_backward has no vector version: its scalar zero-skipping order
// does not vectorize without re-associating a reduction.
#include "nn/kernels/kernels.hpp"

#include <vector>

#include "util/contracts.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace imx::nn::kernels {

bool avx2_kernels_compiled() {
#if defined(__AVX2__)
    return true;
#else
    return false;
#endif
}

}  // namespace imx::nn::kernels

namespace imx::nn::kernels::detail {

#if defined(__AVX2__)

namespace {

/// Copy a CHW tensor into a zero-padded [c, h+2p, w+2p] scratch layout.
void pad_input(const Conv2dGeom& g, const float* in, std::vector<float>& out) {
    const std::size_t ph = static_cast<std::size_t>(g.in_h + 2 * g.padding);
    const std::size_t pw = static_cast<std::size_t>(g.in_w + 2 * g.padding);
    out.assign(static_cast<std::size_t>(g.in_channels) * ph * pw, 0.0F);
    for (int c = 0; c < g.in_channels; ++c) {
        for (int y = 0; y < g.in_h; ++y) {
            const float* src =
                in + (static_cast<std::size_t>(c) * g.in_h + y) * g.in_w;
            float* dst = out.data() +
                         (static_cast<std::size_t>(c) * ph +
                          static_cast<std::size_t>(y + g.padding)) *
                             pw +
                         static_cast<std::size_t>(g.padding);
            for (int x = 0; x < g.in_w; ++x) dst[x] = src[x];
        }
    }
}

/// In-place transpose of the 8x8 block held one row per register.
inline void transpose8(__m256 (&m)[8]) {
    const __m256 t0 = _mm256_unpacklo_ps(m[0], m[1]);
    const __m256 t1 = _mm256_unpackhi_ps(m[0], m[1]);
    const __m256 t2 = _mm256_unpacklo_ps(m[2], m[3]);
    const __m256 t3 = _mm256_unpackhi_ps(m[2], m[3]);
    const __m256 t4 = _mm256_unpacklo_ps(m[4], m[5]);
    const __m256 t5 = _mm256_unpackhi_ps(m[4], m[5]);
    const __m256 t6 = _mm256_unpacklo_ps(m[6], m[7]);
    const __m256 t7 = _mm256_unpackhi_ps(m[6], m[7]);
    const __m256 s0 = _mm256_shuffle_ps(t0, t2, 0x44);
    const __m256 s1 = _mm256_shuffle_ps(t0, t2, 0xEE);
    const __m256 s2 = _mm256_shuffle_ps(t1, t3, 0x44);
    const __m256 s3 = _mm256_shuffle_ps(t1, t3, 0xEE);
    const __m256 s4 = _mm256_shuffle_ps(t4, t6, 0x44);
    const __m256 s5 = _mm256_shuffle_ps(t4, t6, 0xEE);
    const __m256 s6 = _mm256_shuffle_ps(t5, t7, 0x44);
    const __m256 s7 = _mm256_shuffle_ps(t5, t7, 0xEE);
    m[0] = _mm256_permute2f128_ps(s0, s4, 0x20);
    m[1] = _mm256_permute2f128_ps(s1, s5, 0x20);
    m[2] = _mm256_permute2f128_ps(s2, s6, 0x20);
    m[3] = _mm256_permute2f128_ps(s3, s7, 0x20);
    m[4] = _mm256_permute2f128_ps(s0, s4, 0x31);
    m[5] = _mm256_permute2f128_ps(s1, s5, 0x31);
    m[6] = _mm256_permute2f128_ps(s2, s6, 0x31);
    m[7] = _mm256_permute2f128_ps(s3, s7, 0x31);
}

}  // namespace

void avx2_conv2d_forward(const Conv2dGeom& g, const float* in, const float* w,
                         const float* b, float* out) {
    // Per-thread scratch, reused across calls so the hot path never
    // allocates after warm-up.
    thread_local std::vector<float> padded;
    pad_input(g, in, padded);
    const std::size_t ph = static_cast<std::size_t>(g.in_h + 2 * g.padding);
    const std::size_t pw = static_cast<std::size_t>(g.in_w + 2 * g.padding);
    const int oh = g.out_h();
    const int ow = g.out_w();
    const int taps = g.in_channels * g.kernel * g.kernel;

    for (int oc = 0; oc < g.out_channels; ++oc) {
        const float bias = b[oc];
        const float* wbase = w + static_cast<std::size_t>(oc) *
                                     static_cast<std::size_t>(taps);
        for (int oy = 0; oy < oh; ++oy) {
            float* out_row =
                out + (static_cast<std::size_t>(oc) * oh + oy) *
                          static_cast<std::size_t>(ow);
            int ox = 0;
            for (; ox + 8 <= ow; ox += 8) {
                __m256 acc = _mm256_set1_ps(bias);
                const float* wv = wbase;
                for (int ic = 0; ic < g.in_channels; ++ic) {
                    const float* chan = padded.data() +
                                        static_cast<std::size_t>(ic) * ph * pw;
                    for (int ky = 0; ky < g.kernel; ++ky) {
                        const float* src =
                            chan + static_cast<std::size_t>(oy + ky) * pw + ox;
                        for (int kx = 0; kx < g.kernel; ++kx) {
                            const __m256 wvec = _mm256_set1_ps(*wv++);
                            acc = _mm256_add_ps(
                                acc, _mm256_mul_ps(
                                         wvec, _mm256_loadu_ps(src + kx)));
                        }
                    }
                }
                _mm256_storeu_ps(out_row + ox, acc);
            }
            // Scalar tail over the padded scratch: same tap order as the
            // vector body (and as the scalar backend), so it stays bitwise.
            for (; ox < ow; ++ox) {
                float acc = bias;
                const float* wv = wbase;
                for (int ic = 0; ic < g.in_channels; ++ic) {
                    const float* chan = padded.data() +
                                        static_cast<std::size_t>(ic) * ph * pw;
                    for (int ky = 0; ky < g.kernel; ++ky) {
                        const float* src =
                            chan + static_cast<std::size_t>(oy + ky) * pw + ox;
                        for (int kx = 0; kx < g.kernel; ++kx) {
                            acc += *wv++ * src[kx];
                        }
                    }
                }
                out_row[ox] = acc;
            }
        }
    }
}

void avx2_gemm(int out_f, int in_f, const float* w, const float* x,
               const float* b, float* y) {
    const std::size_t stride = static_cast<std::size_t>(in_f);
    int r = 0;
    for (; r + 8 <= out_f; r += 8) {
        const float* wblock = w + static_cast<std::size_t>(r) * stride;
        __m256 acc = _mm256_loadu_ps(b + r);
        int c = 0;
        for (; c + 8 <= in_f; c += 8) {
            __m256 cols[8];
            for (int i = 0; i < 8; ++i) {
                cols[i] = _mm256_loadu_ps(
                    wblock + static_cast<std::size_t>(i) * stride + c);
            }
            transpose8(cols);
            for (int j = 0; j < 8; ++j) {
                acc = _mm256_add_ps(
                    acc, _mm256_mul_ps(cols[j], _mm256_set1_ps(x[c + j])));
            }
        }
        for (; c < in_f; ++c) {
            const float* col = wblock + c;
            const __m256 wcol = _mm256_setr_ps(
                col[0], col[stride], col[2 * stride], col[3 * stride],
                col[4 * stride], col[5 * stride], col[6 * stride],
                col[7 * stride]);
            acc = _mm256_add_ps(acc,
                                _mm256_mul_ps(wcol, _mm256_set1_ps(x[c])));
        }
        _mm256_storeu_ps(y + r, acc);
    }
    // Leftover rows: the scalar loop itself.
    for (; r < out_f; ++r) {
        const float* wrow = w + static_cast<std::size_t>(r) * stride;
        float acc = b[r];
        for (int c = 0; c < in_f; ++c) acc += wrow[c] * x[c];
        y[r] = acc;
    }
}

void avx2_gemm_backward(int out_f, int in_f, const float* w, const float* x,
                        const float* gy, float* gx, float* gw, float* gb) {
    for (int c = 0; c < in_f; ++c) gx[c] = 0.0F;
    for (int r = 0; r < out_f; ++r) {
        const float go = gy[r];
        gb[r] += go;
        if (go == 0.0F) continue;
        const std::size_t off =
            static_cast<std::size_t>(r) * static_cast<std::size_t>(in_f);
        const float* wrow = w + off;
        float* gwrow = gw + off;
        const __m256 go_vec = _mm256_set1_ps(go);
        int c = 0;
        for (; c + 8 <= in_f; c += 8) {
            _mm256_storeu_ps(
                gwrow + c,
                _mm256_add_ps(_mm256_loadu_ps(gwrow + c),
                              _mm256_mul_ps(go_vec, _mm256_loadu_ps(x + c))));
            _mm256_storeu_ps(
                gx + c,
                _mm256_add_ps(_mm256_loadu_ps(gx + c),
                              _mm256_mul_ps(go_vec,
                                            _mm256_loadu_ps(wrow + c))));
        }
        for (; c < in_f; ++c) {
            gwrow[c] += go * x[c];
            gx[c] += go * wrow[c];
        }
    }
}

void avx2_bias_act(std::int64_t n, const float* x, float bias, Act act,
                   float* y) {
    const __m256 bvec = _mm256_set1_ps(bias);
    std::int64_t i = 0;
    if (act == Act::kRelu) {
        const __m256 zero = _mm256_setzero_ps();
        for (; i + 8 <= n; i += 8) {
            const __m256 t = _mm256_add_ps(_mm256_loadu_ps(x + i), bvec);
            // max_ps(t, 0) returns the second operand on equality or NaN,
            // matching the scalar `t > 0 ? t : 0` exactly.
            _mm256_storeu_ps(y + i, _mm256_max_ps(t, zero));
        }
        for (; i < n; ++i) {
            const float t = x[i] + bias;
            y[i] = t > 0.0F ? t : 0.0F;
        }
    } else {
        for (; i + 8 <= n; i += 8) {
            _mm256_storeu_ps(y + i,
                             _mm256_add_ps(_mm256_loadu_ps(x + i), bvec));
        }
        for (; i < n; ++i) y[i] = x[i] + bias;
    }
}

#else  // !defined(__AVX2__)

// Built without AVX2 codegen: dispatch can never route here (see
// avx2_kernels_compiled()), so these stubs only assert the invariant.

void avx2_conv2d_forward(const Conv2dGeom&, const float*, const float*,
                         const float*, float*) {
    IMX_ASSERT(!"avx2 kernels not compiled");
}

void avx2_gemm(int, int, const float*, const float*, const float*, float*) {
    IMX_ASSERT(!"avx2 kernels not compiled");
}

void avx2_gemm_backward(int, int, const float*, const float*, const float*,
                        float*, float*, float*) {
    IMX_ASSERT(!"avx2 kernels not compiled");
}

void avx2_bias_act(std::int64_t, const float*, float, Act, float*) {
    IMX_ASSERT(!"avx2 kernels not compiled");
}

#endif  // defined(__AVX2__)

}  // namespace imx::nn::kernels::detail
