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
//   * gemm_batch: lanes carry 8 output rows; an in-register 8x8 transpose
//     of the row-major weight block feeds them column by column, and each
//     transposed block is reused for every sample, so each y[b,r] starts
//     at its bias and adds w[r,c]*x[b,c] for c = 0..in-1.
//   * gemm_batch_backward: grad_bias lanes carry 8 rows summed over the
//     samples in order. grad_weight and grad_x lanes carry 8 columns of one
//     row, held in registers while it adds the samples (grad_weight) or the
//     rows (grad_x) in order. The zero-gradient skip is a compare + mask
//     rather than a branch (ReLU-masked gradients are ~50% zeros in no
//     predictable pattern).
//   * adam_update: lanes carry 8 parameters; sqrt and div are correctly
//     rounded, so each lane is the scalar expression.
// conv2d_backward has no vector version: its scalar zero-skipping order
// does not vectorize without re-associating a reduction.
#include "nn/kernels/kernels.hpp"

#include <algorithm>
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

/// Mask enabling the first n (0..8) lanes, for maskload/maskstore.
inline __m256i first_lanes(int n) {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(n),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/// One gradient coefficient g broadcast, with the lanes to skip (g == 0,
/// either sign) preset to -0.0f and the others to all-zero bits.
struct Coef {
    __m256 g;
    __m256 skip;
    __m256 identity;

    explicit Coef(float value)
        : g(_mm256_set1_ps(value)),
          skip(_mm256_cmp_ps(g, _mm256_setzero_ps(), _CMP_EQ_OQ)),
          identity(_mm256_and_ps(skip, _mm256_set1_ps(-0.0F))) {}

    /// g * v, or -0.0f where g == 0. -0.0f is the additive identity of
    /// every non-signalling float (+-0, inf and NaN included), so adding it
    /// leaves the accumulator exactly as the scalar `continue` does, with
    /// no branch to mispredict on ReLU-masked gradients.
    [[nodiscard]] __m256 times(__m256 v) const {
        return _mm256_or_ps(_mm256_andnot_ps(skip, _mm256_mul_ps(g, v)),
                            identity);
    }
};

/// For each of `count` accumulator rows t (acc + t * stride):
///   row[0..8K) += k_ti.times(v_i[0..8K)) for i = 0..n-1 in order,
/// with k_ti = Coef(coef[t * coef_row + i * coef_step]) and
/// v_i = v + i * stride. The row's K column chunks stay in registers for
/// the whole reduction; the last chunk covers only the lanes `last`
/// enables (all of them when `last_full`).
template <int K>
void accumulate_rows(int count, int n, const float* coef,
                     std::size_t coef_row, std::size_t coef_step,
                     const float* v, float* acc, std::size_t stride,
                     __m256i last, bool last_full) {
    for (int t = 0; t < count; ++t) {
        float* row = acc + static_cast<std::size_t>(t) * stride;
        const float* coef_t = coef + static_cast<std::size_t>(t) * coef_row;
        __m256 a[K];
        for (int j = 0; j + 1 < K; ++j) a[j] = _mm256_loadu_ps(row + 8 * j);
        a[K - 1] = _mm256_maskload_ps(row + 8 * (K - 1), last);
        for (int i = 0; i < n; ++i) {
            const Coef k(coef_t[static_cast<std::size_t>(i) * coef_step]);
            const float* vi = v + static_cast<std::size_t>(i) * stride;
            for (int j = 0; j + 1 < K; ++j) {
                a[j] = _mm256_add_ps(a[j],
                                     k.times(_mm256_loadu_ps(vi + 8 * j)));
            }
            a[K - 1] = _mm256_add_ps(
                a[K - 1], k.times(_mm256_maskload_ps(vi + 8 * (K - 1), last)));
        }
        for (int j = 0; j + 1 < K; ++j) _mm256_storeu_ps(row + 8 * j, a[j]);
        if (last_full) {
            _mm256_storeu_ps(row + 8 * (K - 1), a[K - 1]);
        } else {
            _mm256_maskstore_ps(row + 8 * (K - 1), last, a[K - 1]);
        }
    }
}

/// accumulate_rows over rows of `cols` floats, in column blocks of up to
/// 64 (8 registers).
void accumulate(int cols, int count, int n, const float* coef,
                std::size_t coef_row, std::size_t coef_step, const float* v,
                float* acc) {
    using Block = void (*)(int, int, const float*, std::size_t, std::size_t,
                           const float*, float*, std::size_t, __m256i, bool);
    static constexpr Block kBlocks[] = {
        accumulate_rows<1>, accumulate_rows<2>, accumulate_rows<3>,
        accumulate_rows<4>, accumulate_rows<5>, accumulate_rows<6>,
        accumulate_rows<7>, accumulate_rows<8>};
    const auto stride = static_cast<std::size_t>(cols);
    for (int c = 0; c < cols; c += 64) {
        const int width = std::min(64, cols - c);
        const int chunks = (width + 7) / 8;
        const int last = width - 8 * (chunks - 1);
        kBlocks[chunks - 1](count, n, coef, coef_row, coef_step, v + c,
                            acc + c, stride, first_lanes(last), last == 8);
    }
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

void avx2_gemm_batch(int batch, int out_f, int in_f, const float* w,
                     const float* x, const float* b, float* y) {
    const auto in = static_cast<std::size_t>(in_f);
    const auto out = static_cast<std::size_t>(out_f);
    // Accumulators of a block with fewer than 8 rows, one 8-float slot per
    // sample: masked stores straight into y would overlap the next
    // sample's row, and a masked store cannot forward to that later load.
    thread_local std::vector<float> partial;
    for (int r = 0; r < out_f; r += 8) {
        const int rows = std::min(8, out_f - r);
        const __m256i row_mask = first_lanes(rows);
        float* acc = y + r;
        std::size_t acc_stride = out;
        if (rows < 8) {
            partial.resize(static_cast<std::size_t>(batch) * 8);
            acc = partial.data();
            acc_stride = 8;
        }
        // Every y[b,r] starts at its bias; each column chunk then adds its
        // products in c order.
        const __m256 bias = _mm256_maskload_ps(b + r, row_mask);
        for (int s = 0; s < batch; ++s) {
            _mm256_storeu_ps(acc + static_cast<std::size_t>(s) * acc_stride,
                             bias);
        }
        const float* wblock = w + static_cast<std::size_t>(r) * in;
        for (int c = 0; c < in_f; c += 8) {
            const int width = std::min(8, in_f - c);
            const __m256i col_mask = first_lanes(width);
            __m256 cols[8];
            for (int i = 0; i < 8; ++i) {
                const int row = i < rows ? i : 0;  // past the block: zeroed
                const __m256 v = _mm256_maskload_ps(
                    wblock + static_cast<std::size_t>(row) * in + c, col_mask);
                cols[i] = i < rows ? v : _mm256_setzero_ps();
            }
            transpose8(cols);  // cols[j] = w[r..r+8, c+j]
            const auto add_chunk = [&](int chunk) {
                for (int s = 0; s < batch; ++s) {
                    const float* xs = x + static_cast<std::size_t>(s) * in + c;
                    float* ys = acc + static_cast<std::size_t>(s) * acc_stride;
                    __m256 sum = _mm256_loadu_ps(ys);
                    for (int j = 0; j < chunk; ++j) {
                        sum = _mm256_add_ps(
                            sum, _mm256_mul_ps(cols[j], _mm256_set1_ps(xs[j])));
                    }
                    _mm256_storeu_ps(ys, sum);
                }
            };
            if (width == 8) {
                add_chunk(8);  // constant trip count: fully unrolled
            } else {
                add_chunk(width);
            }
        }
        if (rows < 8) {
            for (int s = 0; s < batch; ++s) {
                std::copy_n(partial.data() + static_cast<std::size_t>(s) * 8,
                            rows, y + static_cast<std::size_t>(s) * out + r);
            }
        }
    }
}

void avx2_gemm_batch_backward(int batch, int out_f, int in_f, const float* w,
                              const float* x, const float* gy, float* gx,
                              float* gw, float* gb) {
    const auto in = static_cast<std::size_t>(in_f);
    const auto out = static_cast<std::size_t>(out_f);
    if (gb != nullptr) {
        // Lanes carry 8 rows, each adding the samples in order.
        for (int r = 0; r < out_f; r += 8) {
            const __m256i mask = first_lanes(std::min(8, out_f - r));
            __m256 sum = _mm256_maskload_ps(gb + r, mask);
            for (int s = 0; s < batch; ++s) {
                sum = _mm256_add_ps(
                    sum, _mm256_maskload_ps(
                             gy + static_cast<std::size_t>(s) * out + r, mask));
            }
            _mm256_maskstore_ps(gb + r, mask, sum);
        }
    }
    if (gw != nullptr) {
        // grad_weight row r adds g[s,r] * x[s,:] over the samples in order.
        accumulate(in_f, out_f, batch, gy, 1, out, x, gw);
    }
    if (gx != nullptr) {
        // grad_x row s adds g[s,r] * w[r,:] over the rows in order.
        std::fill(gx, gx + static_cast<std::size_t>(batch) * in, 0.0F);
        accumulate(in_f, batch, out_f, gy, out, 1, w, gx);
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

void avx2_adam_update(std::int64_t n, const AdamStep& s, float* p,
                      const float* g, float* m, float* v) {
    const __m256 scale = _mm256_set1_ps(s.grad_scale);
    const __m256 beta1 = _mm256_set1_ps(s.beta1);
    const __m256 beta2 = _mm256_set1_ps(s.beta2);
    const __m256 one_minus_beta1 = _mm256_set1_ps(1.0F - s.beta1);
    const __m256 one_minus_beta2 = _mm256_set1_ps(1.0F - s.beta2);
    const __m256 bc1 = _mm256_set1_ps(s.bias_correction1);
    const __m256 bc2 = _mm256_set1_ps(s.bias_correction2);
    const __m256 lr = _mm256_set1_ps(s.lr);
    const __m256 eps = _mm256_set1_ps(s.eps);
    std::int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 grad = _mm256_mul_ps(_mm256_loadu_ps(g + i), scale);
        const __m256 mi =
            _mm256_add_ps(_mm256_mul_ps(beta1, _mm256_loadu_ps(m + i)),
                          _mm256_mul_ps(one_minus_beta1, grad));
        const __m256 vi = _mm256_add_ps(
            _mm256_mul_ps(beta2, _mm256_loadu_ps(v + i)),
            _mm256_mul_ps(_mm256_mul_ps(one_minus_beta2, grad), grad));
        _mm256_storeu_ps(m + i, mi);
        _mm256_storeu_ps(v + i, vi);
        const __m256 m_hat = _mm256_div_ps(mi, bc1);
        const __m256 v_hat = _mm256_div_ps(vi, bc2);
        const __m256 update =
            _mm256_div_ps(_mm256_mul_ps(lr, m_hat),
                          _mm256_add_ps(_mm256_sqrt_ps(v_hat), eps));
        _mm256_storeu_ps(p + i, _mm256_sub_ps(_mm256_loadu_ps(p + i), update));
    }
    scalar_adam_update(n - i, s, p + i, g + i, m + i, v + i);
}

#else  // !defined(__AVX2__)

// Built without AVX2 codegen: dispatch can never route here (see
// avx2_kernels_compiled()), so these stubs only assert the invariant.

void avx2_conv2d_forward(const Conv2dGeom&, const float*, const float*,
                         const float*, float*) {
    IMX_ASSERT(!"avx2 kernels not compiled");
}

void avx2_gemm_batch(int, int, int, const float*, const float*, const float*,
                     float*) {
    IMX_ASSERT(!"avx2 kernels not compiled");
}

void avx2_gemm_batch_backward(int, int, int, const float*, const float*,
                              const float*, float*, float*, float*) {
    IMX_ASSERT(!"avx2 kernels not compiled");
}

void avx2_bias_act(std::int64_t, const float*, float, Act, float*) {
    IMX_ASSERT(!"avx2 kernels not compiled");
}

void avx2_adam_update(std::int64_t, const AdamStep&, float*, const float*,
                      float*, float*) {
    IMX_ASSERT(!"avx2 kernels not compiled");
}

#endif  // defined(__AVX2__)

}  // namespace imx::nn::kernels::detail
