// Differential kernel harness: sweeps randomized conv/gemm shapes,
// paddings, and pruning patterns through both dispatch backends and pins
// the numeric contract (docs/kernels.md) — every kernel is bitwise
// identical under scalar and AVX2 dispatch — plus transplant proofs that
// the layer classes under forced-scalar dispatch reproduce the historical
// loop results bit for bit.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "nn/conv2d.hpp"
#include "nn/kernels/kernels.hpp"
#include "nn/linear.hpp"
#include "rl/ddpg.hpp"
#include "util/rng.hpp"

namespace {

using namespace imx;
using nn::kernels::Conv2dGeom;

bool avx2_available() {
    return nn::kernels::avx2_kernels_compiled() &&
           nn::kernels::cpu_supports_avx2();
}

/// Restores the dispatch selection (including "unset") on scope exit so a
/// failing test cannot leak a forced backend into later tests.
class BackendGuard {
public:
    BackendGuard() = default;
    ~BackendGuard() { nn::kernels::clear_backend_override(); }
    BackendGuard(const BackendGuard&) = delete;
    BackendGuard& operator=(const BackendGuard&) = delete;
};

std::uint32_t float_bits(float v) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

/// Bit equality of two same-length outputs, naming the first mismatch.
testing::AssertionResult bitwise_equal(const std::vector<float>& scalar,
                                       const std::vector<float>& avx2) {
    for (std::size_t i = 0; i < scalar.size(); ++i) {
        if (float_bits(scalar[i]) != float_bits(avx2[i])) {
            return testing::AssertionFailure()
                   << "element " << i << ": scalar " << scalar[i]
                   << " vs avx2 " << avx2[i];
        }
    }
    return testing::AssertionSuccess();
}

void fill_random(std::vector<float>& v, util::Rng& rng, double zero_prob) {
    for (float& x : v) {
        x = rng.uniform(0.0, 1.0) < zero_prob
                ? 0.0F
                : static_cast<float>(rng.normal());
    }
}

/// Zero whole input channels of a conv weight tensor, mimicking what the
/// pruning module leaves behind and exercising the zero-product paths.
void prune_channels(std::vector<float>& w, const Conv2dGeom& g,
                    util::Rng& rng) {
    for (int ic = 0; ic < g.in_channels; ++ic) {
        if (rng.uniform(0.0, 1.0) > 0.3) continue;
        for (int oc = 0; oc < g.out_channels; ++oc) {
            for (int k = 0; k < g.kernel * g.kernel; ++k) {
                const std::size_t idx =
                    (static_cast<std::size_t>(oc) * g.in_channels + ic) *
                        g.kernel * g.kernel +
                    static_cast<std::size_t>(k);
                w[idx] = 0.0F;
            }
        }
    }
}

Conv2dGeom random_geom(util::Rng& rng) {
    Conv2dGeom g;
    g.in_channels = rng.uniform_int(1, 5);
    g.out_channels = rng.uniform_int(1, 5);
    g.kernel = 2 * rng.uniform_int(0, 2) + 1;  // 1, 3, 5
    g.padding = rng.uniform_int(0, 2);
    // Heights/widths chosen so the vector body, its tail, and tiny
    // all-tail outputs are all exercised (out_w from 1 to ~18).
    do {
        g.in_h = rng.uniform_int(g.kernel, 14);
        g.in_w = rng.uniform_int(g.kernel, 18);
    } while (g.out_h() <= 0 || g.out_w() <= 0);
    return g;
}

TEST(KernelsDiff, Conv2dForwardScalarVsAvx2Bitwise) {
    if (!avx2_available()) GTEST_SKIP() << "AVX2 unavailable";
    BackendGuard guard;
    util::Rng rng(0xc0411f0d);
    for (int trial = 0; trial < 60; ++trial) {
        const Conv2dGeom g = random_geom(rng);
        std::vector<float> in(static_cast<std::size_t>(g.in_channels) *
                              g.in_h * g.in_w);
        std::vector<float> w(static_cast<std::size_t>(g.out_channels) *
                             g.in_channels * g.kernel * g.kernel);
        std::vector<float> b(static_cast<std::size_t>(g.out_channels));
        fill_random(in, rng, 0.2);
        fill_random(w, rng, 0.1);
        fill_random(b, rng, 0.3);
        prune_channels(w, g, rng);

        const std::size_t out_n = static_cast<std::size_t>(g.out_channels) *
                                  g.out_h() * g.out_w();
        std::vector<float> out_scalar(out_n);
        std::vector<float> out_avx2(out_n);
        nn::kernels::force_backend(nn::kernels::Backend::kScalar);
        nn::kernels::conv2d_forward(g, in.data(), w.data(), b.data(),
                                    out_scalar.data());
        nn::kernels::force_backend(nn::kernels::Backend::kAvx2);
        nn::kernels::conv2d_forward(g, in.data(), w.data(), b.data(),
                                    out_avx2.data());

        ASSERT_TRUE(bitwise_equal(out_scalar, out_avx2)) << "trial " << trial;
    }
}

TEST(KernelsDiff, GemmScalarVsAvx2Bitwise) {
    if (!avx2_available()) GTEST_SKIP() << "AVX2 unavailable";
    BackendGuard guard;
    util::Rng rng(0x6e6d6d);
    // The MLP shapes of the DDPG search first, then random ones covering
    // the 8-row vector body, its row tail and the column tail.
    std::vector<std::pair<int, int>> shapes = {
        {64, 12}, {64, 13}, {64, 14}, {64, 64}, {1, 64},
        {2, 64},  {13, 64}, {256, 256}};
    for (int trial = 0; trial < 80; ++trial) {
        const int out_f = rng.uniform_int(1, 40);
        shapes.emplace_back(out_f, rng.uniform_int(1, 300));
    }
    for (const auto& [out_f, in_f] : shapes) {
        std::vector<float> w(static_cast<std::size_t>(out_f) * in_f);
        std::vector<float> x(static_cast<std::size_t>(in_f));
        std::vector<float> b(static_cast<std::size_t>(out_f));
        fill_random(w, rng, 0.15);
        fill_random(x, rng, 0.15);
        fill_random(b, rng, 0.3);

        std::vector<float> y_scalar(static_cast<std::size_t>(out_f));
        std::vector<float> y_avx2(static_cast<std::size_t>(out_f));
        nn::kernels::force_backend(nn::kernels::Backend::kScalar);
        nn::kernels::gemm(out_f, in_f, w.data(), x.data(), b.data(),
                          y_scalar.data());
        nn::kernels::force_backend(nn::kernels::Backend::kAvx2);
        nn::kernels::gemm(out_f, in_f, w.data(), x.data(), b.data(),
                          y_avx2.data());
        ASSERT_TRUE(bitwise_equal(y_scalar, y_avx2))
            << "shape " << out_f << "x" << in_f;
    }
}

TEST(KernelsDiff, GemmBackwardScalarVsAvx2Bitwise) {
    if (!avx2_available()) GTEST_SKIP() << "AVX2 unavailable";
    BackendGuard guard;
    util::Rng rng(0x6b9d);
    for (int trial = 0; trial < 60; ++trial) {
        const int out_f = rng.uniform_int(1, 30);
        const int in_f = rng.uniform_int(1, 200);
        std::vector<float> w(static_cast<std::size_t>(out_f) * in_f);
        std::vector<float> x(static_cast<std::size_t>(in_f));
        std::vector<float> gy(static_cast<std::size_t>(out_f));
        fill_random(w, rng, 0.1);
        fill_random(x, rng, 0.2);
        // Plenty of exact zeros: both backends skip rows with go == 0.
        fill_random(gy, rng, 0.4);

        // grad_x is overwritten (distinct garbage seeds prove it); the
        // weight/bias gradients accumulate into equal nonzero seeds.
        std::vector<float> gx_s(static_cast<std::size_t>(in_f), -7.0F);
        std::vector<float> gw_s(w.size(), 0.5F);
        std::vector<float> gb_s(gy.size(), 0.25F);
        std::vector<float> gx_v(static_cast<std::size_t>(in_f), 9.0F);
        std::vector<float> gw_v(w.size(), 0.5F);
        std::vector<float> gb_v(gy.size(), 0.25F);

        nn::kernels::force_backend(nn::kernels::Backend::kScalar);
        nn::kernels::gemm_backward(out_f, in_f, w.data(), x.data(), gy.data(),
                                   gx_s.data(), gw_s.data(), gb_s.data());
        nn::kernels::force_backend(nn::kernels::Backend::kAvx2);
        nn::kernels::gemm_backward(out_f, in_f, w.data(), x.data(), gy.data(),
                                   gx_v.data(), gw_v.data(), gb_v.data());

        ASSERT_TRUE(bitwise_equal(gx_s, gx_v)) << "grad_x, trial " << trial;
        ASSERT_TRUE(bitwise_equal(gw_s, gw_v))
            << "grad_weight, trial " << trial;
        ASSERT_TRUE(bitwise_equal(gb_s, gb_v)) << "grad_bias, trial " << trial;
    }
}

/// The backends available on this host, scalar first.
std::vector<nn::kernels::Backend> available_backends() {
    std::vector<nn::kernels::Backend> out = {nn::kernels::Backend::kScalar};
    if (avx2_available()) out.push_back(nn::kernels::Backend::kAvx2);
    return out;
}

/// The batched shapes: every batch x in x out of the search's MLP layers
/// (and batch 1), covering full, partial and single-lane vector blocks;
/// in 72 adds a second 64-column block to the backward's row reduction.
template <class Fn>
void for_each_batched_shape(Fn&& fn) {
    for (const int batch : {1, 3, 64}) {
        for (const int in_f : {12, 14, 64, 72}) {
            for (const int out_f : {1, 2, 64}) fn(batch, in_f, out_f);
        }
    }
}

/// gemm_batch equals gemm applied row by row, bitwise, under every backend.
TEST(KernelsDiff, GemmBatchMatchesPerSampleGemmOnEveryBackend) {
    BackendGuard guard;
    util::Rng rng(0xba7c4);
    for_each_batched_shape([&](int batch, int in_f, int out_f) {
        std::vector<float> w(static_cast<std::size_t>(out_f) * in_f);
        std::vector<float> x(static_cast<std::size_t>(batch) * in_f);
        std::vector<float> b(static_cast<std::size_t>(out_f));
        fill_random(w, rng, 0.15);
        fill_random(x, rng, 0.15);
        fill_random(b, rng, 0.3);
        std::vector<float> reference;
        for (const auto backend : available_backends()) {
            nn::kernels::force_backend(backend);
            std::vector<float> batched(static_cast<std::size_t>(batch) *
                                       out_f);
            nn::kernels::gemm_batch(batch, out_f, in_f, w.data(), x.data(),
                                    b.data(), batched.data());
            std::vector<float> rows(batched.size());
            for (int s = 0; s < batch; ++s) {
                nn::kernels::gemm(out_f, in_f, w.data(),
                                  x.data() + static_cast<std::size_t>(s) * in_f,
                                  b.data(),
                                  rows.data() +
                                      static_cast<std::size_t>(s) * out_f);
            }
            if (reference.empty()) reference = rows;
            ASSERT_TRUE(bitwise_equal(reference, rows));
            ASSERT_TRUE(bitwise_equal(reference, batched))
                << nn::kernels::to_string(backend) << " batch " << batch
                << " in " << in_f << " out " << out_f;
        }
    });
}

/// Checks gemm_batch_backward, for each combination of requested outputs,
/// against gemm_backward applied sample by sample, bitwise, under every
/// backend. A dense gradient has no zeros. A sparse one holds 0.0f and
/// -0.0f; one output row is zero for every sample (its -0.0f
/// grad_weight/grad_bias seeds must survive), and one sample's gradient
/// row is all zeros while its x holds inf and NaN: the zero skip must keep
/// both out of grad_weight and grad_x, and for those rows the AVX2
/// backend's list of nonzero coefficients is empty. It also holds NaN,
/// +inf and -inf coefficients, which the skip must keep. Each sits in its
/// own sample and output row, so no accumulator meets two NaNs, whose
/// payload would depend on the compiler's operand order.
void check_gemm_batch_backward(int batch, int in_f, int out_f, bool dense,
                               util::Rng& rng) {
    const auto in = static_cast<std::size_t>(in_f);
    const auto out = static_cast<std::size_t>(out_f);
    std::vector<float> w(out * in);
    std::vector<float> x(static_cast<std::size_t>(batch) * in);
    std::vector<float> gy(static_cast<std::size_t>(batch) * out);
    fill_random(w, rng, 0.1);
    fill_random(x, rng, 0.2);
    fill_random(gy, rng, dense ? 0.0 : 0.4);
    const std::size_t dead_row = out - 1;
    if (!dense) {
        for (std::size_t i = 0; i < gy.size(); i += 5) gy[i] = -0.0F;
        for (int s = 0; s < batch; ++s) {
            gy[static_cast<std::size_t>(s) * out + dead_row] = -0.0F;
        }
        std::size_t live_samples = 1;
        if (batch > 1) {
            const std::size_t dead = static_cast<std::size_t>(batch) - 1;
            for (std::size_t r = 0; r < out; ++r) {
                gy[dead * out + r] = r % 2 == 0 ? 0.0F : -0.0F;
            }
            x[dead * in] = std::numeric_limits<float>::infinity();
            x[dead * in + in - 1] = std::numeric_limits<float>::quiet_NaN();
            live_samples = dead;
        }
        const float non_finite[] = {std::numeric_limits<float>::quiet_NaN(),
                                    std::numeric_limits<float>::infinity(),
                                    -std::numeric_limits<float>::infinity()};
        for (std::size_t k = 0; k < 3 && k < live_samples && k < dead_row;
             ++k) {
            gy[k * out + k] = non_finite[k];
        }
    }
    std::vector<float> gw_seed(w.size(), 0.5F);
    std::vector<float> gb_seed(out, 0.25F);
    for (std::size_t c = 0; c < in; ++c) gw_seed[dead_row * in + c] = -0.0F;
    gb_seed[dead_row] = -0.0F;

    // The reference: the single-sample backward, every output.
    nn::kernels::force_backend(nn::kernels::Backend::kScalar);
    std::vector<float> gx_ref(x.size());
    std::vector<float> gw_ref = gw_seed;
    std::vector<float> gb_ref = gb_seed;
    for (int s = 0; s < batch; ++s) {
        const std::size_t xs = static_cast<std::size_t>(s) * in;
        nn::kernels::gemm_backward(
            out_f, in_f, w.data(), x.data() + xs,
            gy.data() + static_cast<std::size_t>(s) * out, gx_ref.data() + xs,
            gw_ref.data(), gb_ref.data());
    }
    if (!dense) {
        ASSERT_EQ(float_bits(gw_ref[dead_row * in]), float_bits(-0.0F));
    }

    const std::string shape = std::string(dense ? "dense" : "sparse") +
                              " batch " + std::to_string(batch) + " in " +
                              std::to_string(in_f) + " out " +
                              std::to_string(out_f);
    for (const auto backend : available_backends()) {
        nn::kernels::force_backend(backend);
        const std::string where =
            std::string(nn::kernels::to_string(backend)) + " " + shape;
        for (const bool want_x : {true, false}) {
            for (const bool want_params : {true, false}) {
                if (!want_x && !want_params) continue;
                std::vector<float> gx(x.size(), -7.0F);
                std::vector<float> gw = gw_seed;
                std::vector<float> gb = gb_seed;
                nn::kernels::gemm_batch_backward(
                    batch, out_f, in_f, w.data(), x.data(), gy.data(),
                    want_x ? gx.data() : nullptr,
                    want_params ? gw.data() : nullptr,
                    want_params ? gb.data() : nullptr);
                if (want_x) {
                    ASSERT_TRUE(bitwise_equal(gx_ref, gx))
                        << "grad_x, " << where;
                } else {
                    EXPECT_EQ(gx, std::vector<float>(x.size(), -7.0F));
                }
                ASSERT_TRUE(
                    bitwise_equal(want_params ? gw_ref : gw_seed, gw))
                    << "grad_weight, " << where;
                ASSERT_TRUE(
                    bitwise_equal(want_params ? gb_ref : gb_seed, gb))
                    << "grad_bias, " << where;
            }
        }
    }
}

TEST(KernelsDiff, GemmBatchBackwardMatchesPerSampleBackwardOnEveryBackend) {
    BackendGuard guard;
    util::Rng rng(0xbac4);
    for_each_batched_shape([&](int batch, int in_f, int out_f) {
        for (const bool dense : {false, true}) {
            ASSERT_NO_FATAL_FAILURE(
                check_gemm_batch_backward(batch, in_f, out_f, dense, rng));
        }
    });
}

/// adam_update is bitwise identical under both backends, over lengths that
/// cover the 8-lane body and its tail.
TEST(KernelsDiff, AdamUpdateScalarVsAvx2Bitwise) {
    if (!avx2_available()) GTEST_SKIP() << "AVX2 unavailable";
    BackendGuard guard;
    util::Rng rng(0xada);
    nn::kernels::AdamStep step;
    step.lr = 1e-3F;
    step.beta1 = 0.9F;
    step.beta2 = 0.999F;
    step.eps = 1e-8F;
    step.bias_correction1 = 1.0F - 0.9F * 0.9F;
    step.bias_correction2 = 1.0F - 0.999F * 0.999F;
    step.grad_scale = 1.0F / 64.0F;
    for (const int n : {1, 7, 8, 13, 64, 4160}) {
        std::vector<float> g(static_cast<std::size_t>(n));
        std::vector<float> p(g.size());
        std::vector<float> m(g.size());
        std::vector<float> v(g.size());
        fill_random(g, rng, 0.2);
        fill_random(p, rng, 0.1);
        fill_random(m, rng, 0.1);
        for (float& e : v) e = static_cast<float>(rng.uniform(0.0, 2.0));
        std::vector<float> out[2];
        for (const auto backend :
             {nn::kernels::Backend::kScalar, nn::kernels::Backend::kAvx2}) {
            nn::kernels::force_backend(backend);
            std::vector<float> pb = p;
            std::vector<float> mb = m;
            std::vector<float> vb = v;
            nn::kernels::adam_update(n, step, pb.data(), g.data(), mb.data(),
                                     vb.data());
            std::vector<float>& o = out[static_cast<int>(backend)];
            o = pb;
            o.insert(o.end(), mb.begin(), mb.end());
            o.insert(o.end(), vb.begin(), vb.end());
        }
        ASSERT_TRUE(bitwise_equal(out[0], out[1])) << "n " << n;
    }
}

TEST(KernelsDiff, BiasActScalarVsAvx2Bitwise) {
    if (!avx2_available()) GTEST_SKIP() << "AVX2 unavailable";
    BackendGuard guard;
    util::Rng rng(0xb1a5);
    for (int trial = 0; trial < 40; ++trial) {
        const int n = rng.uniform_int(1, 200);
        std::vector<float> x(static_cast<std::size_t>(n));
        fill_random(x, rng, 0.3);
        const float bias =
            rng.uniform(0.0, 1.0) < 0.5 ? 0.0F
                                        : static_cast<float>(rng.normal());
        for (const auto act :
             {nn::kernels::Act::kIdentity, nn::kernels::Act::kRelu}) {
            std::vector<float> y_s(x.size());
            std::vector<float> y_v(x.size());
            nn::kernels::force_backend(nn::kernels::Backend::kScalar);
            nn::kernels::bias_act(n, x.data(), bias, act, y_s.data());
            nn::kernels::force_backend(nn::kernels::Backend::kAvx2);
            nn::kernels::bias_act(n, x.data(), bias, act, y_v.data());
            ASSERT_TRUE(bitwise_equal(y_s, y_v)) << "trial " << trial;
        }
    }
}

/// Transplant proof: under forced-scalar dispatch the Conv2d layer matches a
/// from-first-principles reimplementation of the historical loop bit for bit
/// (same tap order, same out-of-range skips).
TEST(KernelsDiff, Conv2dLayerScalarMatchesHistoricalLoopBitwise) {
    BackendGuard guard;
    nn::kernels::force_backend(nn::kernels::Backend::kScalar);
    util::Rng rng(0x11a7e6);
    for (int trial = 0; trial < 10; ++trial) {
        const int in_c = rng.uniform_int(1, 4);
        const int out_c = rng.uniform_int(1, 4);
        const int kernel = 3;
        const int padding = rng.uniform_int(0, 1);
        const int h = rng.uniform_int(4, 10);
        const int w = rng.uniform_int(4, 10);
        util::Rng init(static_cast<std::uint64_t>(trial) + 77);
        nn::Conv2d conv(in_c, out_c, kernel, padding, "c", init);

        nn::Tensor x({in_c, h, w});
        for (std::int64_t i = 0; i < x.numel(); ++i) {
            x[i] = static_cast<float>(rng.normal());
        }
        const nn::Tensor got = conv.forward(x);

        const int oh = h + 2 * padding - kernel + 1;
        const int ow = w + 2 * padding - kernel + 1;
        for (int oc = 0; oc < out_c; ++oc) {
            for (int oy = 0; oy < oh; ++oy) {
                for (int ox = 0; ox < ow; ++ox) {
                    float acc = conv.bias()[oc];
                    for (int ic = 0; ic < in_c; ++ic) {
                        for (int ky = 0; ky < kernel; ++ky) {
                            const int iy = oy + ky - padding;
                            if (iy < 0 || iy >= h) continue;
                            for (int kx = 0; kx < kernel; ++kx) {
                                const int ix = ox + kx - padding;
                                if (ix < 0 || ix >= w) continue;
                                acc += conv.weight().at(oc, ic, ky, kx) *
                                       x.at(ic, iy, ix);
                            }
                        }
                    }
                    ASSERT_EQ(float_bits(got.at(oc, oy, ox)), float_bits(acc))
                        << "trial " << trial << " (" << oc << "," << oy << ","
                        << ox << ")";
                }
            }
        }
    }
}

/// Same transplant proof for Linear under forced-scalar dispatch.
TEST(KernelsDiff, LinearLayerScalarMatchesHistoricalLoopBitwise) {
    BackendGuard guard;
    nn::kernels::force_backend(nn::kernels::Backend::kScalar);
    util::Rng rng(0x11fea5);
    for (int trial = 0; trial < 10; ++trial) {
        const int in_f = rng.uniform_int(1, 64);
        const int out_f = rng.uniform_int(1, 16);
        util::Rng init(static_cast<std::uint64_t>(trial) + 99);
        nn::Linear fc(in_f, out_f, "fc", init);
        nn::Tensor x({in_f});
        for (std::int64_t i = 0; i < x.numel(); ++i) {
            x[i] = static_cast<float>(rng.normal());
        }
        const nn::Tensor got = fc.forward(x);
        for (int r = 0; r < out_f; ++r) {
            float acc = fc.bias()[r];
            for (int c = 0; c < in_f; ++c) acc += fc.weight().at2(r, c) * x[c];
            ASSERT_EQ(float_bits(got[r]), float_bits(acc))
                << "trial " << trial << " row " << r;
        }
    }
}

/// Layer-level agreement: a full forward/backward through Conv2d is
/// bitwise identical under both backends.
TEST(KernelsDiff, Conv2dLayerForwardBackwardAcrossBackends) {
    if (!avx2_available()) GTEST_SKIP() << "AVX2 unavailable";
    BackendGuard guard;
    std::vector<float> results[2];
    for (const auto backend :
         {nn::kernels::Backend::kScalar, nn::kernels::Backend::kAvx2}) {
        nn::kernels::force_backend(backend);
        util::Rng init(123);
        nn::Conv2d conv(3, 5, 3, 1, "c", init);
        nn::Tensor x({3, 9, 11});
        util::Rng xr(456);
        for (std::int64_t i = 0; i < x.numel(); ++i) {
            x[i] = static_cast<float>(xr.normal());
        }
        const nn::Tensor y = conv.forward(x);
        nn::Tensor g(y.shape());
        util::Rng gr(789);
        for (std::int64_t i = 0; i < g.numel(); ++i) {
            g[i] = gr.uniform(0.0, 1.0) < 0.4
                       ? 0.0F
                       : static_cast<float>(gr.normal());
        }
        const nn::Tensor gin = conv.backward(g);
        std::vector<float>& out = results[static_cast<int>(backend)];
        out.assign(y.data(), y.data() + y.numel());
        out.insert(out.end(), gin.data(), gin.data() + gin.numel());
    }
    EXPECT_TRUE(bitwise_equal(results[0], results[1]));
}

/// End to end through the search's hot path: a DDPG agent shaped like the
/// compression search's quantization agent (12-dim state, 2 actions, 64x64
/// actor and critic, full replay buffer) trains to bitwise-identical
/// parameters under both backends. The search loop amplifies any rounding
/// difference into a different policy, so this is the guarantee that the
/// searched Fig. 4 policy does not depend on the host CPU.
TEST(KernelsDiff, DdpgTrainStepScalarVsAvx2Bitwise) {
    if (!avx2_available()) GTEST_SKIP() << "AVX2 unavailable";
    BackendGuard guard;
    rl::DdpgConfig cfg;
    cfg.state_dim = 12;
    cfg.action_dim = 2;
    std::vector<float> params[2];
    for (const auto backend :
         {nn::kernels::Backend::kScalar, nn::kernels::Backend::kAvx2}) {
        nn::kernels::force_backend(backend);
        rl::DdpgAgent agent(cfg);
        util::Rng rng(0xdd96);
        for (std::size_t i = 0; i < cfg.replay_capacity; ++i) {
            rl::Transition t;
            t.state.resize(12);
            t.next_state.resize(12);
            t.action.resize(2);
            fill_random(t.state, rng, 0.1);
            fill_random(t.next_state, rng, 0.1);
            for (float& a : t.action) a = static_cast<float>(rng.uniform());
            t.reward = static_cast<float>(rng.normal());
            agent.remember(std::move(t));
        }
        for (int step = 0; step < 20; ++step) agent.train_step();
        std::vector<float>& out = params[static_cast<int>(backend)];
        for (const nn::Tensor* p : agent.parameters()) {
            out.insert(out.end(), p->data(), p->data() + p->numel());
        }
    }
    EXPECT_TRUE(bitwise_equal(params[0], params[1]));
}

/// FNV-1a over the bit patterns of every DdpgAgent::parameters() value.
std::uint64_t parameter_hash(rl::DdpgAgent& agent) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const nn::Tensor* p : agent.parameters()) {
        for (std::int64_t i = 0; i < p->numel(); ++i) {
            const std::uint32_t bits = float_bits(p->data()[i]);
            for (int byte = 0; byte < 4; ++byte) {
                h ^= (bits >> (8 * byte)) & 0xffU;
                h *= 0x100000001b3ULL;
            }
        }
    }
    return h;
}

/// Parameter hash of a search-shaped agent (12-dim state, 64x64 actor and
/// critic, batch 64) after 20 train_steps on a seeded replay buffer. With
/// `terminal_every` > 0 every that-many-th transition is terminal.
std::uint64_t trained_parameter_hash(int action_dim, float gamma,
                                     int terminal_every) {
    rl::DdpgConfig cfg;
    cfg.state_dim = 12;
    cfg.action_dim = action_dim;
    cfg.gamma = gamma;
    rl::DdpgAgent agent(cfg);
    util::Rng rng(0x9a17);
    for (int i = 0; i < 512; ++i) {
        rl::Transition t;
        t.state.resize(12);
        t.next_state.resize(12);
        t.action.resize(static_cast<std::size_t>(action_dim));
        fill_random(t.state, rng, 0.1);
        fill_random(t.next_state, rng, 0.1);
        for (float& a : t.action) a = static_cast<float>(rng.uniform());
        t.reward = static_cast<float>(rng.normal());
        t.terminal = terminal_every > 0 && i % terminal_every == 0;
        agent.remember(std::move(t));
    }
    for (int step = 0; step < 20; ++step) agent.train_step();
    return parameter_hash(agent);
}

/// train_step pinned to the bits of the per-sample minibatch loop it
/// replaced: hashes captured from that loop, checked under every available
/// backend. Covers the prune agent (1 action), the quantization agent (2
/// actions) and the bootstrapped gamma > 0 target path with terminals.
TEST(KernelsDiff, DdpgTrainStepReproducesPinnedParameterHashes) {
    BackendGuard guard;
    struct Case {
        int action_dim;
        float gamma;
        int terminal_every;
        std::uint64_t expected;
    };
    const Case cases[] = {
        {1, 0.0F, 0, 0xa040a89e767ddd16ULL},
        {2, 0.0F, 0, 0x2439e6fba9613d92ULL},
        {2, 0.9F, 4, 0x8613210b4edcbd55ULL},
    };
    for (const auto backend : available_backends()) {
        nn::kernels::force_backend(backend);
        for (const Case& c : cases) {
            const std::uint64_t got =
                trained_parameter_hash(c.action_dim, c.gamma, c.terminal_every);
            EXPECT_EQ(got, c.expected)
                << nn::kernels::to_string(backend) << " action_dim "
                << c.action_dim << " gamma " << c.gamma;
        }
    }
}

}  // namespace
