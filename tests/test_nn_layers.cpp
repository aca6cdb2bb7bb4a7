// Tests for tensors and layers, including finite-difference gradient checks
// of every differentiable layer.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/basic_layers.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/tensor.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace {

using namespace imx;
using nn::Tensor;

TEST(TensorTest, ShapeAndNumel) {
    Tensor t({2, 3, 4});
    EXPECT_EQ(t.rank(), 3);
    EXPECT_EQ(t.numel(), 24);
    EXPECT_EQ(t.dim(1), 3);
    for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0F);
}

TEST(TensorTest, AccessorsRoundTrip) {
    Tensor t({2, 3, 4});
    t.at(1, 2, 3) = 7.0F;
    EXPECT_EQ(t.at(1, 2, 3), 7.0F);
    Tensor m({3, 5});
    m.at2(2, 4) = -1.0F;
    EXPECT_EQ(m.at2(2, 4), -1.0F);
    Tensor w({2, 3, 3, 3});
    w.at(1, 2, 0, 1) = 2.5F;
    EXPECT_EQ(w.at(1, 2, 0, 1), 2.5F);
}

TEST(TensorTest, OutOfBoundsThrows) {
    Tensor t({2, 2, 2});
    EXPECT_THROW((void)t.at(2, 0, 0), util::ContractViolation);
    EXPECT_THROW((void)t.at(0, -1, 0), util::ContractViolation);
    EXPECT_THROW((void)t[8], util::ContractViolation);
}

TEST(TensorTest, ReshapePreservesData) {
    Tensor t({2, 3});
    for (std::int64_t i = 0; i < 6; ++i) t[i] = static_cast<float>(i);
    const Tensor r = t.reshaped({6});
    for (std::int64_t i = 0; i < 6; ++i) EXPECT_EQ(r[i], static_cast<float>(i));
    EXPECT_THROW((void)t.reshaped({5}), util::ContractViolation);
}

TEST(TensorTest, AddScaledAndScale) {
    Tensor a = Tensor::full({3}, 1.0F);
    Tensor b = Tensor::full({3}, 2.0F);
    a.add_scaled(b, 0.5F);
    EXPECT_EQ(a[0], 2.0F);
    a.scale(2.0F);
    EXPECT_EQ(a[2], 4.0F);
}

TEST(TensorTest, KaimingBoundsRespectFanIn) {
    util::Rng rng(5);
    const int fan_in = 50;
    const Tensor t = Tensor::kaiming_uniform({10, 50}, fan_in, rng);
    const float bound = std::sqrt(6.0F / fan_in);
    for (std::int64_t i = 0; i < t.numel(); ++i) {
        EXPECT_LE(std::fabs(t[i]), bound);
    }
    EXPECT_GT(t.abs_max(), bound * 0.5F);  // actually spread out
}

// ---------------------------------------------------------------------------
// Finite-difference gradient checking machinery.

/// Numerically check d(sum(forward(x) * w))/dx against layer.backward.
void check_input_gradient(nn::Layer& layer, const Tensor& input,
                          float tolerance = 2e-2F) {
    util::Rng rng(99);
    Tensor out = layer.forward(input);
    Tensor weighting(out.shape());
    for (std::int64_t i = 0; i < weighting.numel(); ++i) {
        weighting[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    const Tensor analytic = layer.backward(weighting);

    const float eps = 1e-2F;
    Tensor x = input;
    for (std::int64_t i = 0; i < x.numel(); ++i) {
        const float saved = x[i];
        x[i] = saved + eps;
        Tensor up = layer.forward(x);
        x[i] = saved - eps;
        Tensor down = layer.forward(x);
        x[i] = saved;
        double num = 0.0;
        for (std::int64_t j = 0; j < up.numel(); ++j) {
            num += static_cast<double>(weighting[j]) * (up[j] - down[j]);
        }
        num /= 2.0 * eps;
        EXPECT_NEAR(analytic[i], num, tolerance)
            << "input grad mismatch at flat index " << i;
    }
}

/// Numerically check parameter gradients of a layer.
void check_param_gradients(nn::Layer& layer, const Tensor& input,
                           float tolerance = 2e-2F) {
    util::Rng rng(17);
    Tensor out = layer.forward(input);
    Tensor weighting(out.shape());
    for (std::int64_t i = 0; i < weighting.numel(); ++i) {
        weighting[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    layer.zero_grad();
    (void)layer.backward(weighting);

    const auto params = layer.parameters();
    const auto grads = layer.gradients();
    ASSERT_EQ(params.size(), grads.size());
    const float eps = 1e-2F;
    for (std::size_t p = 0; p < params.size(); ++p) {
        Tensor& param = *params[p];
        for (std::int64_t i = 0; i < param.numel(); ++i) {
            const float saved = param[i];
            param[i] = saved + eps;
            Tensor up = layer.forward(input);
            param[i] = saved - eps;
            Tensor down = layer.forward(input);
            param[i] = saved;
            double num = 0.0;
            for (std::int64_t j = 0; j < up.numel(); ++j) {
                num += static_cast<double>(weighting[j]) * (up[j] - down[j]);
            }
            num /= 2.0 * eps;
            EXPECT_NEAR((*grads[p])[i], num, tolerance)
                << "param " << p << " grad mismatch at index " << i;
        }
    }
}

Tensor random_tensor(nn::Shape shape, std::uint64_t seed, float lo = -1.0F,
                     float hi = 1.0F) {
    util::Rng rng(seed);
    Tensor t(std::move(shape));
    for (std::int64_t i = 0; i < t.numel(); ++i) {
        t[i] = static_cast<float>(rng.uniform(lo, hi));
    }
    return t;
}

// ---------------------------------------------------------------------------

TEST(Conv2dTest, KnownValueSingleChannel) {
    util::Rng rng(1);
    nn::Conv2d conv(1, 1, 2, 0, "c", rng);
    // weight = [[1, 2], [3, 4]], bias = 0.5
    conv.weight().at(0, 0, 0, 0) = 1.0F;
    conv.weight().at(0, 0, 0, 1) = 2.0F;
    conv.weight().at(0, 0, 1, 0) = 3.0F;
    conv.weight().at(0, 0, 1, 1) = 4.0F;
    conv.bias()[0] = 0.5F;
    Tensor x({1, 2, 2});
    x.at(0, 0, 0) = 1.0F;
    x.at(0, 0, 1) = 2.0F;
    x.at(0, 1, 0) = 3.0F;
    x.at(0, 1, 1) = 4.0F;
    const Tensor y = conv.forward(x);
    ASSERT_EQ(y.shape(), (nn::Shape{1, 1, 1}));
    EXPECT_NEAR(y[0], 1 + 4 + 9 + 16 + 0.5, 1e-5);
}

TEST(Conv2dTest, OutputShapeWithPadding) {
    util::Rng rng(2);
    nn::Conv2d conv(3, 8, 5, 2, "c", rng);
    EXPECT_EQ(conv.output_shape({3, 14, 14}), (nn::Shape{8, 14, 14}));
    EXPECT_EQ(conv.macs({3, 14, 14}), 8LL * 14 * 14 * 3 * 25);
    EXPECT_EQ(conv.param_count(), 8LL * 3 * 25 + 8);
}

TEST(Conv2dTest, GradientCheckNoPadding) {
    util::Rng rng(3);
    nn::Conv2d conv(2, 3, 3, 0, "c", rng);
    const Tensor x = random_tensor({2, 5, 5}, 10);
    check_input_gradient(conv, x);
    check_param_gradients(conv, x);
}

TEST(Conv2dTest, GradientCheckWithPadding) {
    util::Rng rng(4);
    nn::Conv2d conv(2, 2, 3, 1, "c", rng);
    const Tensor x = random_tensor({2, 4, 4}, 11);
    check_input_gradient(conv, x);
    check_param_gradients(conv, x);
}

TEST(Conv2dTest, ImportanceMatchesManualL1) {
    util::Rng rng(5);
    nn::Conv2d conv(2, 2, 1, 0, "c", rng);
    conv.weight().at(0, 0, 0, 0) = 1.0F;
    conv.weight().at(0, 1, 0, 0) = -2.0F;
    conv.weight().at(1, 0, 0, 0) = 3.0F;
    conv.weight().at(1, 1, 0, 0) = -4.0F;
    const auto imp = conv.input_channel_importance();
    EXPECT_NEAR(imp[0], 4.0, 1e-9);
    EXPECT_NEAR(imp[1], 6.0, 1e-9);
}

TEST(Conv2dTest, PruneInputChannelsShrinksWeights) {
    util::Rng rng(6);
    nn::Conv2d conv(4, 3, 3, 1, "c", rng);
    const float w_kept = conv.weight().at(1, 2, 0, 0);
    conv.prune_input_channels({0, 2});
    EXPECT_EQ(conv.in_channels(), 2);
    EXPECT_EQ(conv.weight().shape(), (nn::Shape{3, 2, 3, 3}));
    EXPECT_EQ(conv.weight().at(1, 1, 0, 0), w_kept);
    const Tensor x = random_tensor({2, 4, 4}, 12);
    EXPECT_NO_THROW(conv.forward(x));
}

TEST(Conv2dTest, PruneOutputChannelsShrinksBias) {
    util::Rng rng(7);
    nn::Conv2d conv(2, 4, 3, 1, "c", rng);
    conv.bias()[3] = 9.0F;
    conv.prune_output_channels({1, 3});
    EXPECT_EQ(conv.out_channels(), 2);
    EXPECT_EQ(conv.bias()[1], 9.0F);
}

TEST(Conv2dTest, PruneRejectsBadKeepLists) {
    util::Rng rng(8);
    nn::Conv2d conv(4, 4, 3, 1, "c", rng);
    EXPECT_THROW(conv.prune_input_channels({}), util::ContractViolation);
    EXPECT_THROW(conv.prune_input_channels({2, 1}), util::ContractViolation);
    EXPECT_THROW(conv.prune_input_channels({0, 0}), util::ContractViolation);
    EXPECT_THROW(conv.prune_input_channels({0, 4}), util::ContractViolation);
}

TEST(LinearTest, KnownValue) {
    util::Rng rng(9);
    nn::Linear fc(2, 2, "fc", rng);
    fc.weight().at2(0, 0) = 1.0F;
    fc.weight().at2(0, 1) = 2.0F;
    fc.weight().at2(1, 0) = -1.0F;
    fc.weight().at2(1, 1) = 0.5F;
    fc.bias()[0] = 0.1F;
    fc.bias()[1] = -0.1F;
    Tensor x({2}, {3.0F, 4.0F});
    const Tensor y = fc.forward(x);
    EXPECT_NEAR(y[0], 3 + 8 + 0.1, 1e-5);
    EXPECT_NEAR(y[1], -3 + 2 - 0.1, 1e-5);
}

TEST(LinearTest, GradientCheck) {
    util::Rng rng(10);
    nn::Linear fc(5, 4, "fc", rng);
    const Tensor x = random_tensor({5}, 13);
    check_input_gradient(fc, x);
    check_param_gradients(fc, x);
}

TEST(LinearTest, PruneInputsAndOutputs) {
    util::Rng rng(11);
    nn::Linear fc(6, 4, "fc", rng);
    fc.prune_inputs({0, 1, 5});
    EXPECT_EQ(fc.in_features(), 3);
    fc.prune_outputs({2, 3});
    EXPECT_EQ(fc.out_features(), 2);
    const Tensor x = random_tensor({3}, 14);
    EXPECT_EQ(fc.forward(x).numel(), 2);
}

TEST(ReluTest, MasksNegativesAndRoutesGradient) {
    nn::Relu relu;
    Tensor x({4}, {-1.0F, 2.0F, 0.0F, 3.0F});
    const Tensor y = relu.forward(x);
    EXPECT_EQ(y[0], 0.0F);
    EXPECT_EQ(y[1], 2.0F);
    EXPECT_EQ(y[2], 0.0F);
    Tensor g({4}, {1.0F, 1.0F, 1.0F, 1.0F});
    const Tensor gx = relu.backward(g);
    EXPECT_EQ(gx[0], 0.0F);
    EXPECT_EQ(gx[1], 1.0F);
    EXPECT_EQ(gx[2], 0.0F);
    EXPECT_EQ(gx[3], 1.0F);
}

TEST(MaxPoolTest, SelectsMaxAndRoutesGradient) {
    nn::MaxPool2d pool(2);
    Tensor x({1, 2, 4}, {1.0F, 5.0F, 2.0F, 0.0F,  //
                          3.0F, 4.0F, 8.0F, 7.0F});
    const Tensor y = pool.forward(x);
    ASSERT_EQ(y.shape(), (nn::Shape{1, 1, 2}));
    EXPECT_EQ(y[0], 5.0F);
    EXPECT_EQ(y[1], 8.0F);
    Tensor g({1, 1, 2}, {1.0F, 2.0F});
    const Tensor gx = pool.backward(g);
    EXPECT_EQ(gx.at(0, 0, 1), 1.0F);  // argmax of first window
    EXPECT_EQ(gx.at(0, 1, 2), 2.0F);  // argmax of second window
    EXPECT_EQ(gx.at(0, 0, 0), 0.0F);
}

TEST(MaxPoolTest, FloorsOddDimensions) {
    nn::MaxPool2d pool(2);
    EXPECT_EQ(pool.output_shape({3, 7, 7}), (nn::Shape{3, 3, 3}));
}

TEST(FlattenTest, RoundTrip) {
    nn::Flatten flatten;
    const Tensor x = random_tensor({2, 3, 4}, 15);
    const Tensor y = flatten.forward(x);
    EXPECT_EQ(y.shape(), (nn::Shape{24}));
    const Tensor gx = flatten.backward(y);
    EXPECT_EQ(gx.shape(), x.shape());
    EXPECT_EQ(gx[5], x[5]);
}

TEST(LayerTest, CloneIsDeepCopy) {
    util::Rng rng(20);
    nn::Conv2d conv(2, 2, 3, 1, "orig", rng);
    auto copy = conv.clone();
    auto* conv_copy = dynamic_cast<nn::Conv2d*>(copy.get());
    ASSERT_NE(conv_copy, nullptr);
    conv_copy->weight().fill(0.0F);
    EXPECT_GT(conv.weight().abs_max(), 0.0F);  // original untouched
    EXPECT_EQ(copy->name(), "orig");
}

}  // namespace
