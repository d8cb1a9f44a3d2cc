/**
 * @file
 * Activation tests: known values, the float kernel's ulp bound
 * against libm over dense sweeps and its exact special values,
 * derivative identities, and the piecewise-linear hardware
 * approximation (error bounds, saturation, monotone improvement with
 * segment count).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "nn/activation.hh"

using namespace ernn;
using namespace ernn::nn;

namespace
{

/** The libm logistic function the float kernel is measured against. */
Real
libmSigmoid(Real x)
{
    if (x >= 0)
        return 1.0 / (1.0 + std::exp(-x));
    const Real z = std::exp(x);
    return z / (1.0 + z);
}

/** |got - want| in units of the last place of @p want. */
Real
ulpError(Real got, Real want)
{
    if (got == want)
        return 0.0;
    const Real a = std::abs(want);
    const Real ulp =
        std::nextafter(a, std::numeric_limits<Real>::infinity()) - a;
    return std::abs(got - want) / ulp;
}

/** Worst ulp error of the vector kernel against libm over the @p n
 *  points x_i = point(i), run in bounded chunks. */
template <typename Point>
void
sweepUlp(std::size_t n, Point point, Real &worstSig, Real &worstTanh)
{
    constexpr std::size_t kChunk = 1 << 16;
    Vector xs, sig, th;
    for (std::size_t i0 = 0; i0 < n; i0 += kChunk) {
        const std::size_t m = std::min(kChunk, n - i0);
        xs.resize(m);
        for (std::size_t i = 0; i < m; ++i)
            xs[i] = point(i0 + i);
        sig = xs;
        th = xs;
        applyActivation(ActKind::Sigmoid, sig);
        applyActivation(ActKind::Tanh, th);
        for (std::size_t i = 0; i < m; ++i) {
            worstSig = std::max(worstSig,
                                ulpError(sig[i], libmSigmoid(xs[i])));
            worstTanh = std::max(worstTanh,
                                 ulpError(th[i], std::tanh(xs[i])));
        }
    }
}

bool
sameBits(Real a, Real b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

} // namespace

TEST(Activation, SigmoidKnownValues)
{
    EXPECT_DOUBLE_EQ(sigmoid(0.0), 0.5);
    EXPECT_NEAR(sigmoid(100.0), 1.0, 1e-12);
    EXPECT_NEAR(sigmoid(-100.0), 0.0, 1e-12);
    EXPECT_NEAR(sigmoid(1.0), 1.0 / (1.0 + std::exp(-1.0)), 1e-15);
    // Symmetry: sigma(-x) = 1 - sigma(x).
    for (Real x : {0.3, 1.7, 4.2})
        EXPECT_NEAR(sigmoid(-x), 1.0 - sigmoid(x), 1e-15);
}

TEST(Activation, TanhMatchesStd)
{
    for (Real x : {-3.0, -0.5, 0.0, 0.5, 3.0})
        EXPECT_DOUBLE_EQ(tanhAct(x), std::tanh(x));
}

TEST(Activation, WithinFourUlpOfLibmOnDenseSweep)
{
    // 8M + 1 evenly spaced points over [-40, 40]: both saturation
    // tails, the Cody–Waite boundaries of the exp reduction and the
    // tanh branch point at |x| = 0.625.
    const std::size_t n = (std::size_t{1} << 23) + 1;
    Real worstSig = 0.0, worstTanh = 0.0;
    sweepUlp(
        n,
        [n](std::size_t i) {
            return -40.0 + 80.0 * static_cast<Real>(i) /
                               static_cast<Real>(n - 1);
        },
        worstSig, worstTanh);
    EXPECT_LE(worstSig, 4.0);
    EXPECT_LE(worstTanh, 4.0);
}

TEST(Activation, TanhKeepsRelativeAccuracyNearZero)
{
    // Log-spaced over [1e-300, 1): a 1 - 2/(e^2x + 1) form would
    // cancel to nothing here; the kernel's a - a u C(u) / A(u) form
    // keeps every significant bit.
    const std::size_t n = std::size_t{1} << 20;
    Real worstSig = 0.0, worstTanh = 0.0;
    sweepUlp(
        n,
        [n](std::size_t i) {
            return std::pow(10.0, -300.0 + 300.0 *
                                               static_cast<Real>(i) /
                                               static_cast<Real>(n));
        },
        worstSig, worstTanh);
    EXPECT_LE(worstSig, 4.0);
    EXPECT_LE(worstTanh, 4.0);
}

TEST(Activation, ExactSpecialValues)
{
    const Real inf = std::numeric_limits<Real>::infinity();
    const Real nan = std::numeric_limits<Real>::quiet_NaN();
    EXPECT_EQ(sigmoid(0.0), 0.5);
    EXPECT_EQ(sigmoid(-0.0), 0.5);
    EXPECT_TRUE(sameBits(tanhAct(0.0), 0.0));
    EXPECT_TRUE(sameBits(tanhAct(-0.0), -0.0));
    EXPECT_TRUE(std::isnan(sigmoid(nan)));
    EXPECT_TRUE(std::isnan(tanhAct(nan)));
    EXPECT_EQ(sigmoid(inf), 1.0);
    EXPECT_EQ(sigmoid(-inf), 0.0);
    EXPECT_EQ(tanhAct(inf), 1.0);
    EXPECT_EQ(tanhAct(-inf), -1.0);
    // Far past the clamps: saturated, never NaN or overflow.
    EXPECT_EQ(sigmoid(1e300), 1.0);
    EXPECT_EQ(sigmoid(-1e300), 0.0);
    EXPECT_EQ(tanhAct(1e300), 1.0);
    EXPECT_EQ(tanhAct(-1e300), -1.0);
    // Subnormal tanh inputs come back unchanged, as from libm.
    const Real tiny = std::numeric_limits<Real>::denorm_min() * 12345;
    EXPECT_EQ(tanhAct(tiny), std::tanh(tiny));

    // The vector path agrees on the same special inputs.
    Vector v{0.0, -0.0, nan, inf, -inf, 1e300, -1e300};
    Vector s = v, t = v;
    applyActivation(ActKind::Sigmoid, s);
    applyActivation(ActKind::Tanh, t);
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (std::isnan(v[i])) {
            EXPECT_TRUE(std::isnan(s[i]) && std::isnan(t[i]));
            continue;
        }
        EXPECT_TRUE(sameBits(s[i], sigmoid(v[i]))) << v[i];
        EXPECT_TRUE(sameBits(t[i], tanhAct(v[i]))) << v[i];
    }
}

TEST(Activation, TanhIsOddExactly)
{
    Vector pos(4099), neg(4099);
    for (std::size_t i = 0; i < pos.size(); ++i) {
        pos[i] = 0.01 * static_cast<Real>(i) + 1e-9;
        neg[i] = -pos[i];
    }
    applyActivation(ActKind::Tanh, pos);
    applyActivation(ActKind::Tanh, neg);
    for (std::size_t i = 0; i < pos.size(); ++i)
        ASSERT_TRUE(sameBits(neg[i], -pos[i])) << "i=" << i;
}

TEST(Activation, DerivativeFromOutputIdentity)
{
    const Real h = 1e-6;
    for (Real x : {-2.0, -0.4, 0.0, 0.9, 2.5}) {
        const Real sy = sigmoid(x);
        const Real numeric_s = (sigmoid(x + h) - sigmoid(x - h)) /
                               (2.0 * h);
        EXPECT_NEAR(actDerivFromOutput(ActKind::Sigmoid, sy),
                    numeric_s, 1e-8);

        const Real ty = std::tanh(x);
        const Real numeric_t = (std::tanh(x + h) - std::tanh(x - h)) /
                               (2.0 * h);
        EXPECT_NEAR(actDerivFromOutput(ActKind::Tanh, ty),
                    numeric_t, 1e-8);
    }
}

TEST(Activation, VectorApplication)
{
    Vector v{-1.0, 0.0, 1.0};
    applyActivation(ActKind::Sigmoid, v);
    EXPECT_NEAR(v[1], 0.5, 1e-15);
    EXPECT_NEAR(v[0] + v[2], 1.0, 1e-15);
    const Vector t = activated(ActKind::Tanh, Vector{0.0});
    EXPECT_DOUBLE_EQ(t[0], 0.0);
}

class PwlSegments : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(PwlSegments, ApproximationErrorWithinBound)
{
    const std::size_t segs = GetParam();
    for (ActKind kind : {ActKind::Sigmoid, ActKind::Tanh}) {
        PiecewiseLinear pwl(kind, segs, 8.0);
        // Chord interpolation error of a C2 function on [a,b] is at
        // most max|f''| * (b-a)^2 / 8; |f''| <= 1 for tanh, <= 0.1
        // for sigmoid. Use the tanh bound for both.
        const Real step = 16.0 / static_cast<Real>(segs);
        const Real bound = step * step / 8.0 + 1e-3;
        EXPECT_LE(pwl.maxError(), bound)
            << actName(kind) << " with " << segs << " segments";
    }
}

INSTANTIATE_TEST_SUITE_P(SegmentSweep, PwlSegments,
                         ::testing::Values(8, 16, 32, 64, 128));

TEST(Pwl, ErrorDecreasesMonotonicallyWithSegments)
{
    Real prev = 1e9;
    for (std::size_t segs : {8, 16, 32, 64, 128, 256}) {
        PiecewiseLinear pwl(ActKind::Tanh, segs, 8.0);
        const Real err = pwl.maxError();
        EXPECT_LT(err, prev) << segs << " segments";
        prev = err;
    }
}

TEST(Pwl, SaturatesOutsideRange)
{
    PiecewiseLinear sig(ActKind::Sigmoid, 32, 6.0);
    EXPECT_DOUBLE_EQ(sig.eval(100.0), 1.0);
    EXPECT_DOUBLE_EQ(sig.eval(-100.0), 0.0);
    PiecewiseLinear th(ActKind::Tanh, 32, 6.0);
    EXPECT_DOUBLE_EQ(th.eval(100.0), 1.0);
    EXPECT_DOUBLE_EQ(th.eval(-100.0), -1.0);
}

TEST(Pwl, ExactAtInteriorSegmentEndpoints)
{
    // The extreme endpoints (+-range) saturate by design, so only
    // interior segment boundaries interpolate the exact function.
    PiecewiseLinear pwl(ActKind::Tanh, 16, 4.0);
    for (int s = 1; s < 16; ++s) {
        const Real x = -4.0 + 0.5 * static_cast<Real>(s);
        EXPECT_NEAR(pwl.eval(x), std::tanh(x), 1e-12) << "x=" << x;
    }
}

TEST(Pwl, SixtyFourSegmentsIsHardwareAccurate)
{
    // Phase II uses PWL activations; with 64 segments over [-8, 8]
    // the error is far below the 12-bit quantization step (2^-7).
    PiecewiseLinear sig(ActKind::Sigmoid, 64, 8.0);
    PiecewiseLinear th(ActKind::Tanh, 64, 8.0);
    EXPECT_LT(sig.maxError(), 1.0 / 128.0);
    EXPECT_LT(th.maxError(), 1.0 / 64.0);
}

TEST(Pwl, ApplyMatchesEval)
{
    PiecewiseLinear pwl(ActKind::Sigmoid, 32, 8.0);
    Vector v{-2.0, 0.1, 3.0};
    Vector expect = v;
    for (auto &x : expect)
        x = pwl.eval(x);
    pwl.apply(v);
    EXPECT_EQ(v, expect);
}
