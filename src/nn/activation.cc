#include "nn/activation.hh"

#include <cmath>

#include "base/logging.hh"
#include "tensor/simd.hh"

namespace ernn::nn
{

namespace
{

// The libm reference the PWL tables interpolate. Table construction
// stays on it, so the fixed-point datapath (whose LUTs and artifacts
// are rebuilt from these tables) keeps its bits whatever the float
// activation kernel does.

Real
libmSigmoid(Real x)
{
    if (x >= 0) {
        const Real z = std::exp(-x);
        return 1.0 / (1.0 + z);
    }
    const Real z = std::exp(x);
    return z / (1.0 + z);
}

Real
libmAct(ActKind kind, Real x)
{
    return kind == ActKind::Sigmoid ? libmSigmoid(x) : std::tanh(x);
}

} // namespace

std::string
actName(ActKind kind)
{
    return kind == ActKind::Sigmoid ? "sigmoid" : "tanh";
}

Real
sigmoid(Real x)
{
    simd::sigmoidF64Scalar(&x, 1);
    return x;
}

Real
tanhAct(Real x)
{
    simd::tanhF64Scalar(&x, 1);
    return x;
}

void
applyActivation(ActKind kind, Vector &v)
{
    applyActivation(kind, v.data(), v.size());
}

void
applyActivation(ActKind kind, Real *v, std::size_t n)
{
    const simd::ActivationF64Fn fn = kind == ActKind::Sigmoid
                                         ? simd::sigmoidF64Fn()
                                         : simd::tanhF64Fn();
    fn(v, n);
}

Vector
activated(ActKind kind, const Vector &v)
{
    Vector out = v;
    applyActivation(kind, out);
    return out;
}

Real
actDerivFromOutput(ActKind kind, Real y)
{
    if (kind == ActKind::Sigmoid)
        return y * (1.0 - y);
    return 1.0 - y * y;
}

PiecewiseLinear::PiecewiseLinear(ActKind kind, std::size_t segments,
                                 Real range)
    : kind_(kind), range_(range)
{
    ernn_assert(segments >= 2, "PWL needs at least two segments");
    ernn_assert(range > 0, "PWL range must be positive");
    lo_ = -range;
    step_ = 2.0 * range / static_cast<Real>(segments);
    satLo_ = kind == ActKind::Sigmoid ? 0.0 : -1.0;
    satHi_ = 1.0;

    slopes_.resize(segments);
    intercepts_.resize(segments);
    for (std::size_t s = 0; s < segments; ++s) {
        const Real x0 = lo_ + step_ * static_cast<Real>(s);
        const Real x1 = x0 + step_;
        const Real y0 = libmAct(kind, x0);
        const Real y1 = libmAct(kind, x1);
        slopes_[s] = (y1 - y0) / (x1 - x0);
        intercepts_[s] = y0 - slopes_[s] * x0;
    }
}

Real
PiecewiseLinear::eval(Real x) const
{
    if (x <= lo_)
        return satLo_;
    if (x >= -lo_)
        return satHi_;
    auto s = static_cast<std::size_t>((x - lo_) / step_);
    if (s >= slopes_.size())
        s = slopes_.size() - 1;
    return slopes_[s] * x + intercepts_[s];
}

void
PiecewiseLinear::apply(Vector &v) const
{
    apply(v.data(), v.size());
}

void
PiecewiseLinear::apply(Real *v, std::size_t n) const
{
    for (std::size_t i = 0; i < n; ++i)
        v[i] = eval(v[i]);
}

Real
PiecewiseLinear::maxError() const
{
    Real worst = 0.0;
    const Real span = range_ + 1.0;
    const int grid = 4001;
    for (int i = 0; i < grid; ++i) {
        const Real x = -span + 2.0 * span * static_cast<Real>(i) /
                                   static_cast<Real>(grid - 1);
        worst = std::max(worst, std::abs(eval(x) - libmAct(kind_, x)));
    }
    return worst;
}

} // namespace ernn::nn
