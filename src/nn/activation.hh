/**
 * @file
 * Activation functions: the float sigmoid/tanh every float datapath
 * runs (training, the compiled float backends, the HLS interpreter),
 * and the piecewise-linear (PWL) approximations the paper implements
 * on-chip (Sec. VIII-B1: "piecewise linear approximation method can
 * support activation implementation only using on-chip resources").
 *
 * The float functions are the repo-owned kernel of
 * simd::sigmoidF64Fn / simd::tanhF64Fn: within 4 ulp of libm, and
 * bit-identical at every SIMD level. PWL construction and maxError()
 * interpolate and measure against libm instead, so the fixed-point
 * tables (and every LUT built from them) do not depend on the float
 * kernel.
 */

#ifndef ERNN_NN_ACTIVATION_HH
#define ERNN_NN_ACTIVATION_HH

#include <cstddef>
#include <string>
#include <vector>

#include "base/types.hh"
#include "tensor/vector_ops.hh"

namespace ernn::nn
{

/** Supported scalar nonlinearities. */
enum class ActKind { Sigmoid, Tanh };

/** Human-readable name ("sigmoid" / "tanh"). */
std::string actName(ActKind kind);

/** Logistic function, within 4 ulp of the libm formula
 *  1 / (1 + exp(-x)); sigmoid(0) = 0.5 exactly. */
Real sigmoid(Real x);

/** Hyperbolic tangent, within 4 ulp of std::tanh; odd exactly. */
Real tanhAct(Real x);

/** Apply the float activation elementwise (the active SIMD level;
 *  every level gives the bits of sigmoid() / tanhAct()). */
void applyActivation(ActKind kind, Vector &v);

/** Apply the float activation to the @p n values at @p v. */
void applyActivation(ActKind kind, Real *v, std::size_t n);

/** Elementwise activation returning a new vector. */
Vector activated(ActKind kind, const Vector &v);

/**
 * Derivative expressed through the *output* value y = act(x):
 * sigmoid' = y(1-y), tanh' = 1-y^2. This is the form BPTT uses.
 */
Real actDerivFromOutput(ActKind kind, Real y);

/**
 * Piecewise-linear activation approximation.
 *
 * The input range [-range, range] is cut into uniform segments; each
 * segment stores a (slope, intercept) pair, and inputs beyond the
 * range saturate to the asymptotic values. In hardware one segment
 * costs one multiplier, one adder, and a small LUT entry; the model
 * in hw/resource_model.hh consumes segments() for its cost estimate.
 */
class PiecewiseLinear
{
  public:
    /**
     * Build an approximation by interpolating the libm function at
     * segment endpoints.
     *
     * @param kind     function to approximate
     * @param segments number of linear pieces (>= 2)
     * @param range    half-width of the approximated interval
     */
    PiecewiseLinear(ActKind kind, std::size_t segments, Real range);

    /** Evaluate the approximation. */
    Real eval(Real x) const;

    /** Apply elementwise in place. */
    void apply(Vector &v) const;

    /** Apply to the @p n values at @p v in place. */
    void apply(Real *v, std::size_t n) const;

    /** Maximum absolute error against the libm function
     *  (measured on a dense grid over [-range-1, range+1]). */
    Real maxError() const;

    ActKind kind() const { return kind_; }
    std::size_t segments() const { return slopes_.size(); }
    Real range() const { return range_; }

    /** Per-segment slopes and intercepts: the on-chip table. */
    const std::vector<Real> &slopes() const { return slopes_; }
    const std::vector<Real> &intercepts() const { return intercepts_; }

  private:
    ActKind kind_;
    Real range_;
    Real lo_, step_;
    Real satLo_, satHi_;
    std::vector<Real> slopes_;
    std::vector<Real> intercepts_;
};

} // namespace ernn::nn

#endif // ERNN_NN_ACTIVATION_HH
