/**
 * @file
 * Activation functions: exact sigmoid/tanh for training, and the
 * piecewise-linear (PWL) approximations the paper implements on-chip
 * (Sec. VIII-B1: "piecewise linear approximation method can support
 * activation implementation only using on-chip resources").
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

/** Exact logistic function. */
Real sigmoid(Real x);

/** Exact hyperbolic tangent. */
Real tanhAct(Real x);

/** Apply the exact activation elementwise. */
void applyActivation(ActKind kind, Vector &v);

/** Apply the exact activation to the @p n values at @p v. */
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
     * Build an approximation by interpolating the exact function at
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

    /** Maximum absolute error against the exact function
     *  (measured on a dense grid over [-range-1, range+1]). */
    Real maxError() const;

    ActKind kind() const { return kind_; }
    std::size_t segments() const { return slopes_.size(); }
    Real range() const { return range_; }

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
