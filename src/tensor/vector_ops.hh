/**
 * @file
 * Free functions on contiguous Real vectors. These are the pointwise
 * primitives the paper's compute unit implements in hardware
 * (point-wise multiplication, point-wise addition, scaling).
 */

#ifndef ERNN_TENSOR_VECTOR_OPS_HH
#define ERNN_TENSOR_VECTOR_OPS_HH

#include <cstddef>
#include <vector>

#include "base/types.hh"

namespace ernn
{

/** Dense vector of Reals. */
using Vector = std::vector<Real>;

/** y += x (sizes must match). */
void addInPlace(Vector &y, const Vector &x);

/** y -= x (sizes must match). */
void subInPlace(Vector &y, const Vector &x);

/** y += a * x. */
void axpy(Vector &y, Real a, const Vector &x);

/** out = x ⊙ y (the paper's point-wise multiplication). */
Vector hadamard(const Vector &x, const Vector &y);

/** acc += x ⊙ y. */
void hadamardAcc(Vector &acc, const Vector &x, const Vector &y);

/** Scale every element by a. */
void scaleInPlace(Vector &x, Real a);

/** Inner product. */
Real dot(const Vector &x, const Vector &y);

/** Euclidean norm. */
Real norm2(const Vector &x);

/** Largest absolute element (0 for an empty vector). */
Real maxAbs(const Vector &x);

/** Set every element to the given value. */
void fill(Vector &x, Real v);

/** Concatenate two vectors: [x; y] (the paper's [x_t, y_{t-1}]). */
Vector concat(const Vector &x, const Vector &y);

/** Index of the largest element; requires non-empty input. */
std::size_t argmax(const Vector &x);

} // namespace ernn

#endif // ERNN_TENSOR_VECTOR_OPS_HH
