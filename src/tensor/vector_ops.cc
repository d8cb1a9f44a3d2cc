#include "tensor/vector_ops.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"

namespace ernn
{

namespace
{

void
checkSameSize(const Vector &a, const Vector &b, const char *what)
{
    ernn_assert(a.size() == b.size(),
                what << ": size mismatch " << a.size()
                     << " vs " << b.size());
}

} // namespace

void
addInPlace(Vector &y, const Vector &x)
{
    checkSameSize(y, x, "addInPlace");
    for (std::size_t i = 0; i < y.size(); ++i)
        y[i] += x[i];
}

void
subInPlace(Vector &y, const Vector &x)
{
    checkSameSize(y, x, "subInPlace");
    for (std::size_t i = 0; i < y.size(); ++i)
        y[i] -= x[i];
}

void
axpy(Vector &y, Real a, const Vector &x)
{
    checkSameSize(y, x, "axpy");
    for (std::size_t i = 0; i < y.size(); ++i)
        y[i] += a * x[i];
}

Vector
hadamard(const Vector &x, const Vector &y)
{
    checkSameSize(x, y, "hadamard");
    Vector out(x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
        out[i] = x[i] * y[i];
    return out;
}

void
hadamardAcc(Vector &acc, const Vector &x, const Vector &y)
{
    checkSameSize(acc, x, "hadamardAcc");
    checkSameSize(x, y, "hadamardAcc");
    for (std::size_t i = 0; i < acc.size(); ++i)
        acc[i] += x[i] * y[i];
}

void
scaleInPlace(Vector &x, Real a)
{
    for (auto &v : x)
        v *= a;
}

Real
dot(const Vector &x, const Vector &y)
{
    checkSameSize(x, y, "dot");
    Real s = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i)
        s += x[i] * y[i];
    return s;
}

Real
norm2(const Vector &x)
{
    return std::sqrt(dot(x, x));
}

Real
maxAbs(const Vector &x)
{
    Real m = 0.0;
    for (auto v : x)
        m = std::max(m, std::abs(v));
    return m;
}

void
fill(Vector &x, Real v)
{
    std::fill(x.begin(), x.end(), v);
}

Vector
concat(const Vector &x, const Vector &y)
{
    Vector out;
    out.reserve(x.size() + y.size());
    out.insert(out.end(), x.begin(), x.end());
    out.insert(out.end(), y.begin(), y.end());
    return out;
}

std::size_t
argmax(const Vector &x)
{
    ernn_assert(!x.empty(), "argmax of empty vector");
    return static_cast<std::size_t>(
        std::max_element(x.begin(), x.end()) - x.begin());
}

} // namespace ernn
