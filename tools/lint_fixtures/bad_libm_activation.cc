// Fixture: ACT001 — a libm activation beside the shared kernel. The
// float datapaths all run nn::tanhAct / nn::applyActivation; a table
// or gate built on std::tanh rounds differently and drifts from the
// path it is supposed to equal.

#include <cmath>

#include "nn/activation.hh"

namespace ernn::serve
{

inline double
badGate(double x)
{
    return std::tanh(x); // expect-lint: ACT001
}

inline double
goodGate(double x)
{
    return nn::tanhAct(x);
}

// Waived: a deliberate libm reference, reason given.
inline double
libmReference(double x)
{
    // lint: libm-activation(reference the kernel is measured against)
    return std::tanh(x);
}

// Neither a comment mentioning std::tanh nor a string literal fires.
inline const char *
docString()
{
    return "std::tanh(x) is the libm reference";
}

} // namespace ernn::serve
