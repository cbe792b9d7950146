/**
 * @file
 * Shared scalar/vector aliases for quantum-state code.
 */

#ifndef TREEVQA_COMMON_TYPES_H
#define TREEVQA_COMMON_TYPES_H

#include <cmath>
#include <complex>
#include <vector>

namespace treevqa {

/** Complex amplitude type used by all simulators. */
using Complex = std::complex<double>;

/** Dense complex vector (a raw statevector or Krylov vector). */
using CVector = std::vector<Complex>;

/** x * y + z, rounded once where the target has FMA. Code that must
 * keep its bits across loop shapes spells its contractions out with
 * it: the compiler contracts a vectorized loop differently from the
 * same loop run scalar. */
inline double
fmadd(double x, double y, double z)
{
#ifdef __FP_FAST_FMA
    return std::fma(x, y, z);
#else
    return x * y + z;
#endif
}

} // namespace treevqa

#endif // TREEVQA_COMMON_TYPES_H
