"""Two-sided bounds on the fixed point, and exact rescaling.

Repeated squaring makes fixed-point coordinates doubly exponentially small
(or large) in the number of variables, which is why the certified bounds
carry 2^n factors and why the upper bound is kept as an exponent rather
than a number.  Rescaling x = P(x) to x = 2^-u P(2^u x) divides the fixed
point by 2^u and commutes with the rounded iteration bit for bit.
"""

from math import isqrt

from lfpsolve import (
    RnmConfig,
    SolveOptions,
    compute_bounds,
    qmax_upper_exponent,
    rat,
    run_rnm,
    serialize_mps,
    system_of,
    value_iterate,
)


def squaring(n, x0):
    names = [f"s{i}" for i in range(n)]
    eqs = [[(x0, {})]]
    for i in range(1, n):
        eqs.append([("1", {f"s{i-1}": 2})])
    return system_of(names, *eqs)


print("Repeated squaring, s0 = 1/2, s_i = s_{i-1}^2:")
for n in (2, 4, 8):
    sysn = squaring(n, "1/2")
    truth = rat(1, 2) ** (2 ** (n - 1))
    lower = compute_bounds(sysn, SolveOptions()).qmin_lower
    print(f"  n={n}: q*_min = 2^-{2**(n-1)}, certified lower bound {lower}"
          f"  (valid: {lower <= truth})")

print("\nWith s0 = 2 the largest coordinate explodes instead; the certified")
print("upper bound is reported as a power-of-two exponent:")
for n in (2, 4, 8):
    sysn = squaring(n, "2")
    exponent = qmax_upper_exponent(sysn)
    print(f"  n={n}: q*_max = 2^{2**(n-1)}, bound 2^{exponent}")

print("\nRescaling the critical equation x = x^2/2 + 1/2 by u = 1:")
sys1 = system_of(["x"], [("1/2", {"x": 2}), ("1/2", {})])
# degree-k coefficients times 2^(u(k-1)): 1/2 x^2 -> x^2, and 1/2 -> 1/4
scaled = system_of(["x"], [("1", {"x": 2}), ("1/4", {})])
print(serialize_mps(scaled))
# The least root of a x^2 - x + c = 0 is (1 - sqrt(1 - 4ac)) / 2a; here the
# discriminant is 0, a double root.
a, c = rat(1), rat(1, 4)
disc = 1 - 4 * a * c
root = (1 - rat(isqrt(disc.numerator), isqrt(disc.denominator))) / (2 * a)
print("New least fixed point:", root, "(half of the original 1)")

print("\nThe rounded runs agree mantissa-for-mantissa when the gridshifts too:")
_, torig = run_rnm(sys1, RnmConfig(h=8, g=5))
_, tscaled = run_rnm(scaled, RnmConfig(h=9, g=5))
for ra, rb in zip(torig.records, tscaled.records):
    a, b = ra.iterate[0], rb.iterate[0]
    print(f"  k={ra.k}: original {a.value()} = m{a.mantissa}/2^{a.scale},"
          f"  rescaled {b.value()} = m{b.mantissa}/2^{b.scale}")

print("\nValue iteration gives certified lower bounds on any fixed point;")
print("here P^3(0) of the 3-variable chain:")
chain3 = system_of(
    ["x0", "x1", "x2"],
    [("1/2", {"x0": 2}), ("1/2", {})],
    [("1/2", {"x1": 2}), ("1/2", {"x0": 1})],
    [("1/2", {"x2": 2}), ("1/2", {"x1": 1})],
)
print(" ", [str(v) for v in value_iterate(chain3, 3)])
