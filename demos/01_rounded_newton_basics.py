"""One equation, every moving part: the rounded Newton loop up close.

The running example is x = x^2/2 + 1/2, whose least fixed point is exactly 1
and which plain value iteration approaches hopelessly slowly.  Newton gains
one bit per step here, and the rounded variant does the same until the grid
stops it, without ever overshooting.
"""

from math import isqrt

from lfpsolve import (
    RnmConfig,
    ceil_log2,
    evaluate,
    newton_step,
    rat,
    run_rnm,
    system_of,
    value_iterate,
)

sys1 = system_of(["x"], [("1/2", {"x": 2}), ("1/2", {})])
print("System: x = x^2/2 + 1/2")
# The least root of a x^2 - x + c = 0 is (1 - sqrt(1 - 4ac)) / 2a; here the
# discriminant is 0, a double root.
a, c = rat(1, 2), rat(1, 2)
disc = 1 - 4 * a * c
root = (1 - rat(isqrt(disc.numerator), isqrt(disc.denominator))) / (2 * a)
print("Closed-form least fixed point:", root)

print("\nValue iteration crawls, and its exact representation explodes:")
for k in (1, 2, 3, 10, 16):
    v = value_iterate(sys1, k)[0]
    bits = int(v.denominator).bit_length()
    print(f"  P^{k:>2}(0) ~ {float(v):.4f}   ({bits} denominator bits)")
print("  (error shrinks like 2/k while the bit size doubles per step,")
print("   which is exactly why the solver rounds)")

print("\nExact Newton gains one bit per step:")
z = [rat(0)]
for k in range(1, 6):
    z = newton_step(sys1, z)
    print(f"  step {k}: {z[0]}")

print("\nRounded-down Newton on the 2^-40 grid keeps that pace;")
print("iterate k is exactly 1 - 2^-k until the grid interferes:")
final, trace = run_rnm(sys1, RnmConfig(h=40, g=12))
for record in trace.records[1:6]:
    print(f"  k={record.k}: {record.iterate[0].value()}  residual {record.residual}")

print("\nOn a coarse grid (h = 3) the loop parks at the best grid point 7/8:")
final, trace = run_rnm(sys1, RnmConfig(h=3, g=10))
print("  iterates:", [str(r.iterate[0].value()) for r in trace.records])
print("  final error:", rat(1) - final[0].value())

print("\ncertify_params_scc picks (h, g) so the final error is provably <= eps.")
# certify_params_scc (tests/reference.py) is the convergence theorem for one
# component with q* <= 1, every logarithm rounded up:
# h = 2 + n log2(1/alpha) + log2(1/eps), g = h - 1.
n, alpha, eps = 1, rat(1, 4), rat(1, 2**10)
h = 2 + n * ceil_log2(1 / alpha) + ceil_log2(1 / eps)
cfg = RnmConfig(h=h, g=h - 1)
print(f"  n=1, alpha=1/4, eps=2^-10  ->  h={cfg.h}, g={cfg.g}")
final, _ = run_rnm(sys1, cfg)
err = rat(1) - final[0].value()
print(f"  run at those parameters: error = {err} <= 2^-10: {err <= rat(1, 2**10)}")
print("  and the approximation never exceeds the fixed point:",
      final[0].value() <= 1)

print("\nP stays exact everywhere; e.g. P(5/8) =", evaluate(sys1, [rat(5, 8)])[0])
