"""What the solver does when there is nothing to converge to, and how far a
component can drift when its inputs are only approximate.

Deciding whether a monotone system has a finite least fixed point at all is
intractably hard in general, so the solver certifies only one direction:
value iterates are lower bounds on any fixed point, and escaping a bound
that every fixed point must respect is a proof that none exists.  The
perturbation bounds quantify the other failure mode of decomposed solving:
lower components are solved approximately, and the error the upper
component inherits can be the square root of what it was fed.
"""

from math import isqrt

from lfpsolve import (
    DivergenceCertified,
    SingularMatrix,
    rat,
    solve,
    system_of,
    value_iterate,
)


def sqrt_upper(q):
    """A rational upper bound on sqrt(q), exact on perfect squares."""
    p, s = q.numerator, q.denominator
    r = isqrt(p * s)
    return rat(r if r * r == p * s else r + 1, s)


print("x = x^2 + 1 has no real fixed point (discriminant < 0):")
# x = a x^2 + c has a real fixed point only when 1 - 4ac >= 0.
a, c = rat(1), rat(1)
if 1 - 4 * a * c < 0:
    print("  oracle: negative discriminant: the parabola never meets the line")

no_lfp = system_of(["x"], [("1", {"x": 2}), ("1", {})])
print("  value iteration squares its way past any bound:",
      [str(v[0]) for v in (value_iterate(no_lfp, k) for k in range(1, 7))])
try:
    solve(no_lfp, rat(1, 2))
except DivergenceCertified as exc:
    print("  solver:", exc)

print("\nx = x + 1 fails differently: I - B is singular at the first step.")
affine = system_of(["x"], [("1", {"x": 1}), ("1", {})])
try:
    solve(affine, rat(1, 2))
except SingularMatrix as exc:
    print("  solver:", exc)

print("\nPerturbation: feed x = x^2/2 + y/2 a truncated y and watch the LFP move.")
print("With y = 1 the fixed point is 1; with y = 1 - dy it is 1 - sqrt(dy),")
print("so a dy perturbation below becomes a sqrt(dy) shift above:")
for k in (8, 12):
    dy = rat(1, 2**k)
    # least root of x = x^2/2 + (1 - dy)/2: 1 - sqrt(dy), exact as dy = 4^-(k/2)
    root = 1 - sqrt_upper(dy)
    shift = 1 - float(root)
    print(f"  dy = 2^-{k}: measured shift ~ {shift:.6f}  (sqrt(dy) = 2^-{k//2})")
    alpha = rat(1, 2) * rat(1, 2)  # min(1, c_min) * min(y_min, q*_min / 2)
    # sqrt(4 n alpha^-(3n+1) ||P(1,1)|| dy) with n = 1 and ||P(1,1)|| = 1
    bound = sqrt_upper(4 * (1 / alpha) ** 4 * dy)
    print(f"      certified over-approximation: {float(bound):.6f}"
          f"  (contains the shift: {rat(1) - root <= bound})")

print("\nLinear components degrade only linearly:")
dy = rat(1, 16)
# 2 n alpha^-(n+2) ||P(1,1)|| dy for x = x/2 + 1/2: n = 1, ||P(1,1)|| = 1
bound = 2 * (1 / rat(1, 4)) ** 3 * dy
print(f"  dy = 1/16 with alpha = 1/4: bound {bound}")
