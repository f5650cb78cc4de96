"""Solving bottom-up over components, and why depth is expensive.

The chain x_0 = x_0^2/2 + 1/2, x_i = x_i^2/2 + x_{i-1}/2 has one component
per variable, all nonlinear, so its depth equals its size.  Each level takes
a square root of the error left by the level below: to get even one correct
bit at the top of a depth-d chain, the bottom component needs about 2^(d-1)
Newton iterations.  The convergence theorem's parameters absorb that cost
with a grid of thousands of bits; here q* = (1, 1, 1), so the solver instead
certifies a much smaller grid with the exactly checked upper bound y = 1.
"""

from lfpsolve import (
    RnmConfig,
    SolveOptions,
    build_graph,
    decompose,
    rat,
    run_rnm,
    solve,
    system_of,
)


def chain(k):
    names = [f"x{i}" for i in range(k)]
    eqs = [[("1/2", {"x0": 2}), ("1/2", {})]]
    for i in range(1, k):
        eqs.append([("1/2", {f"x{i}": 2}), ("1/2", {f"x{i-1}": 1})])
    return system_of(names, *eqs)


sys6 = chain(6)
decomp = decompose(build_graph(sys6), sys6)
print("Depth-6 chain decomposition:")
for scc in decomp.sccs:
    print(f"  component {scc.vars}  nonlinear={scc.nonlinear}  height={scc.height}")
print(f"  depth d = {decomp.depth}, nonlinear depth f = {decomp.nonlinear_depth}")

print("\nHow many bottom iterations until the top is within 1/2 of its value?")
print("Bottom error after g iterations is exactly 2^-g, and propagating it")
print("up five levels leaves error 2^(-g/32), so g must reach 2^(d-1) = 32:")
bottom = system_of(["x0"], [("1/2", {"x0": 2}), ("1/2", {})])
threshold = rat(1, 2)
for _ in range(5):
    threshold *= threshold  # 1/2 squared once per upper level
for g in (8, 16, 31, 32):
    final, _ = run_rnm(bottom, RnmConfig(h=80, g=g))
    a0 = rat(1) - final[0].value()
    verdict = "top error <= 1/2" if a0 <= threshold else "top still off by more than 1/2"
    print(f"  g={g:>2}: bottom error 2^-{g}  ->  {verdict}")

print("\nCertified solve of the 3-variable chain (termination-probability flag")
print("gives the q*max <= 1 bound that keeps parameters finite):")
eps = rat(1, 2**16)
report = solve(chain(3), eps, SolveOptions(assume_probabilistic=True))
print(f"  status {report.status}; h={report.params.h}, g={report.params.g}")
cert = report.certificate
upper = [str(y) for y in cert.upper]
print(f"  certificate {cert.kind} after grids {cert.attempted_h}: y = {upper}")
print("  (P(y) <= y holds exactly, so q* <= y, and the answer is within eps of y)")
for name, d in zip(report.names, report.approximation):
    print(f"  {name}: below 1 by {float(1 - d.value()):.3e}  (eps = 2^-16)")

print("\nThe same solve in adaptive mode (no certificate; it doubles h until two")
print("consecutive grids agree within eps/4):")
report = solve(chain(3), eps, SolveOptions(mode="adaptive", assume_probabilistic=True))
print(f"  status {report.status}; settled at h={report.params.h}")
for name, d in zip(report.names, report.approximation):
    print(f"  {name}: below 1 by {float(1 - d.value()):.3e}")
