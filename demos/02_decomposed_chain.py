"""Solving bottom-up over components, and why depth is expensive.

The chain x_0 = x_0^2/2 + 1/2, x_i = x_i^2/2 + x_{i-1}/2 has one component
per variable, all nonlinear, so its depth equals its size.  Its q* is all
ones, and the solver proves that exactly before any Newton step: in every
row P(1) = 1, and each component's I - B(1) passes exact elimination with
diagonal pivots, so rho(B(1)) <= 1.

The same chain under x -> 2x, x_0 = x_0^2/4 + 1 and x_i = x_i^2/4 +
x_{i-1}/2, has q* all twos and P_0(1) = 5/4, so Newton has to do the work.
Each level takes a square root of the error left by the level below: to
get the top within 1 of its value, the bottom component needs about
2^(d-1) Newton iterations.  The convergence theorem's parameters absorb
that cost with a grid of thousands of bits.  Since q* = 2 is rational, the
solver certifies it far below that grid: once the iterate is within eps
below 2, the simplest rational within eps above it is 2 itself, and
P(2) <= 2 holds exactly.  With q* in [iterate, 2], the reported answer is
the simplest rational in [2 - eps, iterate], here 2 - eps: denominator
2^16, where the iterate's is up to 2^h.
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


def chain(k, square="1/2", constant="1/2", feed="1/2"):
    names = [f"x{i}" for i in range(k)]
    eqs = [[(square, {"x0": 2}), (constant, {})]]
    for i in range(1, k):
        eqs.append([(square, {f"x{i}": 2}), (feed, {f"x{i-1}": 1})])
    return system_of(names, *eqs)


def doubled_chain(k):
    return chain(k, square="1/4", constant="1")


def gap_below_two(value):
    gap = 2 - value
    if gap == 0:
        return "exactly 2"
    return f"below 2 by about 2^-{gap.denominator.bit_length() - gap.numerator.bit_length()}"


sys6 = chain(6)
decomp = decompose(build_graph(sys6), sys6)
print("Depth-6 chain decomposition:")
for scc in decomp.sccs:
    print(f"  component {scc.vars}  nonlinear={scc.nonlinear}  height={scc.height}")
print(f"  depth d = {decomp.depth}, nonlinear depth f = {decomp.nonlinear_depth}")

print("\nq* = 1 is proved exactly, with no probability flag and no Newton step:")
eps = rat(1, 2**16)
for label, system in (("chain(3)", chain(3)), ("x = x^2/2 + 1/2", chain(1))):
    report = solve(system, eps)
    values = [str(a) for a in report.approximation]
    steps = [run.iterations for run in report.scc_runs]
    print(f"  {label}: {report.status}, approximation {values}")
    print(f"    proved exactly 1: {report.certificate.exact_one}; Newton steps per component {steps}")

print("\nThe doubled chain: how many bottom iterations until the top of six")
print("levels is within 1 of its value 2?  Rounded Newton on the bottom halves")
print("its error each step, and each level above takes the square root of")
print("half the error below, so the bottom error must fall to 2^-31, which takes")
print("g = 2^(d-1) = 32 steps:")
bottom = doubled_chain(1)
threshold = rat(1, 2)
for _ in range(5):
    threshold *= threshold  # 1/2 squared once per upper level
threshold *= 2  # back on the doubled scale: an error 2 e on the chain's e
for g in (8, 16, 31, 32):
    final, _ = run_rnm(bottom, RnmConfig(h=80, g=g))
    a0 = 2 - final[0].value()
    verdict = "top error <= 1" if a0 <= threshold else "top still off by more than 1"
    print(f"  g={g:>2}: bottom error {a0}  ->  {verdict}")

print("\nCertified solve of the depth-3 doubled chain under the asserted bound")
print("q* <= 2 (no normal form, so u = 1; the theorem's grid is h = 2530).  u")
print("enters only that grid: the witness grids h0, 2 h0, ... run unscaled with")
print("h - 1 steps each.  The Newton-direction witness fails at the critical q*,")
print("and q* = 2 itself certifies the first grid whose iterate is within eps")
print("below it.  The answer is the simplest rational in [2 - eps, iterate]:")
report = solve(
    doubled_chain(3), eps, SolveOptions(qmax_exponent_assert=1, use_snf=False, keep_traces=True)
)
cert = report.certificate
print(f"  status {report.status}; certificate {cert.kind} after grids {cert.attempted_h}")
print(f"  h = {report.params.h}, g = {report.params.g}")
print(f"  Newton steps per component: {[run.iterations for run in report.scc_runs]}")
iterate = {run.names[0]: run.trace.records[-1].iterate[0].value() for run in report.scc_runs}
for name, a in zip(report.names, report.approximation):
    print(f"  {name}: iterate {gap_below_two(iterate[name])}, answer {a} (eps = 2^-16)")

print("\nThe same solve in adaptive mode (it climbs the same grids, so it settles")
print("on the same witness):")
report = solve(
    doubled_chain(3), eps, SolveOptions(mode="adaptive", qmax_exponent_assert=1, use_snf=False)
)
print(f"  status {report.status}; settled at h={report.params.h}")
for name, a in zip(report.names, report.approximation):
    print(f"  {name}: {gap_below_two(a)}")
