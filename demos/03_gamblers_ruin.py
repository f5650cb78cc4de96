"""Termination probabilities of a one-counter automaton, end to end.

A gambler bets one unit at a time: the counter is their bankroll, and the
game ends on first hitting zero.  With up-probability 2/3 the ruin
probability from bankroll 1 is the least root of x = (2/3) x^2 + 1/3,
namely 1/2; with up-probability 1/3 ruin is certain.  The solver builds the
pair-variable equation system, proves exactly which probabilities are 1,
picks a polynomial-size rounding parameter for the rest, and certifies the
answer.
"""

from math import isqrt

from lfpsolve import (
    P1CA,
    Transition,
    build_termination_mps,
    rat,
    rounding_params,
    serialize_mps,
    termination_probabilities,
    validate,
)


def gambler(p_up):
    up = rat(p_up)
    return P1CA(
        states=("play",),
        delta=(
            Transition("play", 1 - up, -1, "play"),
            Transition("play", up, 1, "play"),
        ),
        delta0=(),
    )


model = gambler("2/3")
print("Model check:", "ok" if not validate(model) else validate(model))

print("\nThe induced equation system (one variable per state pair):")
print(serialize_mps(build_termination_mps(model)))

# The least root of a x^2 - x + c = 0 is (1 - sqrt(1 - 4ac)) / 2a, and the
# discriminant 1 - 4 (2/3) (1/3) = 1/9 is a rational square.
a, c = rat(2, 3), rat(1, 3)
disc = 1 - 4 * a * c
root = (1 - rat(isqrt(disc.numerator), isqrt(disc.denominator))) / (2 * a)
print("Closed form: least root of x = (2/3)x^2 + 1/3 is", root)

eps = rat(1, 2**20)
params = rounding_params(model, eps)
print(f"\nClosed-form certified rounding parameter for eps = 2^-20: h = {params['h']}")
print(f"  (r = {params['r']} state, probability width m = {params['m']} bits)")

matrix = termination_probabilities(model, eps)
value = matrix.entries[0][0]
print(f"Computed G-matrix entry: {value}")
print(f"  |value - 1/2| = {float(abs(value - rat(1, 2))):.3e} <= 2^-20")
report = matrix.report
print(f"  status: {report.status}, certificate {report.certificate.kind} on grid h = {report.params.h}")

print("\nUnfavourable odds (up-probability 1/3): ruin is certain.  Every row")
print("has P(1) = 1 and B(1) = 2/3 <= 1, so an exact pre-pass proves q* = 1")
print("before any Newton step:")
matrix = termination_probabilities(gambler("1/3"), eps)
print(f"  entry = {matrix.entries[0][0]}, proved exactly 1: {matrix.report.certificate.exact_one}")

print("\nA two-state automaton with a zero row in its G-matrix:")
model2 = P1CA(
    states=("a", "b"),
    delta=(
        Transition("a", rat(1, 2), -1, "a"),
        Transition("a", rat(1, 2), 0, "b"),
        Transition("b", rat(1), 1, "b"),  # b only climbs: never terminates
    ),
    delta0=(),
)
matrix = termination_probabilities(model2, rat(1, 2**12))
for u, row in zip(matrix.states, matrix.entries):
    shown = ", ".join(f"{u}->{v}: {a}" for v, a in zip(matrix.states, row))
    print(f"  {shown}")
print("  zero mask:", matrix.zero_mask)
