"""Monotone polynomial systems: representation, JSON wire format, evaluation,
Jacobians, simple normal form, zero-variable cleaning, and size measurement.

A system is ``x = P(x)`` with one equation per variable.  Every monomial
coefficient (including constant terms) is strictly positive; that is what
makes P a monotone operator on the non-negative orthant, and it is enforced
at construction time.  Systems are immutable after construction and all
operations here are pure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii as _encode_str
from math import lcm
from typing import Mapping, NamedTuple, Sequence

from .errors import DegreeTooHigh, NotMonotone, ParseError
from .ratmath import ONE, ZERO, Rat, rat, rat_str


@dataclass(frozen=True)
class Monomial:
    """One term coefficient * prod x_i**e_i.

    ``exponents`` is a tuple of (variable index, exponent) pairs with
    strictly increasing indices and exponents >= 1; the empty tuple is a
    constant term.  ``Monomial(...)`` checks all of that and raises
    ``NotMonotone`` or ``ValueError``.  Code in this module that builds a
    monomial or a system from parts it has already checked (parsing, normal
    form, substitution) uses ``_monomial`` and ``_system``, which check
    nothing.
    """

    coeff: object
    exponents: tuple

    def __post_init__(self):
        if self.coeff <= 0:
            raise NotMonotone(f"coefficient {self.coeff} is not positive")
        last = -1
        for v, e in self.exponents:
            if v <= last:
                raise ValueError("exponent indices must be strictly increasing")
            if e < 1:
                raise ValueError("exponents must be >= 1")
            last = v

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.exponents)

    def evaluate(self, z: Sequence):
        value = self.coeff
        for v, e in self.exponents:
            zv = z[v]
            if zv == 0:
                return ZERO
            value = value * (zv if e == 1 else zv**e)
        return value


def _monomial(coeff, exponents: tuple) -> Monomial:
    """A ``Monomial`` from a positive coefficient and valid exponents,
    without ``__post_init__``'s checks."""
    mono = object.__new__(Monomial)
    object.__setattr__(mono, "coeff", coeff)
    object.__setattr__(mono, "exponents", exponents)
    return mono


def make_monomial(coeff, powers: Mapping[int, int] | None = None) -> Monomial:
    return Monomial(rat(coeff), tuple(sorted((powers or {}).items())))


class IntegerForm(NamedTuple):
    """Equation i is P_i(z) = sum(c * prod z_v**e) / L with integer c,
    where L = ``denominator`` is the common denominator of all coefficients;
    each term also carries its gap D - deg to the degree D >= 1 of the
    system."""

    denominator: int
    degree: int
    equations: tuple  # per equation: (integer coefficient, exponents, degree gap) triples

    def back_scale(self, s: int) -> int:
        """L s**(D-1), which takes ``evaluate_scaled``'s sums back to the
        scale s of their point: at y = x / s, L s**D y_i = L s**(D-1) x_i."""
        return self.denominator * s ** (self.degree - 1)


@dataclass(frozen=True)
class MonotoneSystem:
    """x = P(x) with named variables; equation i defines variable i."""

    names: tuple
    equations: tuple

    def __post_init__(self):
        if len(self.names) != len(self.equations):
            raise ValueError("need exactly one equation per variable")
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be unique")
        if any(not isinstance(n, str) or not n for n in self.names):
            raise ValueError("variable names must be non-empty strings")
        n = len(self.names)
        for terms in self.equations:
            for mono in terms:
                if mono.exponents and mono.exponents[-1][0] >= n:
                    raise ValueError("monomial references an unknown variable")

    @property
    def n(self) -> int:
        return len(self.names)

    def degree(self) -> int:
        return max(
            (mono.degree for terms in self.equations for mono in terms),
            default=0,
        )

    @cached_property
    def integer_form(self) -> IntegerForm:
        """P over its common coefficient denominator, built on first use and
        kept in the instance ``__dict__`` (which a frozen dataclass allows)."""
        denominator = lcm(*(mono.coeff.denominator for terms in self.equations for mono in terms))
        degree = max(self.degree(), 1)
        equations = tuple(
            tuple(
                (
                    mono.coeff.numerator * (denominator // mono.coeff.denominator),
                    mono.exponents,
                    degree - mono.degree,
                )
                for mono in terms
            )
            for terms in self.equations
        )
        return IntegerForm(denominator, degree, equations)


def _system(names: tuple, equations: tuple) -> MonotoneSystem:
    """A ``MonotoneSystem`` from names and equations that are valid by
    construction, without ``__post_init__``'s checks."""
    sys = object.__new__(MonotoneSystem)
    object.__setattr__(sys, "names", names)
    object.__setattr__(sys, "equations", equations)
    return sys


def system_of(names: Sequence[str], *equations) -> MonotoneSystem:
    """Build a system from (coefficient, {variable name: exponent}) pairs.

    Convenience constructor for tests and demos; the wire format below is
    the interchange form.
    """
    names = tuple(names)
    index = {name: i for i, name in enumerate(names)}
    built = []
    for terms in equations:
        eq = []
        for coeff, powers in terms:
            eq.append(make_monomial(coeff, {index[v]: e for v, e in powers.items()}))
        built.append(tuple(eq))
    return MonotoneSystem(names, tuple(built))


# --- JSON wire format ---------------------------------------------------------
#
#   {"vars": [name, ...],
#    "eqs":  [[{"c": "p/q", "m": {name: exponent, ...}}, ...], ...]}
#
# An empty "m" object is a constant term.  Serialization emits each term's
# variables in lexicographic order and the terms of an equation in descending
# total degree (deterministic tie-breaks), so identical systems serialize to
# identical bytes.


def parse_mps(text: str) -> MonotoneSystem:
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past the int-from-str limit
        raise ParseError(f"invalid JSON: {exc}") from None
    return system_from_json(doc)


def system_from_json(doc) -> MonotoneSystem:
    """The system of a parsed wire document.  Only the exact types that
    ``json.loads`` returns are accepted: a subclass of ``dict``, ``list``,
    ``str`` or ``int`` anywhere in ``doc`` is refused like any other wrong
    type."""
    if type(doc) is not dict:
        raise ParseError("top level must be an object")
    extra = set(doc) - {"vars", "eqs"}
    if extra:
        raise ParseError(f"unknown keys: {sorted(extra)}")
    if "vars" not in doc or "eqs" not in doc:
        raise ParseError('both "vars" and "eqs" are required')
    names = doc["vars"]
    eqs = doc["eqs"]
    if type(names) is not list or any(type(s) is not str or not s for s in names):
        raise ParseError('"vars" must be a list of non-empty strings')
    if len(set(names)) != len(names):
        raise ParseError("variable names must be unique")
    if type(eqs) is not list or len(eqs) != len(names):
        raise ParseError('"eqs" must list exactly one equation per variable')
    index = {name: i for i, name in enumerate(names)}
    coeffs = {}  # coefficient string -> its positive rational, parsed once
    equations = []
    for pos, eq in enumerate(eqs):
        if type(eq) is not list:
            raise ParseError(f"equation {pos} must be a list of terms")
        terms = []
        for term in eq:
            if type(term) is not dict or len(term) != 2 or "c" not in term or "m" not in term:
                raise ParseError(f'terms must be objects with exactly "c" and "m" (equation {pos})')
            text = term["c"]
            if type(text) is not str:
                raise ParseError(f'coefficient must be a "p/q" string (equation {pos})')
            coeff = coeffs.get(text)
            if coeff is None:
                try:
                    coeff = rat(text)
                except ValueError as exc:
                    raise ParseError(str(exc)) from None
                if coeff <= 0:
                    raise NotMonotone(f"coefficient {text} in equation {pos} is not positive")
                coeffs[text] = coeff
            powers_raw = term["m"]
            if type(powers_raw) is not dict:
                raise ParseError(f'"m" must be an object (equation {pos})')
            powers = []
            for name, exp in powers_raw.items():
                v = index.get(name)
                if v is None:
                    raise ParseError(f"unknown variable {name!r} in equation {pos}")
                if type(exp) is not int or exp < 1:
                    raise ParseError(f"exponent of {name!r} in equation {pos} must be an integer >= 1")
                powers.append((v, exp))
            if len(powers) > 1:
                powers.sort()
            terms.append(_monomial(coeff, tuple(powers)))
        equations.append(tuple(terms))
    # Every check of MonotoneSystem has been made above, with its ParseError.
    return _system(tuple(names), tuple(equations))


def _wire_equations(sys: MonotoneSystem):
    """Yield each equation's terms in wire order, as (-degree, sorted (name,
    exponent) pairs, coefficient text) triples: descending degree, then the
    named exponents, then the coefficient text.

    Coefficient texts are memoized by object identity, which holds while
    the system holds its coefficients; many terms share one object (the
    parser reads each coefficient text once, and ``restrict`` shares what
    it does not change).
    """
    names = sys.names
    texts = {}
    for terms in sys.equations:
        keyed = []
        for mono in terms:
            c = texts.get(id(mono.coeff))
            if c is None:
                c = texts[id(mono.coeff)] = rat_str(mono.coeff)
            exps = mono.exponents
            if len(exps) > 1:
                keyed.append((-mono.degree, sorted([(names[v], e) for v, e in exps]), c))
            elif exps:
                ((v, e),) = exps
                keyed.append((-e, [(names[v], e)], c))
            else:
                keyed.append((0, [], c))
        if len(keyed) > 1:
            keyed.sort()
        yield keyed


def system_to_json(sys: MonotoneSystem) -> dict:
    eqs = [[{"c": c, "m": dict(named)} for _, named, c in keyed] for keyed in _wire_equations(sys)]
    return {"vars": list(sys.names), "eqs": eqs}


def serialize_mps(sys: MonotoneSystem) -> str:
    return json_text(sys)


def _system_text(sys: MonotoneSystem, pad: str) -> str:
    """``json_text(system_to_json(sys), pad)``, written from the monomials
    without building a dict per term."""
    p1, p2, p3, p4, p5 = (pad + "  " * depth for depth in range(1, 6))
    quoted = [_encode_str(name) for name in sys.names]
    keys = {name: p5 + text + ": " for name, text in zip(sys.names, quoted)}  # each line of "m" up to its value
    head, tail = "{" + p4 + '"c": "', '",' + p4 + '"m": '  # a coefficient text needs no escaping
    eqs = []
    for keyed in _wire_equations(sys):
        items = []
        for _, named, c in keyed:
            m = "{}"
            if named:
                exps = [keys[name] + (int.__repr__(e) if type(e) is int else json_text(e)) for name, e in named]
                m = "{" + ",".join(exps) + p4 + "}"
            items.append(head + c + tail + m + p3 + "}")
        eqs.append("[" + p3 + ("," + p3).join(items) + p2 + "]" if items else "[]")
    vars_text = "[" + p2 + ("," + p2).join(quoted) + p1 + "]" if quoted else "[]"
    eqs_text = "[" + p2 + ("," + p2).join(eqs) + p1 + "]" if eqs else "[]"
    return "{" + p1 + '"vars": ' + vars_text + "," + p1 + '"eqs": ' + eqs_text + pad + "}"


def json_text(obj, pad: str = "\n") -> str:
    """Exactly ``json.dumps(obj, indent=2)`` for dicts with string keys
    (any other key raises ``TypeError``), without the pure-Python encoder
    that ``json`` falls back to whenever ``indent`` is set.  Strings, plain
    ints, ``True``, ``False`` and ``None`` are written as ``json`` writes
    them, and a ``MonotoneSystem`` as its ``system_to_json`` dict; every
    other leaf goes to ``json.dumps``, which raises for values JSON cannot
    hold."""
    if isinstance(obj, dict):
        values, brackets = obj.values(), "{}"
    elif isinstance(obj, (list, tuple)):
        values, brackets = obj, "[]"
    elif isinstance(obj, MonotoneSystem):
        return _system_text(obj, pad)
    elif isinstance(obj, str):
        return _encode_str(obj)
    elif type(obj) is int:
        return int.__repr__(obj)
    elif obj is None:
        return "null"
    elif obj is True:
        return "true"
    elif obj is False:
        return "false"
    else:
        return json.dumps(obj)
    if not obj:
        return brackets
    inner = pad + "  "
    texts = []
    for v in values:  # strings, plain ints and booleans inline, the rest by a call
        kind = type(v)
        if kind is str:
            texts.append(_encode_str(v))
        elif kind is int:
            texts.append(int.__repr__(v))
        elif kind is bool:
            texts.append("true" if v else "false")
        else:
            texts.append(json_text(v, inner))
    if values is not obj:
        texts = [_encode_str(k) + ": " + text for k, text in zip(obj, texts)]
    return brackets[0] + inner + ("," + inner).join(texts) + pad + brackets[1]


# --- measurement and evaluation -----------------------------------------------


def encoding_size(sys: MonotoneSystem) -> int:
    """Deterministic bit size |P| of the sparse representation.

    Per monomial: bit lengths of the coefficient's numerator and denominator,
    plus, for every listed exponent, the bit lengths of the 1-based variable
    index and of the exponent.  Every theorem-derived parameter in this
    package uses this measure; it is one admissible convention (the
    underlying results fix |P| only up to constant factors) and solver
    reports flag it as such.
    """
    total = 0
    for terms in sys.equations:
        for mono in terms:
            total += mono.coeff.numerator.bit_length() + mono.coeff.denominator.bit_length()
            for v, e in mono.exponents:
                total += (v + 1).bit_length() + e.bit_length()
    return max(total, sys.n, 1)


def evaluate(sys: MonotoneSystem, z: Sequence) -> list:
    """Exact P(z)."""
    if len(z) != sys.n:
        raise ValueError("point has wrong dimension")
    out = []
    for terms in sys.equations:
        acc = ZERO
        for mono in terms:
            value = mono.evaluate(z)
            if value != 0:
                acc = acc + value
        out.append(acc)
    return out


def evaluate_scaled(sys: MonotoneSystem, x: Sequence[int], s: int) -> list:
    """L s**D P(x / s) for non-negative integer numerators x over one scale
    s >= 1, with L and D those of ``MonotoneSystem.integer_form``: every
    term is an integer at that scale, so no rational is ever normalized."""
    form = sys.integer_form
    powers = [1] + [None] * form.degree  # s**gap, computed once for each gap that occurs
    out = []
    for terms in form.equations:
        acc = 0
        for coeff, exponents, gap in terms:
            value = coeff
            for v, e in exponents:
                xv = x[v]
                if xv == 0:
                    break
                value *= xv if e == 1 else xv**e
            else:
                power = powers[gap]
                if power is None:
                    power = powers[gap] = s**gap
                acc += value * power
        out.append(acc)
    return out


def eval_jacobian(sys: MonotoneSystem, z: Sequence) -> list:
    """Exact Jacobian B(z) for a quadratic system (degree <= 2), as sparse
    rows: row i is a {column: value} dict holding only the nonzero entries."""
    if len(z) != sys.n:
        raise ValueError("point has wrong dimension")
    b = []
    for i, terms in enumerate(sys.equations):
        row = {}
        for mono in terms:
            d = mono.degree
            if d > 2:
                raise DegreeTooHigh(
                    f"equation {sys.names[i]} has a degree-{d} monomial; "
                    "convert to simple normal form first"
                )
            if d == 0:
                continue
            if d == 1:
                ((v, _),) = mono.exponents
                _add_entry(row, v, mono.coeff)
            elif len(mono.exponents) == 1:  # c * x_v^2
                ((v, _),) = mono.exponents
                if z[v]:
                    _add_entry(row, v, 2 * mono.coeff * z[v])
            else:  # c * x_a * x_b with a < b
                (a, _), (bb, _) = mono.exponents
                if z[bb]:
                    _add_entry(row, a, mono.coeff * z[bb])
                if z[a]:
                    _add_entry(row, bb, mono.coeff * z[a])
        b.append(row)
    return b


def _add_entry(row: dict, j: int, value) -> None:
    """row[j] += value for a nonzero value, keeping exact zeros out of row."""
    prev = row.get(j)
    if prev is None:
        row[j] = value
        return
    total = prev + value
    if total:
        row[j] = total
    else:
        del row[j]


def c_min(sys: MonotoneSystem):
    """Smallest coefficient or constant in the system (1 if none), from ``integer_form``."""
    form = sys.integer_form
    lowest = min((c for terms in form.equations for c, _, _ in terms), default=form.denominator)
    return Rat(lowest, form.denominator)


def norm_p_one(sys: MonotoneSystem):
    """||P(1)||_inf, the largest per-equation coefficient sum, from ``integer_form``."""
    form = sys.integer_form
    return Rat(max((sum(c for c, _, _ in terms) for terms in form.equations), default=0), form.denominator)


# --- simple normal form ---------------------------------------------------------


@dataclass(frozen=True)
class SnfSystem:
    """A quadratic system in simple normal form.

    Every equation is either a single unit-coefficient product of two
    variables ("star") or linear ("plus").  Original variables keep their
    indices and names, and the product variables follow them.
    """

    system: MonotoneSystem
    forms: tuple


def to_snf(sys: MonotoneSystem) -> SnfSystem:
    """Rewrite to simple normal form with fresh product variables.

    Each monomial of degree >= 2 is split left-associated over its variable
    list (in index order, repeated per exponent), introducing one fresh
    "star" equation per product; the coefficient stays on the host equation,
    which becomes linear.  The least fixed point projected to the original
    variables is unchanged.  Linear input passes through untouched.
    """
    used = set(sys.names)
    aux_names: list[str] = []
    aux_eqs: list[tuple] = []
    n0 = sys.n

    def fresh_name() -> str:
        name = f"w{len(aux_names) + 1}"
        while name in used:
            name = "_" + name
        used.add(name)
        return name

    rewritten = []
    for terms in sys.equations:
        new_terms = []
        before = len(aux_eqs)
        for mono in terms:
            exps = mono.exponents
            if len(exps) < 2 and (not exps or exps[0][1] == 1):  # degree <= 1
                new_terms.append(mono)
                continue
            flat = [v for v, e in mono.exponents for _ in range(e)]
            current = flat[0]
            for nxt in flat[1:]:
                if current == nxt:
                    exps = ((current, 2),)
                else:
                    exps = tuple(sorted(((current, 1), (nxt, 1))))
                index = n0 + len(aux_eqs)
                aux_eqs.append((_monomial(ONE, exps),))
                aux_names.append(fresh_name())
                current = index
            new_terms.append(_monomial(mono.coeff, ((current, 1),)))
        rewritten.append(tuple(new_terms) if len(aux_eqs) > before else terms)  # unsplit: shared

    snf = _system(tuple(sys.names) + tuple(aux_names), tuple(rewritten) + tuple(aux_eqs))
    forms = ("plus",) * n0 + ("star",) * len(aux_eqs)
    return SnfSystem(snf, forms)


# --- zero variables and cleaning -------------------------------------------------


def detect_zero_variables(sys: MonotoneSystem) -> frozenset:
    """Indices i with least-fixed-point coordinate exactly 0.

    Variable i is positive once some monomial of its equation has all of
    its variables positive (constants vacuously).  Each monomial counts
    its variables not yet positive; a worklist of monomials at count 0
    marks each one's variable and counts down the monomials mentioning it,
    so the least fixpoint takes one pass over the terms.  The unmarked
    variables are exactly the zero set of the n-fold value iterate from 0.
    """
    positive = [False] * sys.n
    owner = []  # monomial id -> the variable whose equation holds it
    missing = []  # monomial id -> count of its variables not yet positive
    uses = [[] for _ in range(sys.n)]  # variable -> ids of the monomials mentioning it
    for i, terms in enumerate(sys.equations):
        for mono in terms:
            for v, _ in mono.exponents:
                uses[v].append(len(owner))
            owner.append(i)
            missing.append(len(mono.exponents))
    worklist = [m for m, count in enumerate(missing) if not count]
    while worklist:
        i = owner[worklist.pop()]
        if positive[i]:
            continue
        positive[i] = True
        for m in uses[i]:
            missing[m] -= 1
            if not missing[m]:
                worklist.append(m)
    return frozenset(i for i, mark in enumerate(positive) if not mark)


def restrict(sys: MonotoneSystem, members: Sequence[int], values: Sequence) -> MonotoneSystem:
    """The equations of ``members`` (increasing indices), reindexed in that
    order, with every other variable v replaced by the exact non-negative
    value ``values[v]``.

    A value of 0 deletes each monomial that mentions v (never a constant
    term); any other value is folded into the coefficient.  The entries of
    ``values`` at the members are never read.  The solver makes two
    substitutions, at most once each per solve: 0 for the zero variables
    (``clean``) and 1 for the proved q* = 1 set; components read their
    solved lower variables in place (``newton.newton_rows``).  A monomial
    whose variables all keep their index is returned as it is, and so is an
    equation of such monomials; the rest are built unchecked, and so is the
    system.
    """
    local = {v: i for i, v in enumerate(members)}
    equations = []
    for v in members:
        eq = sys.equations[v]
        terms = []
        changed = False
        for mono in eq:
            for j, _ in mono.exponents:
                if local.get(j) != j:
                    break
            else:
                terms.append(mono)
                continue
            changed = True
            coeff = mono.coeff
            kept = []
            for j, e in mono.exponents:
                k = local.get(j)
                if k is not None:
                    kept.append((k, e))
                    continue
                value = values[j]
                if value == 0:
                    break
                coeff = coeff * (value if e == 1 else value**e)
            else:
                terms.append(_monomial(coeff, tuple(kept)))
        equations.append(tuple(terms) if changed else eq)
    return _system(tuple(sys.names[v] for v in members), tuple(equations))


def clean(sys: MonotoneSystem):
    """Remove zero variables; returns (cleaned system, kept original indices).

    Equations of zero variables are dropped and every monomial mentioning a
    zero variable is deleted from the remaining right-hand sides (its value
    is identically 0; constants are never dropped).  The result has a
    strictly positive least fixed point in every coordinate; it may be the
    empty system.
    """
    zeros = detect_zero_variables(sys)
    kept = tuple(i for i in range(sys.n) if i not in zeros)
    return restrict(sys, kept, [0] * sys.n), kept
