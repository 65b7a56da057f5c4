"""search-sweep: in-process classify_family on expressions compiled per operation.

Each operation parses and compiles a seeded superpotential template, then
classifies it on a 2001-point grid.  Shape-invariant templates (oscillator,
Pöschl-Teller, Morse, radial Coulomb) find a transform; the cubic templates
have a bound V₋ ground state but no transform, so their searches scan every
candidate.  Seeded literal coefficients make every input string distinct.
Pöschl-Teller keeps A above 2.5: below that the translation window [-5, 5]
also holds the R = 0 mirror step A -> -A, the coarse scan can settle there,
and the factorizability verdict then depends on which basin it lands in.

A block holds each shape-invariant template once and each cubic template
four times, in seeded order.  The cubic searches cost the same on every
input, and with as many two-parameter as shape-invariant operations the
median sits in the middle of the one-parameter cubic operations and the
tail among the two-parameter ones, so neither figure straddles two
templates' costs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import susyqm as sq

from checks import (NON_SI_VERDICT, R_TOL, SI_VERDICT, apply_transform, close,
                    verdict)

N_POINTS = 2001
BLOCK = ("harmonic", "coulomb", "morse", "poschl-teller") + ("cubic",) * 4 \
    + ("cubic-linear",) * 4

#: Whether operations run in the benchmark process (and are traced there).
IN_PROCESS = True


@dataclass(frozen=True)
class Op:
    template: str
    text: str
    params: dict
    domain: tuple[float, float]
    hard_wall_left: bool = False
    charge: float = 0.0  # the literal q of the Coulomb template


def _lit(value: float) -> str:
    return f"{'+' if value >= 0 else '-'} {abs(value):.4f}"


def _draw(rng: random.Random, template: str) -> Op:
    def u(lo, hi):
        return round(rng.uniform(lo, hi), 4)

    def offset():
        return rng.choice((-1, 1)) * u(0.1, 0.5)

    if template == "harmonic":
        return Op(template, f"a*x {_lit(offset())}", {"a": u(0.6, 1.6)}, (-10.0, 10.0))
    if template == "poschl-teller":
        return Op(template, f"A*tanh({u(0.8, 1.25):.4f}*x)", {"A": u(2.6, 4.0)},
                  (-10.0, 10.0))
    if template == "morse":
        return Op(template, f"A - {u(0.6, 1.6):.4f}*exp(-x)", {"A": u(1.5, 3.5)},
                  (-5.0, 10.0))
    if template == "coulomb":
        q = u(1.5, 3.0)
        return Op(template, f"{q:.4f}/(2*(l+1)) - (l+1)/x", {"l": 0.0},
                  (1e-3, 160.0), hard_wall_left=True, charge=q)
    if template == "cubic":
        return Op(template, f"a*x^3 {_lit(offset())}", {"a": u(0.5, 1.5)}, (-6.0, 6.0))
    return Op(template, f"a*x^3 + c*x {_lit(offset())}",
              {"a": u(0.5, 1.5), "c": u(0.2, 1.0)}, (-6.0, 6.0))


def blocks(seed: int):
    rng = random.Random(f"search-sweep:{seed}")
    seen: set[str] = set()
    while True:
        order = list(BLOCK)
        rng.shuffle(order)
        block = []
        for template in order:
            op = _draw(rng, template)
            while op.text in seen:
                op = _draw(rng, template)
            seen.add(op.text)
            block.append(op)
        yield block


def execute(op: Op, ctx) -> dict:
    family = sq.SuperpotentialFamily.from_expression(
        op.text, domain=op.domain, hard_wall_left=op.hard_wall_left)
    grid = sq.make_grid(op.domain[0], op.domain[1], N_POINTS)
    return sq.classify_family(family, op.params, grid).to_dict()


def _step_energy(op: Op, a0: dict, a1: dict) -> float:
    """Closed-form R for the step a0 -> a1 of a shape-invariant template."""
    if op.template == "harmonic":
        return a0["a"] + a1["a"]
    if op.template == "coulomb":
        return op.charge ** 2 / 4.0 * (1.0 / (a0["l"] + 1.0) ** 2 - 1.0 / (a1["l"] + 1.0) ** 2)
    return a0["A"] ** 2 - a1["A"] ** 2


def check(op: Op, tag: dict, ctx) -> list[str]:
    want = NON_SI_VERDICT if op.template.startswith("cubic") else SI_VERDICT
    if verdict(tag) != want:
        return [f"verdict {verdict(tag)}, expected {want}"]
    if want is NON_SI_VERDICT:
        return []
    found = next(e for e in tag["evidence"] if e["kind"] == "transform-search")
    a1 = apply_transform(found["transform"], op.params)
    mean = found["report"]["residual_mean"]
    r = _step_energy(op, op.params, a1)
    if not close(mean, r, R_TOL):
        return [f"residual mean {mean!r} vs closed-form R {r!r}"]
    return []
