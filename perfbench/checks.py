"""Reference arithmetic the workloads check susyqm's results against.

Tolerances are the acceptance suite's (tests/test_acceptance.py): residual
means to 1e-6, oracle and hierarchy energies to 5e-3, chain-built states to
1e-3 in L2, charge algebra to 1e-10 of the Hamiltonian scale, block
eigenvalues no lower than -1e-10.
"""

from __future__ import annotations

import math

import numpy as np

R_TOL = 1e-6
ENERGY_TOL = 5e-3
STATE_L2_TOL = 1e-3
BLOCK_FLOOR = -1e-10

#: Record names as the README lists them.
CATALOG_NAMES = ["shifted-harmonic", "morse", "poschl-teller", "coulomb-radial",
                 "scaling-demo", "cyclic-demo"]

SI_VERDICT = ("yes", "yes", "yes", "certified")
NON_SI_VERDICT = ("yes", "no-within-search", "no-within-search", "unknown")
#: Declared-only records: shape invariant, but not under a translation.
DECLARED_VERDICT = ("yes", "yes", "no-within-search", "certified")


def verdict(tag: dict) -> tuple:
    return (tag["susy"], tag["shape_invariant"], tag["ih_factorizable"],
            tag["exactly_solvable"])


def apply_transform(t: dict, a0: dict) -> dict:
    """Image of a0 under a transform in its ``to_dict`` form."""
    out = dict(a0)
    if not a0:
        return out
    name = t.get("param") or next(iter(a0))
    a, kind = a0[name], t["kind"]
    if kind == "translation":
        out[name] = a + t["alpha"]
    elif kind == "scaling":
        out[name] = t["q"] * a
    elif kind == "power-scaling":
        out[name] = t["q"] * a ** t["p"]
    elif kind == "projective":
        out[name] = t["q"] * a / (1.0 + t["p"] * a)
    else:
        raise ValueError(f"unexpected transform kind {kind!r}")
    return out


def close(got: float, want: float, tol: float) -> bool:
    return math.isfinite(got) and abs(got - want) < tol


def count_nodes(values: np.ndarray, rel: float = 1e-6) -> int:
    """Interior sign changes, skipping values below ``rel`` of the peak."""
    inner = values[1:-1]
    big = inner[np.abs(inner) > rel * np.max(np.abs(values))]
    signs = np.sign(big)
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def trapezoid_norm2(x: np.ndarray, psi: np.ndarray) -> float:
    return float(np.trapezoid(psi * psi, x))
