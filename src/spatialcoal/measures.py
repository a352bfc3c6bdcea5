"""Lambda and Xi measures, the coalescent rates they induce, and the exact
non-spatial coalescent (holding times + jump chain)."""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy import integrate, special

from .forests import Forest, TimeDecoration
from .partitions import (
    MergerSignature,
    Partition,
    count_mergers,
    enumerate_coarsenings,
    merger_signature,
    signatures_for,
)

QUAD_REL_TOL = 1e-10


@dataclass(frozen=True)
class LambdaMeasure:
    """A finite measure on [0,1]: weighted atoms plus an optional density part.

    The density part is ``uniform`` or ``beta(a, b)``, scaled by ``mass``.
    """

    atoms: tuple[tuple[float, float], ...] = ()  # (location p, mass w)
    density: dict | None = None

    def __post_init__(self):
        for p, w in self.atoms:
            if not (0.0 <= p <= 1.0):
                raise ValueError("atom location outside [0,1]")
            if w <= 0:
                raise ValueError("atom mass must be positive")
        if self.density is not None:
            name = self.density.get("name")
            if name not in ("uniform", "beta"):
                raise ValueError(f"unknown density part {name!r}")
            if self.density.get("mass", 1.0) <= 0:
                raise ValueError("density mass must be positive")

    @property
    def total_mass(self) -> float:
        m = sum(w for _, w in self.atoms)
        if self.density is not None:
            m += self.density.get("mass", 1.0)
        return m

    @classmethod
    def kingman(cls) -> "LambdaMeasure":
        return cls(atoms=((0.0, 1.0),))

    @classmethod
    def uniform(cls, mass: float = 1.0) -> "LambdaMeasure":
        return cls(density={"name": "uniform", "mass": mass})

    @classmethod
    def beta(cls, a: float, b: float, mass: float = 1.0) -> "LambdaMeasure":
        return cls(density={"name": "beta", "a": a, "b": b, "mass": mass})


@dataclass(frozen=True)
class XiMeasure:
    """A finite measure on the simplex: Kingman atom at zero plus finitely
    many atoms with finite support vectors."""

    kingman_mass: float = 0.0
    atoms: tuple[tuple[tuple[float, ...], float], ...] = ()

    def __post_init__(self):
        if self.kingman_mass < 0:
            raise ValueError("kingman mass must be >= 0")
        for xi, w in self.atoms:
            if w <= 0:
                raise ValueError("atom mass must be positive")
            if any(x < 0 for x in xi) or sum(xi) > 1 + 1e-12:
                raise ValueError("atom vector must lie in the simplex")
            if tuple(sorted(xi, reverse=True)) != tuple(xi):
                raise ValueError("atom vector must be non-increasing")
            if sum(x * x for x in xi) == 0:
                raise ValueError("atom with (xi, xi) = 0")

    @property
    def total_mass(self) -> float:
        return self.kingman_mass + sum(w for _, w in self.atoms)


def lambda_rate(L: LambdaMeasure, n: int, k: int) -> float:
    """Rate of a k-merger among n lineages: int p^(k-2) (1-p)^(n-k) L(dp)."""
    if not 2 <= k <= n:
        raise ValueError("need 2 <= k <= n")
    total = 0.0
    for p, w in L.atoms:
        # 0^0 = 1 convention at the endpoints of [0,1]
        total += w * p ** (k - 2) * (1.0 - p) ** (n - k)
    if L.density is not None:
        d = L.density
        mass = d.get("mass", 1.0)
        if d["name"] == "uniform":
            total += mass * special.beta(k - 1, n - k + 1)
        else:  # beta(a, b), closed form via the Beta function
            a, b = d["a"], d["b"]
            total += mass * special.beta(a + k - 2, b + n - k) / special.beta(a, b)
    return total


def _xi_atom_rate(xi: Sequence[float], sig: MergerSignature) -> float:
    """Per-unit-mass contribution of one simplex atom, before dividing by (xi,xi)."""
    xi = [x for x in xi if x > 0]
    q = len(xi)
    m = sig.m
    s = sig.n - sum(sig.ks)
    slack = 1.0 - sum(xi)
    total = 0.0
    for l in range(s + 1):
        if m + l > q:
            break
        inner = 0.0
        for idx in itertools.permutations(range(q), m + l):
            term = 1.0
            for j in range(m):
                term *= xi[idx[j]] ** sig.ks[j]
            for j in range(m, m + l):
                term *= xi[idx[j]]
            inner += term
        total += math.comb(s, l) * slack ** (s - l) * inner
    return total


def xi_rate(X: XiMeasure, sig: MergerSignature) -> float:
    """Transition rate of the simultaneous-multiple-merger coalescent."""
    total = 0.0
    if sig.ks == (2,):
        total += X.kingman_mass
    for xi, w in X.atoms:
        dot = sum(x * x for x in xi)
        total += w * _xi_atom_rate(xi, sig) / dot
    return total


def lambda_to_xi(L: LambdaMeasure) -> XiMeasure:
    """Embed a measure on [0,1] as a simplex measure via p -> (p, 0, ...).

    Only the atomic part embeds exactly; density parts are rejected.
    """
    if L.density is not None:
        raise ValueError("density parts cannot be embedded as finite simplex atoms")
    kingman = 0.0
    atoms = []
    for p, w in L.atoms:
        if p == 0.0:
            kingman += w
        else:
            atoms.append(((p,), w))
    return XiMeasure(kingman_mass=kingman, atoms=tuple(atoms))


@dataclass
class RateTable:
    """All merger rates up to ``n_max`` plus the total jump rates."""

    rates: dict[MergerSignature, float]
    n_max: int

    def rate(self, sig: MergerSignature) -> float:
        return self.rates.get(sig, 0.0)

    def transition_rate(self, p: Partition, q: Partition) -> float:
        return self.rate(merger_signature(p, q))

    def total(self, n: int) -> float:
        """Total jump rate while at n lineages.

        Raises ``ValueError`` above ``n_max``, where the table holds no
        rates: reading 0 there would make the configuration absorbing.
        """
        if n < 2:
            return 0.0
        if n > self.n_max:
            raise ValueError(
                f"rate table covers at most {self.n_max} lineages, not {n}"
            )
        return sum(
            count_mergers(n, sig) * self.rates.get(sig, 0.0)
            for sig in signatures_for(n)
        )

    def is_absorbing(self, p: Partition) -> bool:
        return self.total(len(p)) == 0.0


def build_rate_table(spec: LambdaMeasure | XiMeasure, n_max: int) -> RateTable:
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    rates: dict[MergerSignature, float] = {}
    for n in range(2, n_max + 1):
        for sig in signatures_for(n):
            if isinstance(spec, LambdaMeasure):
                r = lambda_rate(spec, n, sig.ks[0]) if sig.m == 1 else 0.0
            else:
                r = xi_rate(spec, sig)
            rates[sig] = r
    return RateTable(rates=rates, n_max=n_max)


@dataclass
class ConsistencyReport:
    checks: list[tuple[MergerSignature, float, float, bool]]

    @property
    def passed(self) -> bool:
        return all(ok for *_, ok in self.checks)

    @property
    def failures(self) -> list[MergerSignature]:
        return [sig for sig, *_, ok in self.checks if not ok]


def check_consistency(t: RateTable, tol: float = 1e-10) -> ConsistencyReport:
    """Verify the subsampling recursion of sampling-consistent rates.

    Adding an (n+1)'st lineage, a specific (n, ks)-merger is the restriction
    of: the same event not involving the new lineage; the new lineage joining
    any one of the m groups; or the new lineage pairing with any of the
    non-participating blocks.
    """
    checks = []
    for n in range(2, t.n_max):
        for sig in signatures_for(n):
            lhs = t.rate(sig)
            rhs = t.rate(MergerSignature(n + 1, sig.ks))
            for i in range(sig.m):
                grown = list(sig.ks)
                grown[i] += 1
                rhs += t.rate(
                    MergerSignature(n + 1, tuple(sorted(grown, reverse=True)))
                )
            s = n - sum(sig.ks)
            if s > 0:
                rhs += s * t.rate(
                    MergerSignature(n + 1, tuple(sorted(sig.ks + (2,), reverse=True)))
                )
            scale = max(abs(lhs), abs(rhs), 1.0)
            checks.append((sig, lhs, rhs, abs(lhs - rhs) <= tol * scale))
    return ConsistencyReport(checks)


def sample_nonspatial_path(
    t: RateTable, p0: Partition, rng: np.random.Generator
) -> tuple[Forest, TimeDecoration]:
    """Exact sample of the non-spatial coalescent started from ``p0``.

    Holding times are exponential with the total rate, the jump chain picks a
    coarsening proportionally to its rate.  Runs until an absorbing state.
    """
    levels = [p0]
    times: list[float] = []
    clock = 0.0
    current = p0
    while True:
        lam = t.total(len(current))
        if lam <= 0.0:
            break
        coarsenings = enumerate_coarsenings(current)
        weights = np.array([t.transition_rate(current, q) for q in coarsenings])
        total = weights.sum()
        clock += rng.exponential(1.0 / lam)
        q = coarsenings[rng.choice(len(coarsenings), p=weights / total)]
        levels.append(q)
        times.append(clock)
        current = q
    return Forest(tuple(levels)), TimeDecoration(tuple(times))


def ftm_density(t: RateTable, f: Forest, tau: TimeDecoration) -> float:
    """Density of the non-spatial coalescent over time-decorated forests."""
    if len(tau.times) != f.m:
        raise ValueError("decoration does not match forest")
    if t.total(len(f.roots)) > 0.0:
        return 0.0
    out = 1.0
    prev_t = 0.0
    for i in range(f.m):
        lam = t.total(len(f.levels[i]))
        rate = t.transition_rate(f.levels[i], f.levels[i + 1])
        dt = tau.times[i] - prev_t
        out *= rate * math.exp(-lam * dt)
        prev_t = tau.times[i]
    return out


# -- MeasureSpec JSON interchange -------------------------------------------


def measure_from_dict(d: dict) -> LambdaMeasure | XiMeasure:
    kind = d.get("kind")
    if kind == "lambda":
        atoms = tuple((a["p"], a["mass"]) for a in d.get("atoms", []))
        return LambdaMeasure(atoms=atoms, density=d.get("density"))
    if kind == "xi":
        atoms = tuple((tuple(a["xi"]), a["mass"]) for a in d.get("atoms", []))
        return XiMeasure(kingman_mass=d.get("kingman", 0.0), atoms=atoms)
    raise ValueError(f"unknown measure kind {kind!r}")


def measure_to_dict(m: LambdaMeasure | XiMeasure) -> dict:
    if isinstance(m, LambdaMeasure):
        out: dict = {
            "kind": "lambda",
            "atoms": [{"p": p, "mass": w} for p, w in m.atoms],
        }
        if m.density is not None:
            out["density"] = dict(m.density)
        return out
    return {
        "kind": "xi",
        "kingman": m.kingman_mass,
        "atoms": [{"xi": list(xi), "mass": w} for xi, w in m.atoms],
    }


def load_measure(path) -> LambdaMeasure | XiMeasure:
    with open(path) as fh:
        return measure_from_dict(json.load(fh))
