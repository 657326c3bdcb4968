"""Seeded input cycles for the three benchmark workloads.

An op is one command line of the `shallow-chars` CLI.  Each workload is a
fixed cycle of input classes; the seed only permutes the cycle and picks
parameter values, never which classes run, so one pass costs about the
same on every seed.  Every op carries the facts its output is checked
against.  Those facts come from construction, not from running the
pipelines: set-up uses nothing of the package beyond the root system and
the shallow census (`shallow_roots`, `is_indecomposable`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from shallow_chars.affine_roots import (
    barycenter,
    facet_of,
    facet_point,
    is_indecomposable,
    shallow_roots,
    simple_affine_roots,
)
from shallow_chars.root_system import build_root_system

WORKLOADS = ("solve", "verify-hom", "weyl-scan")

# The paper's Sp4 example (C2 barycenter, q=2), in enumeration order.
SP4_EXAMPLE = (1, 0, 0, 1, 1, 0, 1, 1)


def prime_power(q: int) -> Tuple[int, int]:
    """(p, m) with q = p^m."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    m, n = 0, q
    while n % p == 0:
        n, m = n // p, m + 1
    if n != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, m


@dataclass
class Site:
    """A context as the census sees it: type, field, point, shallow roots."""

    cartan_type: str
    q: int
    facet: Optional[Tuple[int, ...]]  # None means the barycenter
    letter: str = field(init=False)
    rank: int = field(init=False)
    p: int = field(init=False)
    m: int = field(init=False)
    point: Tuple[Fraction, ...] = field(init=False)
    roots: tuple = field(init=False)
    indecomposable: Tuple[bool, ...] = field(init=False)
    simple_positions: Tuple[int, ...] = field(init=False)
    rs: object = field(init=False, repr=False)

    def __post_init__(self):
        self.rs = rs = build_root_system(self.cartan_type)
        self.letter, self.rank = rs.letter, rs.rank
        self.p, self.m = prime_power(self.q)
        if self.facet is None:
            self.point = barycenter(rs)
        else:
            self.point = facet_point(rs, self.facet)
        self.roots = shallow_roots(rs, self.point)
        J = facet_of(rs, self.point)
        self.indecomposable = tuple(is_indecomposable(rs, r, J) for r in self.roots)
        index = {r: k for k, r in enumerate(self.roots)}
        self.simple_positions = tuple(
            index[a] for a in simple_affine_roots(rs) if a in index
        )

    @property
    def at_barycenter(self) -> bool:
        return self.facet is None

    @property
    def n_roots(self) -> int:
        return len(self.roots)

    def context_args(self) -> List[str]:
        args = ["--type", self.cartan_type, "--q", str(self.q)]
        if self.facet is not None:
            args += ["--facet", ",".join(map(str, self.facet))]
        return args

    def zero_extension(self, rng: random.Random) -> List[int]:
        """Random values on the indecomposables, zero elsewhere: always valid."""
        vec = [rng.randrange(self.q) if ind else 0 for ind in self.indecomposable]
        first = self.indecomposable.index(True)
        if not any(vec):
            vec[first] = rng.randrange(1, self.q)
        return vec

    def broken_extension(self, rng: random.Random) -> List[int]:
        """A zero extension plus a nonzero value on some A_i + A_j.

        For adjacent nodes i, j of the affine diagram the commutator of
        u_{A_i} and u_{A_j} has the factor u_{A_i + A_j}(+-xy): the
        constant is +-1 because A_j - A_i is not a root.  Every other
        target of that pair is decomposable and carries zero, so the
        relation of the pair fails and the vector is invalid over any
        F_q.  Needs the barycenter, where A_i + A_j is shallow.
        """
        assert self.at_barycenter
        simples = simple_affine_roots(self.rs)
        index = {r: k for k, r in enumerate(self.roots)}
        sums = []
        for i, a in enumerate(simples):
            for b in simples[i + 1 :]:
                g = tuple(x + y for x, y in zip(a.gradient, b.gradient))
                target = type(a)(g, a.level + b.level)
                if target in index:
                    sums.append(index[target])
        vec = self.zero_extension(rng)
        vec[rng.choice(sorted(sums))] = rng.randrange(1, self.q)
        return vec

    def epipelagic(self, rng: random.Random, zero_node: Optional[int]) -> List[int]:
        """Nonzero values on the simple affine roots except `zero_node`."""
        vec = [0] * self.n_roots
        for node, pos in enumerate(self.simple_positions):
            if node != zero_node:
                vec[pos] = rng.randrange(1, self.q)
        return vec


@dataclass
class Op:
    """One CLI invocation together with what its output must satisfy."""

    label: str  # the input class; every pass runs each label once
    command: str
    argv: List[str]
    site: Optional[Site] = None
    params: Optional[List[int]] = None
    facts: Dict = field(default_factory=dict)


def _params(vec: Sequence[int]) -> List[str]:
    return ["--params", ",".join(map(str, vec))]


def solve_op(site: Site) -> Op:
    where = "barycenter" if site.at_barycenter else "facet " + ",".join(map(str, site.facet))
    return Op(
        f"solve {site.cartan_type} q={site.q} {where}",
        "solve",
        ["solve", *site.context_args(), "--json"],
        site,
    )


def verify_op(site: Site, vec: Sequence[int], valid: bool, tag: str) -> Op:
    return Op(
        f"verify-hom {site.cartan_type} q={site.q} {tag}",
        "verify-hom",
        ["verify-hom", *site.context_args(), "--mode", "generators", *_params(vec), "--json"],
        site,
        list(vec),
        {"valid": valid},
    )


def star_op(site: Site, vec: Sequence[int], stable: bool) -> Op:
    tag = "stable" if stable else "unstable"
    return Op(
        f"check-star {site.cartan_type} {tag}",
        "check-star",
        ["check-star", *site.context_args(), *_params(vec), "--json"],
        site,
        list(vec),
        {"stable": stable},
    )


def intertwine_op(site: Site, vec: Sequence[int], radius: int, tag: str) -> Op:
    return Op(
        f"intertwine {site.cartan_type} {tag} r={radius}",
        "intertwine",
        ["intertwine", *site.context_args(), "--radius", str(radius), *_params(vec), "--json"],
        site,
        list(vec),
        {"radius": radius},
    )


def reproduce_op() -> Op:
    return Op("reproduce-sp4", "reproduce-sp4", ["reproduce-sp4", "--json"], facts={"radius": 8})


def _solve_cycle(rng: random.Random) -> List[Op]:
    # Too large for the oracle (q^N > 2^12): adjoint peeling dominates.
    # Small enough for it: the brute oracle and validate dominate.
    sites = [
        Site("G2", 3, None),
        Site("G2", 3, (1, 2)),
        Site("B3", 2, None),
        Site("D4", 2, None),
        Site("A3", 2, None),
        Site("A2", 4, None),
        Site("B3", 2, (0, 1)),
    ]
    return [solve_op(s) for s in sites]


def _verify_cycle(rng: random.Random) -> List[Op]:
    # 4096 to 6561 cosets; prime and non-prime q; matrix and adjoint pinnings.
    ops = []
    for site in (Site("C2", 3, None), Site("A3", 2, None), Site("G2", 2, None), Site("A2", 4, None)):
        ops.append(verify_op(site, site.zero_extension(rng), True, "valid"))
        ops.append(verify_op(site, site.broken_extension(rng), False, "invalid"))
    ops.append(verify_op(Site("C2", 2, None), SP4_EXAMPLE, True, "sp4-example"))
    return ops


# The node left at zero in the unstable epipelagic characters.  It is
# fixed per type because the (*) search stops at its first witness and
# its cost depends on which simple parameter vanishes.
UNSTABLE_NODE = {"C4": 4, "D4": 0, "B4": 4, "F4": 0}


def _weyl_cycle(rng: random.Random) -> List[Op]:
    ops = []
    for t in ("C4", "D4", "B4", "F4"):
        site = Site(t, 3, None)
        ops.append(star_op(site, site.epipelagic(rng, None), True))
        ops.append(star_op(site, site.epipelagic(rng, UNSTABLE_NODE[t]), False))
    c2 = Site("C2", 2, None)
    ops.append(intertwine_op(c2, SP4_EXAMPLE, 16, "sp4-example"))
    for t, radius in (("C2", 8), ("C3", 6), ("A3", 6)):
        site = Site(t, 3, None)
        ops.append(intertwine_op(site, site.epipelagic(rng, None), radius, "stable"))
    ops.append(reproduce_op())
    return ops


_CYCLES = {"solve": _solve_cycle, "verify-hom": _verify_cycle, "weyl-scan": _weyl_cycle}


def build_cycle(workload: str, seed: int) -> List[Op]:
    """The workload's input cycle for this seed, in the order a pass runs it."""
    rng = random.Random(f"{workload}/{seed}")
    ops = _CYCLES[workload](rng)
    rng.shuffle(ops)
    return ops
