"""Correctness checks for each op's output.

Each check compares a parsed `--json` output with facts that hold
independently of the code under test: the degrees of the Weyl group,
Bott's formula for the affine Weyl group, the Reeder-Yu count of
epipelagic characters, validity known by construction, and properties
the output must have (monotone filtration, independent basis, witness
inequalities).  None compares with a stored copy of an earlier output.
A failed check raises CheckError.

    python3 perfbench/checks.py

prints every reference value the checks derive (ball sizes, root counts,
epipelagic dimensions, collection counts) for the benchmark's inputs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

class CheckError(AssertionError):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# ----------------------------------------------------------------------
# independent facts

def degrees(letter: str, rank: int) -> Tuple[int, ...]:
    """Degrees of the basic invariants of the finite Weyl group."""
    if letter == "A":
        return tuple(range(2, rank + 2))
    if letter in ("B", "C"):
        return tuple(range(2, 2 * rank + 1, 2))
    if letter == "D":
        return tuple(sorted([*range(2, 2 * rank - 1, 2), rank]))
    return {
        ("G", 2): (2, 6),
        ("F", 4): (2, 6, 8, 12),
        ("E", 6): (2, 5, 6, 8, 9, 12),
        ("E", 7): (2, 6, 8, 10, 12, 14, 18),
        ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30),
    }[(letter, rank)]


def coxeter_number(letter: str, rank: int) -> int:
    return max(degrees(letter, rank))


def _series_mul(a: List[int], b: List[int], n: int) -> List[int]:
    out = [0] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        if x:
            for j, y in enumerate(b[: n + 1 - i]):
                out[i + j] += x * y
    return out


def ball_size(letter: str, rank: int, radius: int) -> int:
    """Affine Weyl elements of length <= radius, by Bott's formula.

    The Poincare series is prod_i (1 - t^{d_i}) / ((1 - t)(1 - t^{d_i - 1})).
    """
    n = radius
    series = [1] + [0] * n
    for d in degrees(letter, rank):
        # (1 - t^d) / (1 - t) = 1 + t + ... + t^{d-1}
        series = _series_mul(series, [1 if k < d else 0 for k in range(n + 1)], n)
        # 1 / (1 - t^{d-1})
        series = _series_mul(series, [1 if k % (d - 1) == 0 else 0 for k in range(n + 1)], n)
    return sum(series)


def _coroot_pairing(rs, i: int, j: int) -> int:
    """<a_i, a_j^vee> for simple roots, from the invariant form."""
    ei = tuple(int(k == i) for k in range(rs.rank))
    ej = tuple(int(k == j) for k in range(rs.rank))
    return 2 * rs.inner(ei, ej) // rs.inner(ej, ej)


def move_point(rs, point: Sequence[Fraction], word: Sequence[int], translation: Sequence[int]):
    """t_translation w (point), in the coordinates a_i(x).

    Letters 1..l are the simple reflections x -> x - a_j(x) a_j^vee;
    the word acts right to left; the translation is by a coroot-lattice
    vector in simple coroot coordinates.
    """
    l = rs.rank
    pair = [[_coroot_pairing(rs, i, j) for j in range(l)] for i in range(l)]
    x = [Fraction(v) for v in point]
    for letter in reversed(word):
        require(1 <= letter <= l, f"letter {letter} is not a finite simple reflection")
        j = letter - 1
        xj = x[j]
        x = [x[i] - xj * pair[i][j] for i in range(l)]
    return tuple(x[i] + sum(k * pair[i][j] for j, k in enumerate(translation)) for i in range(l))


def root_value(root, point: Sequence[Fraction]) -> Fraction:
    return sum(Fraction(g) * v for g, v in zip(root.gradient, point)) + root.level


# ----------------------------------------------------------------------
# linear algebra mod p, for the basis independence check

def rank_mod_p(rows: List[List[int]], p: int) -> int:
    mat = [[v % p for v in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        pivot = next((k for k in range(rank, len(mat)) if mat[k][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        mat[rank] = [(v * inv) % p for v in mat[rank]]
        for k in range(len(mat)):
            if k != rank and mat[k][col]:
                f = mat[k][col]
                mat[k] = [(a - f * b) % p for a, b in zip(mat[k], mat[rank])]
        rank += 1
    return rank


def base_p_digits(vec: Sequence[int], p: int, m: int) -> List[int]:
    out = []
    for c in vec:
        for _ in range(m):
            out.append(c % p)
            c //= p
    return out


# ----------------------------------------------------------------------
# the checks, one per command

class Checker:
    """Runs the check for an op; keeps a validating context per site.

    `classify` is the relation validator (`characters.validate`); its
    contexts are built once per site and reused, outside the timed ops.
    """

    def __init__(self):
        self._contexts: Dict[Tuple, object] = {}

    def classify(self, site, vec: Sequence[int]) -> bool:
        from shallow_chars.characters import ShallowCharacter, validate
        from shallow_chars.context import Context

        key = (site.cartan_type, site.q, site.facet)
        if key not in self._contexts:
            self._contexts[key] = Context(site.rs, site.point, q=site.q)
        ctx = self._contexts[key]
        return validate(ShallowCharacter.from_vector(ctx, list(vec))).ok

    def check(self, op, rc: int, out: Dict) -> None:
        getattr(self, "_" + op.command.replace("-", "_"))(op, rc, out)

    # -- solve ---------------------------------------------------------

    def _solve(self, op, rc: int, out: Dict) -> None:
        site = op.site
        require(rc == 0, f"exit code {rc}")
        ctx = out["context"]
        require(ctx["cartan_type"] == site.cartan_type and ctx["q"] == site.q, "wrong context")
        require(ctx["point"] == [str(v) for v in site.point], "wrong point")
        n = len(ctx["shallow_roots"])
        require(n == site.n_roots, "shallow census disagrees with the context")
        l, h = site.rank, coxeter_number(site.letter, site.rank)
        if site.at_barycenter:
            require(n == l * h, f"{n} shallow roots at the barycenter, |Phi| = {l * h}")
        dim = out["dimension"]
        basis = out["basis"]
        filt = [(Fraction(d), k) for d, k in out["filtration"]]
        require(len(basis) == dim, "basis length differs from the dimension")
        require(bool(filt), "empty filtration")
        require(all(a[0] < b[0] for a, b in zip(filt, filt[1:])), "filtration depths not increasing")
        require(all(a[1] <= b[1] for a, b in zip(filt, filt[1:])), "filtration decreases")
        require(filt[-1][1] == dim, "filtration does not end at the dimension")
        if site.at_barycenter:
            require(
                filt[0] == (Fraction(1, h), (l + 1) * site.m),
                f"first step {filt[0]}, expected (1/{h}, {(l + 1) * site.m})",
            )
        n_indec = sum(site.indecomposable)
        require(dim >= site.m * n_indec, "dimension below m * #indecomposables")
        if site.q ** n <= 2**12:
            require(out["cross_checked"] is True, "oracle not run where q^N <= 2^12")
        vectors = []
        for chi in basis:
            require(chi["q"] == site.q, "basis vector over the wrong field")
            vec = [e["c"] for e in chi["params"]]
            require(len(vec) == n and all(0 <= c < site.q for c in vec), "malformed basis vector")
            vectors.append(vec)
        depths = [Fraction(d) for d in ctx["depths"]]
        for r, k in filt:
            for vec in vectors[:k]:
                require(
                    max((d for d, c in zip(depths, vec) if c), default=0) <= r,
                    f"basis is not adapted to the filtration at depth {r}",
                )
        rows = [base_p_digits(v, site.p, site.m) for v in vectors]
        require(rank_mod_p(rows, site.p) == dim, "basis vectors are dependent")
        for vec in vectors:
            require(self.classify(site, vec), "classify rejects a basis vector")

    # -- verify-hom ----------------------------------------------------

    def _verify_hom(self, op, rc: int, out: Dict) -> None:
        site, valid = op.site, op.facts["valid"]
        n, q = site.n_roots, site.q
        require(rc == (0 if valid else 1), f"exit code {rc}")
        require(out["mode"] == "generators", "wrong mode")
        require(out["ok"] is valid, f"ok = {out['ok']}, valid by construction = {valid}")
        require(self.classify(site, op.params) is valid, "classify disagrees with the construction")
        sweep = n * (q - 1) * q**n
        if valid:
            require(out["checked"] == sweep, f"checked {out['checked']}, expected N(q-1)q^N = {sweep}")
            require(out["witness"] is None, "witness on a valid character")
            return
        require(1 <= out["checked"] <= sweep, "checked count out of range")
        witness = out["witness"]
        require(witness is not None and len(witness) == 2, "invalid character without a witness")
        for word in witness:
            require(len(word) == n and all(0 <= v < q for v in word), "malformed witness word")
        require(sum(1 for v in witness[1] if v) == 1, "second witness factor is not a generator")

    # -- check-star ----------------------------------------------------

    def _check_star(self, op, rc: int, out: Dict) -> None:
        site, stable = op.site, op.facts["stable"]
        require(rc == (0 if stable else 1), f"exit code {rc}")
        status = out["condition_star"]
        # Minimal depth at the barycenter: (*) holds iff all l+1 simple
        # parameters are nonzero.
        require(status == ("holds" if stable else "fails"), f"verdict {status}, stable = {stable}")
        if stable:
            require(out["witness"] is None and out["polytope_bounded"] is True, "holds without a bounded polytope")
            return
        w = out["witness"]
        require(w is not None, "fails without a witness")
        mu = move_point(site.rs, site.point, w["word"], w["translation"])
        require(mu != tuple(site.point), "witness does not move lambda")
        support = [r for r, c in zip(site.roots, op.params) if c]
        depth_chi = max(root_value(r, site.point) for r in support)
        for r in support:
            require(root_value(r, mu) <= depth_chi, f"witness violates the support inequality of {r}")

    # -- intertwine ----------------------------------------------------

    def _intertwine(self, op, rc: int, out: Dict) -> None:
        self._scan(op.site.letter, op.site.rank, op.facts["radius"], rc, out)

    @staticmethod
    def _scan(letter: str, rank: int, radius: int, rc: int, out: Dict) -> None:
        # Stable epipelagic characters and the paper's Sp4 example have no
        # intertwining beyond P+.  At an interior point only the identity
        # fixes lambda, so every other element of the ball is checked.
        require(rc == 0, f"exit code {rc}")
        require(out["intertwining"] == "collapses_to_P_chi", f"verdict {out['intertwining']}")
        require(out["radius"] == radius and out["witness"] is None, "wrong radius or witness")
        require(out["stabilizer_size"] == 1, "stabilizer at an interior point is not trivial")
        ball = ball_size(letter, rank, radius)
        require(out["moved_checked"] + 1 == ball, f"moved_checked + 1 = {out['moved_checked'] + 1}, ball = {ball}")

    # -- reproduce-sp4 -------------------------------------------------

    def _reproduce_sp4(self, op, rc: int, out: Dict) -> None:
        require(rc == 0 and out["divergences"] == [], f"divergences {out.get('divergences')}")
        require(out["valid"] is True and out["depth"] == "3/4", "example character changed")
        require(out["condition_star"]["condition_star"] == "fails", "the Sp4 example fails (*)")
        self._scan("C", 2, op.facts["radius"], 0, out["intertwining"])


def reference_values() -> List[str]:
    """Every reference value the checks derive, for the benchmark's inputs."""
    from inputs import WORKLOADS, build_cycle

    lines = []
    for workload in WORKLOADS:
        for op in sorted(build_cycle(workload, 0), key=lambda o: o.label):
            s = op.site
            if op.command == "solve":
                l, h = s.rank, coxeter_number(s.letter, s.rank)
                first = f"(1/{h}, {(l + 1) * s.m})" if s.at_barycenter else "-"
                lines.append(
                    f"{op.label}: N={s.n_roots} l*h={l * h if s.at_barycenter else '-'} "
                    f"first step={first} dim>={s.m * sum(s.indecomposable)} "
                    f"oracle={s.q ** s.n_roots <= 2**12}"
                )
            elif op.command == "verify-hom":
                lines.append(f"{op.label}: cosets={s.q ** s.n_roots} N(q-1)q^N={s.n_roots * (s.q - 1) * s.q ** s.n_roots}")
            elif op.command == "intertwine":
                lines.append(f"{op.label}: ball={ball_size(s.letter, s.rank, op.facts['radius'])}")
            elif op.command == "reproduce-sp4":
                lines.append(f"{op.label}: ball(C2, 8)={ball_size('C', 2, 8)}")
    for letter, rank, radius in (("C", 2, 8), ("C", 2, 16), ("C", 3, 6), ("B", 3, 6), ("C", 4, 6), ("A", 3, 6)):
        lines.append(f"ball {letter}{rank} r={radius}: {ball_size(letter, rank, radius)}")
    return lines


if __name__ == "__main__":
    import run  # noqa: F401  (puts the package source on the path)

    print("\n".join(reference_values()))
