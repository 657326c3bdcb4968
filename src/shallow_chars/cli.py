"""Command line interface.

Subcommands map one-to-one onto the library pipelines: shallow-root
enumeration, character classification, relation solving, homomorphism
verification, the condition-star search, the intertwining scan, and the
packaged Sp4 walkthrough.  Output is a fixed-width table by default and
JSON with --json; both are byte-deterministic for a given invocation.

Exit codes: 0 success / verdict holds, 1 failure / counterexample,
2 inconclusive, 64 bad usage.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .affine_roots import (
    AffineRoot,
    barycenter,
    delta_coordinates,
    facet_point,
    n_J,
    is_indecomposable,
    parse_point,
)
from .chevalley import Pinning, commutator_expansion
from .characters import (
    ShallowCharacter,
    char_depth,
    character_from_json,
    solve_space,
    validate,
)
from .context import Context
from .group_model import verify_homomorphism
from .root_system import build_root_system
from .weyl import condition_star, intertwining_scan, support

EX_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


def _build_context(args) -> Context:
    rs = build_root_system(args.type, args.rank)
    if args.facet is not None:
        letters = frozenset(int(x) for x in args.facet.split(","))
        point = facet_point(rs, letters)
    elif args.point == "barycenter":
        point = barycenter(rs)
    else:
        point = parse_point(args.point.split(","))
    pinning = Pinning(rs, kind=args.pinning)
    return Context(rs, point, q=args.q, pinning=pinning)


def _load_character(ctx: Context, args) -> ShallowCharacter:
    if args.char and args.params:
        raise ValueError("give either --char or --params, not both")
    if args.char:
        with open(args.char) as fh:
            return character_from_json(ctx, json.load(fh))
    if args.params:
        vector = [int(x) for x in args.params.split(",")]
        if len(vector) != ctx.n_roots:
            raise ValueError(
                f"expected {ctx.n_roots} parameters, got {len(vector)}"
            )
        return ShallowCharacter.from_vector(ctx, vector)
    raise ValueError("a character is required: pass --char or --params")


def _affine_label(ctx: Context, alpha: AffineRoot) -> str:
    coords = delta_coordinates(ctx.rs, alpha)
    parts = []
    for i, c in enumerate(coords):
        if c == 0:
            continue
        parts.append(f"a{i}" if c == 1 else f"{c}a{i}")
    return "+".join(parts) if parts else "0"


def _table(headers: Sequence[str], rows: List[Sequence[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        widths = [max(w, len(c)) for w, c in zip(widths, row)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*headers), fmt.format(*("-" * w for w in widths))]
    lines.extend(fmt.format(*row) for row in rows)
    return "\n".join(lines)


def _emit(args, payload: Dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(human)


# ----------------------------------------------------------------------
# subcommands

def cmd_shallow(args, ctx: Context) -> int:
    data = [
        {
            "position": pos,
            "label": _affine_label(ctx, root),
            "root": root.to_json(),
            "depth": str(d),
            "n_J": n_J(ctx.rs, root, ctx.facet),
            "indecomposable": is_indecomposable(ctx.rs, root, ctx.facet),
        }
        for pos, (root, d) in enumerate(zip(ctx.roots, ctx.depths))
    ]
    rows = [
        [str(r["position"]), r["label"], str(root), r["depth"], str(r["n_J"]),
         "yes" if r["indecomposable"] else "no"]
        for r, root in zip(data, ctx.roots)
    ]
    human = _table(
        ["#", "label", "root", "depth", "n_J", "indecomposable"], rows
    )
    _emit(args, {"context": ctx.to_json(), "shallow_roots": data}, human)
    return 0


def cmd_classify(args, chi: ShallowCharacter) -> int:
    ctx = chi.context
    result = validate(chi)
    depth_value = char_depth(chi)
    payload = {
        "context": ctx.to_json(),
        "character": chi.to_json(),
        "valid": result.ok,
        "violations": [
            [a.to_json(), b.to_json()] for a, b in result.violations
        ],
        "depth": str(depth_value),
    }
    lines = [f"valid: {result.ok}", f"depth: {depth_value}"]
    for a, b in result.violations:
        lines.append(
            f"violated pair: {_affine_label(ctx, a)}, {_affine_label(ctx, b)}"
        )
    _emit(args, payload, "\n".join(lines))
    return 0 if result.ok else 1


def cmd_solve(args, ctx: Context) -> int:
    space = solve_space(ctx, cross_check=args.cross_check)
    rows = [
        [str(i), ",".join(str(c) for c in chi.vector), str(char_depth(chi))]
        for i, chi in enumerate(space.basis)
    ]
    human = "\n".join(
        [
            f"dimension: {space.dimension}",
            "filtration: "
            + ", ".join(f"dim V({d}) = {n}" for d, n in space.filtration),
            f"cross-checked against brute enumeration: {space.cross_checked}",
            _table(["#", "params", "depth"], rows),
        ]
    )
    _emit(args, space.to_json(), human)
    return 0


def cmd_verify_hom(args, chi: ShallowCharacter) -> int:
    result = verify_homomorphism(chi, mode=args.mode, samples=args.samples)
    payload = {
        "ok": result.ok,
        "mode": result.mode,
        "checked": result.checked,
        "witness": [list(w) for w in result.witness] if result.witness else None,
    }
    human = f"homomorphism: {result.ok} (mode {result.mode}, {result.checked} checks)"
    if result.witness:
        human += f"\nwitness pair: {result.witness[0]} {result.witness[1]}"
    _emit(args, payload, human)
    return 0 if result.ok else 1


def cmd_check_star(args, chi: ShallowCharacter) -> int:
    verdict = condition_star(chi, radius=args.radius)
    human = f"condition (*): {verdict.status}"
    if verdict.witness is not None:
        human += (
            f"\nwitness word: {list(verdict.witness.word)}"
            f" translation: {list(verdict.witness.word_translation)}"
        )
    _emit(args, verdict.to_json(), human)
    return {"holds": 0, "fails": 1, "inconclusive": 2}[verdict.status]


def cmd_intertwine(args, chi: ShallowCharacter) -> int:
    result = intertwining_scan(chi, radius=args.radius)
    human = (
        f"intertwining: {result.verdict}"
        f" (radius {result.radius}, {result.moved_checked} moving elements,"
        f" stabilizer size {len(result.stabilizer)})"
    )
    if result.witness is not None:
        human += f"\ncounterexample word: {list(result.witness.word)}"
    _emit(args, result.to_json(), human)
    return {
        "collapses_to_P_chi": 0,
        "counterexample": 1,
        "inconclusive": 2,
    }[result.verdict]


# ----------------------------------------------------------------------
# the packaged Sp4 walkthrough

def _sp4_fixture() -> List[Tuple[AffineRoot, AffineRoot, List[Tuple[AffineRoot, int, int, int]]]]:
    a0 = AffineRoot((-2, -1), 1)
    a1 = AffineRoot((1, 0), 0)
    a2 = AffineRoot((0, 1), 0)
    a01 = AffineRoot((-1, -1), 1)
    a12 = AffineRoot((1, 1), 0)
    a012 = AffineRoot((-1, 0), 1)
    a021 = AffineRoot((0, -1), 1)
    a211 = AffineRoot((2, 1), 0)
    return [
        (a1, a2, [(a12, 1, 1, 1), (a211, 1, 2, -1)]),
        (a1, a0, [(a01, 1, 1, -1), (a021, 1, 2, -1)]),
        (a1, a12, [(a211, 1, 1, 2)]),
        (a1, a01, [(a021, 1, 1, -2)]),
        (a2, a01, [(a012, 1, 1, 1), (AffineRoot((-2, -1), 2), 2, 1, -1)]),
        (a0, a12, [(a012, 1, 1, -1), (AffineRoot((0, 1), 1), 2, 1, -1)]),
        (a12, a021, [(AffineRoot((1, 0), 1), 1, 1, 1), (AffineRoot((2, 1), 1), 1, 2, 1)]),
        (a01, a211, [(AffineRoot((1, 0), 1), 1, 1, -1), (AffineRoot((0, -1), 2), 1, 2, 1)]),
        (a12, a012, [(AffineRoot((0, 1), 1), 1, 1, -2)]),
        (a01, a012, [(AffineRoot((-2, -1), 2), 1, 1, 2)]),
        (a211, a012, [(AffineRoot((1, 1), 1), 1, 1, -1), (AffineRoot((0, 1), 2), 2, 1, 1)]),
        (a021, a012, [(AffineRoot((-1, -1), 2), 1, 1, 1), (AffineRoot((-2, -1), 3), 2, 1, 1)]),
    ]


SP4_EXAMPLE_PARAMS = {
    AffineRoot((-2, -1), 1): 1,
    AffineRoot((1, 0), 0): 0,
    AffineRoot((0, 1), 0): 0,
    AffineRoot((-1, -1), 1): 1,
    AffineRoot((1, 1), 0): 1,
    AffineRoot((-1, 0), 1): 0,
    AffineRoot((0, -1), 1): 1,
    AffineRoot((2, 1), 0): 1,
}

SP4_RELATION_FAMILIES = [
    # (pair of shallow roots, expected shallow targets with exponents)
    (AffineRoot((0, 1), 0), AffineRoot((1, 0), 0), ((AffineRoot((1, 1), 0), 1, 1), (AffineRoot((2, 1), 0), 1, 2))),
    (AffineRoot((-2, -1), 1), AffineRoot((1, 0), 0), ((AffineRoot((-1, -1), 1), 1, 1), (AffineRoot((0, -1), 1), 1, 2))),
    (AffineRoot((-2, -1), 1), AffineRoot((1, 1), 0), ((AffineRoot((-1, 0), 1), 1, 1),)),
    (AffineRoot((0, 1), 0), AffineRoot((-1, -1), 1), ((AffineRoot((-1, 0), 1), 1, 1),)),
]


def cmd_reproduce_sp4(args) -> int:
    rs = build_root_system("C2")
    ctx = Context(rs, barycenter(rs), q=args.q, pinning=Pinning(rs, kind="matrix"))
    divergences: List[str] = []
    report: Dict = {"q": args.q}

    # 1. the twelve commutator expansions
    formulas = []
    for beta, alpha, expected in _sp4_fixture():
        got = list(commutator_expansion(ctx.pinning, alpha, beta))
        line = "[u_{%s}(y), u_{%s}(x)] = %s" % (
            _affine_label(ctx, beta),
            _affine_label(ctx, alpha),
            " ".join(
                "u_{%s}(%+d x^%d y^%d)" % (_affine_label(ctx, t), c, i, j)
                for t, i, j, c in got
            )
            or "1",
        )
        formulas.append(line)
        if got != expected:
            divergences.append(f"commutator [{_affine_label(ctx, beta)}, {_affine_label(ctx, alpha)}]")
    report["commutators"] = formulas
    report["note"] = (
        "the printed source swaps the sign of the xy-coefficient in "
        "[u_{a0+a1}(y), u_{a2}(x)]; the value +1 here is forced by the "
        "identity-residue check and by the relation family it feeds"
    )

    # 2. the relation families visible over F_q
    families = []
    got_pairs = []
    for (p1, p2), factors in ctx.relations.items():
        terms = tuple((ctx.roots[t], i, j) for t, i, j, _ in factors)
        got_pairs.append((ctx.roots[p1], ctx.roots[p2], terms))
        families.append(
            "1 = "
            + " ".join(
                "chi_{%s}(x^%d y^%d)" % (_affine_label(ctx, t), i, j)
                for t, i, j in terms
            )
            + "   if %s, %s shallow"
            % (_affine_label(ctx, ctx.roots[p1]), _affine_label(ctx, ctx.roots[p2]))
        )
    report["relation_families"] = families
    if args.q == 2 and sorted(got_pairs) != sorted(SP4_RELATION_FAMILIES):
        divergences.append("relation families")

    # 3. the example character
    chi = ShallowCharacter(ctx, SP4_EXAMPLE_PARAMS)
    result = validate(chi)
    depth_value = char_depth(chi)
    rows = [
        [_affine_label(ctx, r), "-1" if chi.vector[ctx.index[r]] else "+1"]
        for r in ctx.roots
    ]
    report["example_character"] = chi.to_json()
    report["valid"] = result.ok
    report["depth"] = str(depth_value)
    if not result.ok:
        divergences.append("example character fails validation")
    if depth_value != Fraction(3, 4):
        divergences.append(f"example character depth {depth_value} != 3/4")

    star = scan = None
    if result.ok:
        star = condition_star(chi)
        report["condition_star"] = star.to_json()
        if star.status != "fails":
            divergences.append(f"condition (*) verdict {star.status} != fails")
        elif star.witness.word != (1,) or any(star.witness.word_translation):
            divergences.append("condition (*) witness is not the simple reflection s1")

        if star.witness is not None:
            mu = star.witness.act_on_point(ctx.point)
            deep = support(ctx, mu, Fraction(3, 4) + Fraction(1, 1000))
            report["support_above_depth"] = sorted(_affine_label(ctx, r) for r in deep)
            if not deep <= {AffineRoot((-1, 0), 1)}:
                divergences.append("support at the witness point exceeds a0+a1+a2")

        scan = intertwining_scan(chi, radius=args.radius)
        report["intertwining"] = scan.to_json()
        if scan.verdict != "collapses_to_P_chi":
            divergences.append(f"intertwining verdict {scan.verdict}")
        if len(scan.stabilizer) != 1:
            divergences.append("stabilizer shadow is not trivial")
    else:
        report["condition_star"] = report["intertwining"] = None

    report["divergences"] = divergences
    human_parts = [
        "Sp4 walkthrough (C2 barycenter, q=%d)" % args.q,
        "",
        "commutator table:",
        *("  " + f for f in formulas),
        "",
        "relation families over F_%d:" % args.q,
        *("  " + f for f in families),
        "",
        "example character (values chi_alpha(1)):",
        _table(["root", "chi(1)"], rows),
        "",
        f"valid: {result.ok}   depth: {depth_value}",
    ]
    if star is not None:
        human_parts.append(
            f"condition (*): {star.status}"
            + (
                f" (witness word {list(star.witness.word)},"
                f" translation {list(star.witness.word_translation)})"
                if star.witness
                else ""
            )
        )
    if scan is not None:
        human_parts.append(
            f"intertwining: {scan.verdict} (radius {scan.radius},"
            f" stabilizer size {len(scan.stabilizer)})"
        )
    if divergences:
        human_parts.append("")
        human_parts.append("DIVERGENCES:")
        human_parts.extend("  " + d for d in divergences)
    _emit(args, report, "\n".join(human_parts))
    return 1 if divergences else 0


# ----------------------------------------------------------------------
# the parser: one row per subcommand

_Option = Tuple[str, Dict]

_CONTEXT_OPTIONS: Tuple[_Option, ...] = (
    ("--type", dict(required=True, help="Cartan type, e.g. C2 or C")),
    ("--rank", dict(type=int, help="rank when --type is a bare letter")),
    ("--point", dict(default="barycenter", help='apartment point: "barycenter"'
                     " or rational coords like 1/4,1/4")),
    ("--facet", dict(help="facet letters like 1,2; overrides --point with its facet point")),
    ("--q", dict(type=int, default=2, help="residue field size (default 2)")),
    ("--pinning", dict(choices=["auto", "matrix", "adjoint"], default="auto",
                       help="which pinning to use for commutator constants")),
)

_CHARACTER_OPTIONS: Tuple[_Option, ...] = (
    ("--char", dict(help="path to a character JSON file")),
    ("--params", dict(help="character parameters in enumeration order,"
                      " e.g. 1,0,0,1,1,0,1,1")),
)


class _Subcommand(NamedTuple):
    """One subcommand.  With context set it takes the context options and
    main passes func the Context; with character set as well it takes the
    character options and main passes the character instead.  Its own
    options follow, then --json."""

    name: str
    help: str
    func: Callable[..., int]
    options: Tuple[_Option, ...] = ()
    context: bool = True
    character: bool = False


_SUBCOMMANDS = (
    _Subcommand("shallow", "enumerate shallow roots with depths", cmd_shallow),
    _Subcommand("classify", "validate a character and report its depth", cmd_classify,
                character=True),
    _Subcommand("solve", "solve the relation system", cmd_solve, (
        ("--cross-check", dict(action="store_true", default=None,
                               help="force the brute-force oracle comparison")),
    )),
    _Subcommand("verify-hom", "check a character against the group model", cmd_verify_hom, (
        ("--mode", dict(choices=["auto", "generators", "pairs", "sample"], default="auto")),
        ("--samples", dict(type=int, default=1000)),
    ), character=True),
    _Subcommand("check-star", "search for a condition (*) witness", cmd_check_star, (
        ("--radius", dict(type=int, default=4)),
    ), character=True),
    _Subcommand("intertwine", "scan the affine Weyl ball for intertwiners", cmd_intertwine, (
        ("--radius", dict(type=int, default=8)),
    ), character=True),
    _Subcommand("reproduce-sp4", "run the packaged Sp4 walkthrough", cmd_reproduce_sp4, (
        ("--q", dict(type=int, default=2)),
        ("--radius", dict(type=int, default=8)),
    ), context=False),
)


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built on the first call to main and reused after it."""
    parser = _Parser(prog="shallow-chars", description=__doc__)
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for interface stability; the exact pipelines are "
        "single-threaded and results never depend on this value",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for row in _SUBCOMMANDS:
        p = sub.add_parser(row.name, help=row.help)
        for flag, kwargs in (
            (_CONTEXT_OPTIONS if row.context else ())
            + (_CHARACTER_OPTIONS if row.character else ())
            + row.options
            + (("--json", dict(action="store_true")),)
        ):
            p.add_argument(flag, **kwargs)
        p.set_defaults(subcommand=row)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EX_USAGE
    row = args.subcommand
    try:
        inputs = ()
        if row.context:
            ctx = _build_context(args)
            inputs = (_load_character(ctx, args) if row.character else ctx,)
        return row.func(args, *inputs)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"shallow-chars: error: {exc}", file=sys.stderr)
        return EX_USAGE


if __name__ == "__main__":
    sys.exit(main())
