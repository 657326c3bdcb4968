"""Self-tests of the benchmark.

    python3 -m pytest -q perfbench

Every check must reject a tampered output (a wrong dimension, a flipped
verdict, an off-by-one ball count, a witness that breaks its
inequalities), so that no check is vacuous.  The smoke tests run one
pass of each workload, untraced and traced.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts the package source on the path)
from checks import CheckError, Checker, ball_size, move_point  # noqa: E402
from inputs import (  # noqa: E402
    SP4_EXAMPLE,
    WORKLOADS,
    Site,
    intertwine_op,
    reproduce_op,
    solve_op,
    star_op,
    verify_op,
)
from shallow_chars.cli import main as cli_main  # noqa: E402
from shallow_chars.weyl import AffineWeylElement  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# invalid, and outside the span of any valid vectors
BROKEN_C2 = Site("C2", 2, None).broken_extension(random.Random(5))


def replace_last_basis_vector(out):
    for entry, c in zip(out["basis"][-1]["params"], BROKEN_C2):
        entry["c"] = c


def execute(op):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli_main(op.argv)
    return rc, json.loads(out.getvalue())


def assert_rejected(op, rc, out, tamper):
    Checker().check(op, rc, out)  # the genuine output passes
    bad = copy.deepcopy(out)
    rc_bad = tamper(bad)
    with pytest.raises(CheckError):
        Checker().check(op, rc if rc_bad is None else rc_bad, bad)


# ----------------------------------------------------------------------
# reference values

@pytest.mark.parametrize(
    "letter,rank,radius,size",
    [("C", 2, 8, 97), ("C", 2, 16, 364), ("C", 3, 6, 161), ("B", 3, 6, 161), ("C", 4, 6, 372), ("A", 3, 6, 195)],
)
def test_bott_ball_sizes(letter, rank, radius, size):
    assert ball_size(letter, rank, radius) == size


@pytest.mark.parametrize("cartan_type", ["C3", "G2", "B4", "F4"])
def test_move_point_agrees_with_the_package(cartan_type):
    site = Site(cartan_type, 2, None)
    rng = random.Random(cartan_type)
    for _ in range(20):
        word = [rng.randint(1, site.rank) for _ in range(rng.randint(0, 6))]
        k = [rng.randint(-3, 3) for _ in range(site.rank)]
        w = AffineWeylElement.translation_by(site.rs, k).compose(
            AffineWeylElement.from_word(site.rs, word)
        )
        assert move_point(site.rs, site.point, word, k) == w.act_on_point(site.point)


# ----------------------------------------------------------------------
# each check rejects a tampered output

SOLVE_TAMPERS = {
    "dimension": lambda o: o.update(dimension=o["dimension"] + 1),
    "first step": lambda o: o["filtration"][0].__setitem__(1, o["filtration"][0][1] - 1),
    "decreasing": lambda o: o["filtration"].reverse(),
    "cross check": lambda o: o.update(cross_checked=False),
    "dependent basis": lambda o: o["basis"].__setitem__(1, o["basis"][0]),
    "invalid basis vector": replace_last_basis_vector,
    "exit code": lambda o: 1,
}


@pytest.mark.parametrize("tamper", SOLVE_TAMPERS, ids=list(SOLVE_TAMPERS))
def test_solve_check_rejects(tamper):
    op = solve_op(Site("C2", 2, None))
    rc, out = execute(op)
    assert_rejected(op, rc, out, SOLVE_TAMPERS[tamper])


def test_solve_check_reads_the_field_degree():
    op = solve_op(Site("A2", 4, None))
    rc, out = execute(op)
    assert_rejected(op, rc, out, SOLVE_TAMPERS["first step"])


VERIFY_TAMPERS = {
    "flipped verdict": lambda o: o.update(ok=not o["ok"]),
    "checked": lambda o: o.update(checked=o["checked"] - 1) if o["ok"] else o.update(checked=0),
    "witness": lambda o: o.update(witness=None if o["witness"] else [[0] * 8, [1] * 8]),
}


@pytest.mark.parametrize("valid", [True, False])
@pytest.mark.parametrize("tamper", VERIFY_TAMPERS, ids=list(VERIFY_TAMPERS))
def test_verify_check_rejects(tamper, valid):
    site = Site("C2", 2, None)
    rng = random.Random(7)
    vec = SP4_EXAMPLE if valid else site.broken_extension(rng)
    op = verify_op(site, vec, valid, "t")
    rc, out = execute(op)
    assert_rejected(op, rc, out, VERIFY_TAMPERS[tamper])


def test_verify_check_rejects_a_non_generator_witness():
    site = Site("C2", 2, None)
    op = verify_op(site, site.broken_extension(random.Random(3)), False, "t")
    rc, out = execute(op)
    assert_rejected(op, rc, out, lambda o: o["witness"][1].__setitem__(slice(None), [1] * 8))


def test_star_check_rejects_a_flipped_verdict():
    site = Site("C3", 3, None)
    rng = random.Random(1)
    for stable in (True, False):
        op = star_op(site, site.epipelagic(rng, None if stable else 2), stable)
        rc, out = execute(op)
        flip = {"holds": "fails", "fails": "holds"}
        assert_rejected(op, rc, out, lambda o: o.update(condition_star=flip[o["condition_star"]]))


@pytest.mark.parametrize(
    "tamper",
    [
        lambda o: o["witness"].update(word=[], translation=[0, 0, 0]),  # does not move lambda
        lambda o: o["witness"].update(translation=[x + 1 for x in o["witness"]["translation"]]),
    ],
    ids=["fixes lambda", "breaks an inequality"],
)
def test_star_check_rejects_a_bad_witness(tamper):
    site = Site("C3", 3, None)
    op = star_op(site, site.epipelagic(random.Random(2), 3), False)
    rc, out = execute(op)
    assert_rejected(op, rc, out, tamper)


INTERTWINE_TAMPERS = {
    "ball off by one": lambda o: o.update(moved_checked=o["moved_checked"] + 1),
    "verdict": lambda o: o.update(intertwining="counterexample"),
    "stabilizer": lambda o: o.update(stabilizer_size=2),
}


@pytest.mark.parametrize("tamper", INTERTWINE_TAMPERS, ids=list(INTERTWINE_TAMPERS))
def test_intertwine_check_rejects(tamper):
    site = Site("C2", 3, None)
    op = intertwine_op(site, site.epipelagic(random.Random(4), None), 8, "stable")
    rc, out = execute(op)
    assert_rejected(op, rc, out, INTERTWINE_TAMPERS[tamper])


REPRODUCE_TAMPERS = {
    "divergence": lambda o: o["divergences"].append("x"),
    "star verdict": lambda o: o["condition_star"].update(condition_star="holds"),
    "ball off by one": lambda o: o["intertwining"].update(moved_checked=o["intertwining"]["moved_checked"] - 1),
}


@pytest.mark.parametrize("tamper", REPRODUCE_TAMPERS, ids=list(REPRODUCE_TAMPERS))
def test_reproduce_check_rejects(tamper):
    op = reproduce_op()
    rc, out = execute(op)
    assert_rejected(op, rc, out, REPRODUCE_TAMPERS[tamper])


# ----------------------------------------------------------------------
# one pass of each workload

@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_pass(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=HERE.parent,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values()) or trace
