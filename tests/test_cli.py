import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from shallow_chars import chevalley, cli, weyl
from shallow_chars.cli import main

EXAMPLE = "1,0,0,1,1,0,1,1"
FLIPPED = "1,0,0,1,0,0,1,1"
SIMPLES = "1,1,1,0,0,0,0,0"


def _run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


def _run_json(capsys, argv):
    rc, out = _run(capsys, argv + ["--json"])
    return rc, json.loads(out)


def test_shallow_table(capsys):
    rc, out = _run(capsys, ["shallow", "--type", "C2"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 10  # header, rule, eight roots
    assert lines[2].startswith("0") and "a0" in lines[2]


def test_shallow_json(capsys):
    rc, data = _run_json(capsys, ["shallow", "--type", "C", "--rank", "2"])
    assert rc == 0
    roots = data["shallow_roots"]
    assert len(roots) == 8
    assert roots[0]["label"] == "a0"
    assert roots[0]["depth"] == "1/4"
    assert [r["indecomposable"] for r in roots] == [True] * 3 + [False] * 5
    assert data["context"]["cartan_type"] == "C2"


def test_shallow_facet(capsys):
    rc, data = _run_json(capsys, ["shallow", "--type", "C2", "--facet", "1,2"])
    assert rc == 0
    assert len(data["shallow_roots"]) == 6
    assert data["context"]["point"] == ["1/3", "1/3"]


def test_classify(capsys):
    rc, out = _run(capsys, ["classify", "--type", "C2", "--params", EXAMPLE])
    assert rc == 0
    assert "valid: True" in out and "depth: 3/4" in out
    rc, data = _run_json(capsys, ["classify", "--type", "C2", "--params", FLIPPED])
    assert rc == 1
    assert data["valid"] is False
    assert len(data["violations"]) == 1


def test_solve(capsys):
    rc, data = _run_json(capsys, ["solve", "--type", "C2"])
    assert rc == 0
    assert data["dimension"] == 5
    assert data["cross_checked"] is True
    assert data["filtration"] == [["1/4", 3], ["1/2", 3], ["3/4", 5]]
    rc, out = _run(capsys, ["solve", "--type", "C2", "--cross-check"])
    assert rc == 0
    assert "dimension: 5" in out
    assert "cross-checked against brute enumeration: True" in out


def test_cross_check_thresholds(capsys):
    # the oracle runs by default up to 2**12 vectors and on request up to
    # 2**20, counted as q**N whatever the search visits
    rc, data = _run_json(capsys, ["solve", "--type", "C2", "--q", "5", "--cross-check"])
    assert rc == 0 and data["cross_checked"] is True
    rc, data = _run_json(capsys, ["solve", "--type", "C2", "--q", "4"])  # 4**8 = 65,536
    assert rc == 0 and data["cross_checked"] is False
    assert main(["solve", "--type", "G2", "--q", "4", "--cross-check"]) == 64  # 4**12
    capsys.readouterr()


def test_verify_hom(capsys):
    rc, out = _run(
        capsys,
        ["verify-hom", "--type", "C2", "--params", EXAMPLE, "--mode", "generators"],
    )
    assert rc == 0 and "homomorphism: True" in out
    rc, data = _run_json(
        capsys,
        ["verify-hom", "--type", "C2", "--params", FLIPPED, "--mode", "generators"],
    )
    assert rc == 1
    assert data["ok"] is False and len(data["witness"]) == 2


def test_verify_hom_seed_env(capsys, monkeypatch):
    # the samples are drawn from seed 0 whatever the environment holds,
    # so setting SHALLOW_CHARS_SEED changes no byte of either output
    monkeypatch.delenv("SHALLOW_CHARS_SEED", raising=False)
    argv = ["verify-hom", "--type", "C2", "--params", FLIPPED, "--mode", "sample"]
    for extra in ([], ["--json"]):
        unset = _run(capsys, argv + extra)
        assert unset[0] == 1
        with monkeypatch.context() as m:
            m.setenv("SHALLOW_CHARS_SEED", "17")
            assert _run(capsys, argv + extra) == unset


def test_check_star(capsys):
    rc, out = _run(capsys, ["check-star", "--type", "C2", "--params", EXAMPLE])
    assert rc == 1
    assert "condition (*): fails" in out
    assert "witness word: [1] translation: [0, 0]" in out
    rc, out = _run(capsys, ["check-star", "--type", "C2", "--params", SIMPLES])
    assert rc == 0
    assert "condition (*): holds" in out


def test_check_star_builds_no_adjoint_matrices(capsys, monkeypatch):
    # condition (*) reads the root system, the point and the character
    # only, so the adjoint pinning's root matrices are never built
    def refuse(*args):
        raise AssertionError("adjoint root matrices built")

    monkeypatch.setattr(chevalley, "_adjoint_entries", refuse)
    for params, rc in (("1,1,2,1,2," + F4_ZEROS, 0), ("0,1,2,1,2," + F4_ZEROS, 1)):
        assert main(["check-star", "--type", "F4", "--q", "3", "--params", params]) == rc
    with pytest.raises(AssertionError, match="adjoint root matrices"):
        main(["solve", "--type", "F4", "--q", "2"])  # its JSON carries the pinning hash
    capsys.readouterr()


def test_intertwine_exit_codes(capsys):
    rc, out = _run(capsys, ["intertwine", "--type", "C2", "--params", EXAMPLE])
    assert rc == 0 and "collapses_to_P_chi" in out
    rc, out = _run(capsys, ["intertwine", "--type", "C2", "--params", "0,0,0,0,0,0,0,0"])
    assert rc == 1 and "counterexample" in out
    rc, out = _run(
        capsys,
        ["intertwine", "--type", "C2", "--params", EXAMPLE, "--radius", "0"],
    )
    assert rc == 2 and "inconclusive" in out


def test_reproduce_sp4(capsys):
    rc, data = _run_json(capsys, ["reproduce-sp4"])
    assert rc == 0
    assert data["divergences"] == []
    assert len(data["commutators"]) == 12
    assert len(data["relation_families"]) == 4
    assert data["valid"] is True and data["depth"] == "3/4"
    assert data["condition_star"]["condition_star"] == "fails"
    assert data["intertwining"]["intertwining"] == "collapses_to_P_chi"
    assert data["support_above_depth"] == ["a0+a1+a2"]
    assert "note" in data


def test_reproduce_sp4_rejects_other_fields(capsys):
    rc, data = _run_json(capsys, ["reproduce-sp4", "--q", "3"])
    assert rc == 1
    assert "example character fails validation" in data["divergences"]
    assert data["condition_star"] is None and data["intertwining"] is None


def test_character_file_roundtrip(capsys, tmp_path):
    rc, data = _run_json(capsys, ["solve", "--type", "C2"])
    assert rc == 0
    path = tmp_path / "char.json"
    path.write_text(json.dumps(data["basis"][3]))
    rc, out = _run(capsys, ["classify", "--type", "C2", "--char", str(path)])
    assert rc == 0
    rc, parsed = _run_json(capsys, ["classify", "--type", "C2", "--char", str(path)])
    assert parsed["character"] == data["basis"][3]


def test_classify_json_reads_back_through_char(capsys, tmp_path):
    """classify --json nests its character under "character"; --char reads
    that file, and classify and check-star answer as through --params."""
    path = tmp_path / "classified.json"
    codes = set()
    for params in (EXAMPLE, FLIPPED):
        _, out = _run(capsys, ["classify", "--type", "C2", "--params", params, "--json"])
        path.write_text(out)
        for cmd in ("classify", "check-star"):
            for json_flag in ([], ["--json"]):
                argv = [cmd, "--type", "C2"]
                want = _run(capsys, argv + ["--params", params] + json_flag)
                assert _run(capsys, argv + ["--char", str(path)] + json_flag) == want
                codes.add(want[0])
    assert codes == {0, 1}  # EXAMPLE is valid, FLIPPED is not


def test_output_is_deterministic(capsys):
    argv = ["check-star", "--type", "C2", "--params", EXAMPLE, "--json"]
    rc1, out1 = _run(capsys, argv)
    rc2, out2 = _run(capsys, argv)
    assert (rc1, out1) == (rc2, out2)
    argv = ["--threads", "4", "solve", "--type", "C2", "--json"]
    rc3, out3 = _run(capsys, argv)
    rc4, out4 = _run(capsys, ["solve", "--type", "C2", "--json"])
    assert out3 == out4


def test_bad_usage(capsys, monkeypatch, tmp_path):
    assert main(["frobnicate"]) == 64
    assert main(["shallow"]) == 64  # --type is required
    assert main(["classify", "--type", "C2", "--params", "1,0"]) == 64
    assert main(["classify", "--type", "C2"]) == 64
    assert (
        main(
            [
                "classify",
                "--type",
                "C2",
                "--params",
                EXAMPLE,
                "--char",
                "nope.json",
            ]
        )
        == 64
    )
    assert main(["classify", "--type", "C2", "--char", "missing.json"]) == 64
    assert main(["shallow", "--type", "C2", "--point", "x,y"]) == 64
    assert main(["shallow", "--type", "H8"]) == 64
    capsys.readouterr()
    for rank in ("2", "3"):
        assert main(["shallow", "--type", "C2", "--rank", rank]) == 64
        err = capsys.readouterr()
        assert err.out == ""
        assert f"rank given twice: 'C2' already names a rank, and rank {rank}" in err.err
        assert "not a valid irreducible type" not in err.err
    ones = "1,1,1,1,1,1,1,1"
    for samples in ("-5", "0"):
        argv = ["verify-hom", "--type", "C2", "--params", ones, "--mode", "sample"]
        assert main(argv + ["--samples", samples]) == 64
    assert main(["intertwine", "--type", "C2", "--params", EXAMPLE, "--radius", "-3"]) == 64
    assert main(["check-star", "--type", "C2", "--params", EXAMPLE, "--radius", "-2"]) == 64
    assert main(["reproduce-sp4", "--radius", "-1"]) == 64
    # a condition (*) walk that passes the walk limit is refused, naming
    # condition (*) and the type: E8 without simple affine node 0, whose
    # witness lies outside the default radius, walks 100,000 elements in
    # seconds, so a lower limit stands in
    capsys.readouterr()
    with monkeypatch.context() as patch:
        patch.setattr(weyl, "_FINITE_WALK_LIMIT", 1_000)
        assert main(["check-star", "--type", "E8", "--params", E8_NODE_0]) == 64
    err = capsys.readouterr().err
    assert "condition (*) on E8" in err and "1,000" in err
    # the intertwining ball is built before any check, so one over the
    # walk limit (C2 at radius 300: 120,401 elements) is refused up front
    assert main(["intertwine", "--type", "C2", "--params", EXAMPLE, "--radius", "300"]) == 64
    assert "120,401" in capsys.readouterr().err
    # a huge radius is refused by a lower bound on the ball, without
    # summing the series up to it; "at least" marks that path, and at this
    # radius the exact sum would still end in seconds if it were taken
    for argv in (["intertwine", "--type", "C2", "--params", EXAMPLE],
                 ["reproduce-sp4"]):
        assert main(argv + ["--radius", "1000000"]) == 64
        assert "at least 3,000,001 elements" in capsys.readouterr().err
    # exact sweeps over more than 2**20 cosets or pairs (C2 at q=7: 7**8 cosets)
    for q, mode in (("7", "generators"), ("3", "pairs")):
        argv = ["verify-hom", "--type", "C2", "--q", q, "--params", ones, "--mode", mode]
        assert main(argv) == 64
    capsys.readouterr()
    # malformed values end in a message and exit 64, not a traceback:
    # a zero denominator, a character file of the wrong shape, a
    # parameter that is not an integer (a bool included), a repeated root
    assert main(["shallow", "--type", "C2", "--point", "1/0,1/2"]) == 64
    assert "zero denominator" in capsys.readouterr().err
    # a point of the wrong length, short or long, and points outside the
    # closed alcove: past the wall of A_0, and on the wrong side of a_1
    for point, message in (
        ("1/4", "rank mismatch between root and point"),
        ("1/4,1/4,1/4", "rank mismatch between root and point"),
        ("1/2,1/4", "outside the closed fundamental alcove"),
        ("-1/4,1/2", "outside the closed fundamental alcove"),
    ):
        assert main(["shallow", "--type", "C2", f"--point={point}"]) == 64, point
        assert message in capsys.readouterr().err, point
    _, payload = _run_json(capsys, ["classify", "--type", "C2", "--params", EXAMPLE])
    good = payload["character"]
    entry = good["params"][0]
    shapes = [
        [],
        {},
        {"params": 5},
        {"params": [1, 2]},
        {"params": [{"root": [1, 0], "c": 1}]},
        {"params": [{"root": {"gradient": [1, 0]}, "c": 1}]},
        {"params": [{"root": entry["root"]}]},
        {"params": [{"root": {"gradient": 1, "level": 0}, "c": 1}]},
        {"params": [{"root": {"gradient": [1, 0], "level": "0"}, "c": 1}]},
    ]
    values = [dict(good, params=[dict(entry, c=c)] + good["params"][1:])
              for c in ("1", 1.0, None, True)]
    # a repeated root, whose second value would otherwise win silently
    values.append(dict(good, params=good["params"] + [dict(entry, c=0)]))
    path = tmp_path / "bad.json"
    for data in shapes + values:
        path.write_text(json.dumps(data))
        assert main(["classify", "--type", "C2", "--char", str(path)]) == 64, data
        err = capsys.readouterr().err
        assert err.startswith("shallow-chars: error:"), data
    path.write_text(json.dumps(good))
    assert main(["classify", "--type", "C2", "--char", str(path)]) == 0
    capsys.readouterr()
    # a character file read over another field or at another point, with
    # the same shallow roots there, is refused rather than judged there
    _, solved = _run_json(capsys, ["solve", "--type", "A2", "--q", "4"])
    path.write_text(json.dumps(solved["basis"][0]))
    for q in ("2", "8"):
        assert main(["classify", "--type", "A2", "--q", q, "--char", str(path)]) == 64
        assert "the character is over q = 4" in capsys.readouterr().err
    path.write_text(json.dumps(good))
    assert main(["classify", "--type", "C2", "--point", "1/5,1/4", "--char", str(path)]) == 64
    assert "the character is at the point" in capsys.readouterr().err


# Exit code and the sha256 of stdout for fixed invocations, with --json
# and without it.  Both outputs are meant to stay byte-identical across
# refactors; a deliberate change of output updates these.  To regenerate,
# print (rc, hashlib.sha256(out.encode()).hexdigest()) from _run for each
# argv, with --json appended and as it stands.
F4_ZEROS = ",".join(["0"] * 43)  # the 43 shallow F4 roots after the simple ones
E6_ZEROS = ",".join(["0"] * 65)
A4_ZEROS = ",".join(["0"] * 15)  # q**20 = 2**20 cosets, the sweep limit
E8_Q16 = ["solve", "--type", "E8", "--q", "16"]
E8_EPIPELAGIC = ",".join(["1"] * 9 + ["0"] * 231)  # the 9 simple affine roots first
E8_ROW_9 = ",".join(["0"] * 9 + ["1"] + ["0"] * 230)
E7_EPIPELAGIC = ",".join(["1"] * 8 + ["0"] * 118)  # the 8 simple affine roots first
E7_NODE_0 = ",".join(["0"] + ["1"] * 7 + ["0"] * 118)
E8_NODE_0 = ",".join(["0"] + ["1"] * 8 + ["0"] * 231)
E8_Q16_DIGEST = "7d92bcc5d669d56e81e7029d88ae90ece32acd42f7a2ecdba5e5ee40b9acfb31"
WIDE_SWEEP = "1,0,0,0,0,0,0,0"  # chi nonzero on a0 alone: (*) fails by a translation

PINNED_OUTPUTS = [
    (["solve", "--type", "C2", "--q", "2"], 0,
     "c5c299ecc2654ded4f4fe7f9deb3758d2b588c556881616faeed227821f7a6ca",
     "057045d8906bc59891d4cb21328d67a3f69681af285eec3b1fbf2fc6ef50a1b9"),
    (["solve", "--type", "C2", "--q", "3"], 0,
     "dce42885b12bcdc268d69568a9b0a26541a9cfbee6c8c7f17a6dcc6f92d00caf",
     "c7ea7ee88c76946eb64544a480bee85f9679645cea54eb2edde096d2b835cbe4"),
    (["solve", "--type", "A2", "--q", "4"], 0,
     "44a4fee2fe12e7c949a8d792dbaab41ddac3c0acfd4162890c5c580268d9693e",
     "cf8aebde03c1948395315837788a253da5d0ec98804becff65d9abed54d05c88"),
    # the forced exhaustive oracle on 5**8 = 390,625 vectors
    (["solve", "--type", "C2", "--q", "5", "--cross-check"], 0,
     "5f34a25e2b98ea751fafd5be64400c1efce0b5d42c635b917db8eed4bbf642ca",
     "154636dee35acf47520869fcd17186c21496d8356f348d35931019f555df92f3"),
    # the forced oracle where all 4**10 = 2**20 vectors are valid
    (["solve", "--type", "B3", "--q", "4", "--facet", "0,1", "--cross-check"], 0,
     "c631a57a5b1c00e2e7d4164c3e416a0c36f022f713cc4494bd60552293b43d7f",
     "dd2dff59db282664fe8d845204a2c0e2bdd4d95b08e012fa081bca2dea89c470"),
    # the forced oracle over a non-prime field, where it checks most:
    # 153,728 relation checks in the search for its 64 prefixes
    (["solve", "--type", "G2", "--q", "4", "--facet", "1,2", "--cross-check"], 0,
     "a1090b10dfec02aca5161828cc45774ebba91beba926b0d46d718945bbc1d9a1",
     "5c75f64bb65072c43c614d043d23d618976846548cbdd5b8049c42ae883e3dfa"),
    (["solve", "--type", "G2", "--q", "2", "--facet", "1,2"], 0,
     "b6c225a71701cfb8a6e2eb9e4390a92900fe9885d767e3dd2367a8baa39c0398",
     "6fdef247f30b0151f084423422c567840dd77c30a70d2408e2224fca1a957d5f"),
    (["solve", "--type", "A3", "--q", "2", "--facet", "0,2"], 0,
     "1548975decb5482af90e4bbb6e22ab0a878b7481a06ad8cc551dd80426c35612",
     "26b87d63be70548df30367c81b58c6906f4de174681f10499e05740e385c7627"),
    # 53,760 relation rows over 960 columns, 84,000 nonzeros in all
    (E8_Q16, 0, E8_Q16_DIGEST,
     "53d16103332445eb8b30c5443626c1ce82cc9e6132d7d5babe190ca97adfe011"),
    # exceptional adjoint pinnings, whose hash is in the JSON and whose
    # constants shape the basis: E7 at the barycenter, F4 at the facet {0, 4}
    (["solve", "--type", "E7", "--q", "2"], 0,
     "675dff6ea25352df71b8a16af42830adbb40feba657c67243a219fc4b93df9bf",
     "927c70fca033c4f35ecc38e005acd98f6defba8e5d4d2af6424eba60c9be7271"),
    (["solve", "--type", "F4", "--q", "3", "--facet", "0,4"], 0,
     "4e7eea7f7b845cf081607812574646476ca6419e318d2c2a30690872defa808b",
     "65fc9989b6ad954ea7bf4e115617eab34f24b74d488914bd34dc57c1319f48e9"),
    (["classify", "--type", "C2", "--params", EXAMPLE], 0,
     "9597c7f39c0c88e511b9fe554cea0b146a43f3392d14c9aac7d34d98b01e4081",
     "d6af6d34c348bd928c76b6a45d63e90372216f59b41713251bc7696b44f5a2f6"),
    (["check-star", "--type", "C2", "--params", EXAMPLE], 1,
     "852e036d6b624147992265083c7accadfed076c3bc58adfc97fd2ddb6182c28a",
     "19c9c9ce4324b4be3c1c288d5501901c28da84d10ae39828d6f338a4f95d518d"),
    (["check-star", "--type", "C2", "--params", SIMPLES], 0,
     "80999ae12142d0a4d3d0ca6c6945b5d90240522d52131690a20623d419f702bb",
     "38edf01612c5214883f42126fd1f67499096fd72cd9e5febde06de6cc0e29d90"),
    (["intertwine", "--type", "C2", "--params", EXAMPLE, "--radius", "12"], 0,
     "16a919cc8ded89760a3faec3ea4fa34ba15441b206e0b591d6ea2d8e9ff9c667",
     "6bff100af92a251e6718bc2faa6d6e7e084d1d1d1212de911d7d4971d4f50519"),
    # non-C2 Weyl outputs: a bounded G2 witness with a translation, an
    # unbounded B3 sweep, and a G2 intertwiner whose word holds letter 0
    (["check-star", "--type", "G2", "--params", "0,1,0,1,0,0,0,1,1,1,1,0"], 1,
     "d3207d8752e372d1ddefeaa93b36efda237489544c1ce518097c90a18f5b3102",
     "2251291c11f1cdad3aee94f3aa7dd665a7ad87ccea7e03a8619ef69b52db8ad6"),
    (["check-star", "--type", "B3", "--params", "1,0,0,0,0,0,0,0,0,0,0,1,1,0,0,1,1,0"], 1,
     "7c926fb0b3a90e2d2776e8d8bc64f02ad1544778766c391f8222cc081c0d569e",
     "f2b93700020b790c3e41b61909b2366643d28f6baba96b18e46a4647d3962c58"),
    # a bounded C3 witness at a facet, and an unbounded B3 sweep with no
    # witness within its radius
    (["check-star", "--type", "C3", "--facet", "0,2",
      "--params", "0,0,1,1,0,1,0,1,1,0,1,1,0,0"], 1,
     "6f5458e1a2ad0a28afaee6d68f6920a7ccf7f1bd167634a1faf99c127c54d34c",
     "3d1f135aa1356f9aab56ea6512c3a7d4a8790b1d6e6dd8ac370e4082a8cd9c2a"),
    (["check-star", "--type", "B3", "--q", "2", "--facet", "1,3",
      "--params", "1,1,1,0,1,0,1,1,1,0,1,0", "--radius", "2"], 2,
     "1328cfc45408863906a20e2a52ed560e3a2017c59f9450b2fa55e42e2de5f987",
     "83428ed97ec01d1355905ad0be423bd77b0bb7bd6f7fdb5e377c46bd87739ea7"),
    # an unbounded C2 sweep whose witness, the translation by -100,000
    # a2^vee, is the first value of a coordinate range of 200,001
    (["check-star", "--type", "C2", "--params", WIDE_SWEEP, "--radius", "100000"], 1,
     "47e92e4285c701de4082b39e4350f44ef8ee6db0872f283a9f48a0d5a92902ef",
     "6209459343ab22bf27a1b10ee0381abef1febfa3515961224eb64e273b8e0124"),
    (["intertwine", "--type", "G2", "--params", "1,1,0,0,0,0,0,0,0,0,0,0"], 1,
     "8991d82b30403977fe3e567392f24b7e70313a8bbf21a5bff5dec7baab5e5535",
     "38f439111f3e0ec0eb99f9c9eae1694d10261ecec1f3f6500dedb37709531654"),
    # G2 scans at the facet {1}, where a reflection fixing the point also
    # conjugates chi compatibly, so the stabilizer has 2 elements: one
    # collapses over the whole ball, one meets a counterexample
    (["intertwine", "--type", "G2", "--q", "3", "--facet", "1", "--params", "2,2,1,0,0,0",
      "--radius", "8"], 0,
     "32a34fd31c7517aca3b0c0e2ab74f459c97310c871cde47d45c236a92afcd616",
     "9562549436293d251cb0fbd0e4e20c39ca5f47ab6a60f0ab2e5a3a9b69f5eb85"),
    (["intertwine", "--type", "G2", "--q", "3", "--facet", "1", "--params", "2,2,0,0,0,0",
      "--radius", "8"], 1,
     "00d8eb83bf588b0a628e120b95660bf32feaf82713c7e0e15aa5b66439935647",
     "ff24f12475571607f35ec258d2df0cbf74a63c062fcf02e784a2d8c07289ed98"),
    (["verify-hom", "--type", "C2", "--params", EXAMPLE, "--mode", "generators"], 0,
     "36119a9e4dc9c3ddb2e0a44a388ef991863c9ac8e09def031c2d795339cbd2f9",
     "6bdfcf582f0d0e5b71103dc4bb4b0357e631fe683876f54f9e404a0f277a468a"),
    # epipelagic characters, nonzero on the simple affine roots: stable and
    # unstable F4 at q=3 (the unstable one leaves a0 at zero), a stable C3
    # scan, and E6 at q=2, whose (*) walk covers W(E6) when it holds
    (["check-star", "--type", "F4", "--q", "3", "--params", "1,1,2,1,2," + F4_ZEROS], 0,
     "80999ae12142d0a4d3d0ca6c6945b5d90240522d52131690a20623d419f702bb",
     "38edf01612c5214883f42126fd1f67499096fd72cd9e5febde06de6cc0e29d90"),
    (["check-star", "--type", "F4", "--q", "3", "--params", "0,1,2,1,2," + F4_ZEROS], 1,
     "7f6c7ecd3881eface96fcb25041e585c522bdbd9d9229fd5e7e0ef85c58e2dbb",
     "59e6d81032ecf128c7696e1e10ebe0c6eb16fd7c71f928a257109766135b8d84"),
    (["intertwine", "--type", "C3", "--q", "3", "--params",
      "1,1,2,2,0,0,0,0,0,0,0,0,0,0,0,0,0,0", "--radius", "6"], 0,
     "51a7ecc0d4345af41411a304167b8059bdfef31dae912d475d65a6d7c089bdc7",
     "e7a503b5af382f29f967561bc773e3466fdf88e4be9313a1cd163130009e550b"),
    # stable scans in A3 (matrix pinning) and B3 and F4 (adjoint pinnings)
    (["intertwine", "--type", "A3", "--q", "3", "--params",
      "1,2,1,1,0,0,0,0,0,0,0,0", "--radius", "6"], 0,
     "6141125e5a1581286e73a739e3a9f0a44c05bef2e302b44aa857b77f9349f7a4",
     "fab27a72328cb996f1d8f847c58552d9e812ea0ab0e6b869348f8cf6fe60d179"),
    (["intertwine", "--type", "B3", "--q", "3", "--params",
      "1,1,2,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0", "--radius", "6"], 0,
     "51a7ecc0d4345af41411a304167b8059bdfef31dae912d475d65a6d7c089bdc7",
     "e7a503b5af382f29f967561bc773e3466fdf88e4be9313a1cd163130009e550b"),
    (["intertwine", "--type", "F4", "--q", "3", "--params", "1,1,2,1,2," + F4_ZEROS,
      "--radius", "6"], 0,
     "1ad50db1109a4ac77a360ba970929af0022333c240a8884f2e4cf9b336faa149",
     "7fdf96ec6c9d09a80df42197d29257a5536635a315f1e74f22ec62bb6f46c650"),
    (["check-star", "--type", "E6", "--q", "2", "--params", "1,1,1,1,1,1,1," + E6_ZEROS], 0,
     "80999ae12142d0a4d3d0ca6c6945b5d90240522d52131690a20623d419f702bb",
     "38edf01612c5214883f42126fd1f67499096fd72cd9e5febde06de6cc0e29d90"),
    (["check-star", "--type", "E6", "--q", "2", "--params", "0,1,1,1,1,1,1," + E6_ZEROS], 1,
     "2d20eee93aa0c11f88f265878549cebc83dec0857a0dcdbbaad739099d60ad2f",
     "dda0253b9fb892ce4cbac17db8e7433cf84bb81b523046af7fa1d368e7c37336"),
    # E7 and E8 epipelagic characters, which hold, and the same without
    # simple affine node 0, which fail by a pure translation (E8's lies
    # outside the default radius 4); and E6 with all 72 parameters 1,
    # whose unpruned Fourier-Motzkin chain grew without end
    (["check-star", "--type", "E7", "--params", E7_EPIPELAGIC], 0,
     "80999ae12142d0a4d3d0ca6c6945b5d90240522d52131690a20623d419f702bb",
     "38edf01612c5214883f42126fd1f67499096fd72cd9e5febde06de6cc0e29d90"),
    (["check-star", "--type", "E7", "--params", E7_NODE_0], 1,
     "14b68d41d553391a5c33e0208680672a1d1937dd94593c3367bbfcf5289d1a29",
     "224f151a1cd795747fb6137613db96e292f0a8023fd5836e0dac7bb383f2bd47"),
    (["check-star", "--type", "E8", "--params", E8_EPIPELAGIC], 0,
     "80999ae12142d0a4d3d0ca6c6945b5d90240522d52131690a20623d419f702bb",
     "38edf01612c5214883f42126fd1f67499096fd72cd9e5febde06de6cc0e29d90"),
    (["check-star", "--type", "E8", "--params", E8_NODE_0, "--radius", "6"], 1,
     "23201d1d3c94adb64902a0dda5cb6037d166091f13c5406ea63d07d2e7853f22",
     "9d45a1858e1eb9a41b14e2a86a6b35483f5b7cab540b2a0f671eda34dc19fcd8"),
    (["check-star", "--type", "E6", "--params", ",".join(["1"] * 72)], 0,
     "80999ae12142d0a4d3d0ca6c6945b5d90240522d52131690a20623d419f702bb",
     "38edf01612c5214883f42126fd1f67499096fd72cd9e5febde06de6cc0e29d90"),
    # bounded B3 characters at a weighted point inside the alcove (n = 11):
    # one holds, one fails at a finite witness
    (["check-star", "--type", "B3", "--point", "2/11,1/11,3/11",
      "--params", "0,0,1,1,0,1,1,0,0,1,1,1,1,1,0,1,0,0"], 0,
     "80999ae12142d0a4d3d0ca6c6945b5d90240522d52131690a20623d419f702bb",
     "38edf01612c5214883f42126fd1f67499096fd72cd9e5febde06de6cc0e29d90"),
    (["check-star", "--type", "B3", "--point", "2/11,1/11,3/11",
      "--params", "0,1,1,1,1,0,0,0,0,0,0,0,1,0,0,1,0,0"], 1,
     "245e7a3dbd9f71b14c38f616a00471767c51c41e0c8b359648b90ed66330c130",
     "02e43486e2e759ad120db55fb0c01d8c38adccf34fd5e4109b147c3c3e589926"),
    # generators sweeps: invalid C2 and A2 characters whose first witness
    # lies past the first coset (A2 past the first generator block), and a
    # valid G2 character on a facet
    (["verify-hom", "--type", "C2", "--q", "3", "--params", "1,0,0,0,2,1,0,2",
      "--mode", "generators"], 1,
     "b1ef91650ad506540094bf91ee8add717775af931fbe2f63bc249c85b6ec582e",
     "9b00b2d0b3c7f81f13c363a4bc5e54a4b5e403b9d6d069e9206ba13b04201faf"),
    (["verify-hom", "--type", "A2", "--q", "4", "--params", "2,0,1,0,0,3",
      "--mode", "generators"], 1,
     "7c606ec9e2808caaef8aa54a2f390e19e70ab9a6f7dab59db7a148a63565da9f",
     "0263af0a33eeee6c4c42fc75d89ad05262f9a9773fcdf6a62761231cf62b5cdc"),
    (["verify-hom", "--type", "G2", "--q", "2", "--facet", "1,2",
      "--params", "1,1,1,1,1,1,1,0,0,0", "--mode", "generators"], 0,
     "a9d7b24814868203d4fa4c753f60dcb8b37ccdff43fbf840676ca0f1c6e65634",
     "739f63265a32e31d06d52973502d745a20b6467aa72e00291eec3ef90a6bb4dd"),
    # a valid A4 character on the simple affine roots, at the size limit
    (["verify-hom", "--type", "A4", "--q", "2", "--params", "1,1,1,1,1," + A4_ZEROS,
      "--mode", "generators"], 0,
     "3bfa43aa2d71005c6b59216da8faa2bc342d6c83cad46606532b6aafe1ba7f7c",
     "7976a2a6a2755958519873104ab665b5020619d032043803c13929f9dc9e491b"),
    # pairs sweeps: the valid Sp4 example over all 2**16 pairs, and two
    # invalid characters with two nonzero entries whose first failing
    # pair lies deep in the (code1, code2) order
    (["verify-hom", "--type", "C2", "--params", EXAMPLE, "--mode", "pairs"], 0,
     "8280a4dfc4141646e64b955730a58b80e71d0b8087ee2250048a027b39505194",
     "baf5cc2391090fa2c614c088e50923ccbf8ef3d9928e7ea451ca0bba060e200d"),
    (["verify-hom", "--type", "G2", "--q", "2", "--facet", "1,2",
      "--params", "0,0,0,0,0,0,1,0,0,1", "--mode", "pairs"], 1,
     "34ed31896f3a3ea3a41be4b1e51a27d55a1233ea5f74107aaad2f6efaf8d12f4",
     "839f409b7e626fd174246eddbdf99b48179ca9d9642d78603a3144b1fa4bea86"),
    (["verify-hom", "--type", "A2", "--q", "3", "--params", "0,0,0,0,1,0",
      "--mode", "pairs"], 1,
     "5dff77910e9f4f4e469c2262360706c994d24de7f1f33f11c2a61c251911936e",
     "57fc6dd90b311560f18c7712d556804119fa6ee0c9f5f034de4c96f87bb7d552"),
    # E8 at q=16, 2**960 cosets, so auto samples: the epipelagic character
    # passes the default 1,000 samples, each product taken modulo U_9, and
    # one with a single 1 at row 9 fails at its second sample
    (["verify-hom", "--type", "E8", "--q", "16", "--params", E8_EPIPELAGIC], 0,
     "10ae58ccd82536100a3ce01a87adc202b996f24b166b57d293fece0c7cfa3fac",
     "3ab5082f03f0d5534f13f00a302486727a7ca1fd7d79e1b4ac7ccc580cd00b32"),
    (["verify-hom", "--type", "E8", "--q", "16", "--params", E8_ROW_9], 1,
     "3e15566ad87d4a024457be4acfda8e652dd109c624c51062f0f39a8eb01417c5",
     "76405ef618314127298714d8e0fe5b7a2bc5a8728bb273719b2009e542934c5c"),
    (["reproduce-sp4", "--q", "2"], 0,
     "23d57c9fd347342a68be1e820eb11543d8559d3b6fa5f9bd1cd3a2e1637d95d4",
     "2f3840b9ff233e0b622d8819ac70175b85051692d4b4bb7255652e10f6bfbe52"),
    (["reproduce-sp4", "--q", "3"], 1,
     "add8b8a5a33a9d24ba7393d96a42b9d599dde0f4da37886085ac3114ccca483e",
     "4cafc994c5188db9cedbb5f74a6c7be58679a6d43abc41bf54764bb7c49f1005"),
    # shallow censuses: the 240 roots of the E8 barycenter, a weighted B3
    # point (n = 11), a C3 facet, the C2 facet {1,2} on the wall of A_0
    # (n - theta.x = 0) and the G2 vertex, which has no shallow roots
    (["shallow", "--type", "E8"], 0,
     "dfe966a37825d9dd60cf950acd7e1f3730af48435d4d4b5e0e09edc80dbb8ce3",
     "0f757cf6886ff1148752c5e95e9981f89292b25dd8483f0070e84584ab30026c"),
    (["shallow", "--type", "B3", "--point", "2/11,1/11,3/11"], 0,
     "c725a6b6e45750a590290558a746e49bfbeb1da181965d16c9458eb7010794a0",
     "dbf60ee0565fdd18833bbfde2f24a7e1355c8af455cae6a24a16a2ccff50457d"),
    (["shallow", "--type", "C3", "--facet", "0,2"], 0,
     "9b1eb04347f54e0244cd41f63777181cd6e1f9869f8987830f6d542fbff42f91",
     "187fd6c6e4d798ef1134e80bdcb120c0e01ba429b9c77e70cfa9ed4e796e8fd0"),
    (["shallow", "--type", "C2", "--facet", "1,2"], 0,
     "68b50aab246400c0c96cccad29c446e96f601efb92a585e2917540ff2d29bb13",
     "58d9eb5fb59a412ccaff8a49b6895c0d0871dda76ee2714abaaf8a53e80f911b"),
    (["shallow", "--type", "G2", "--facet", "0"], 0,
     "b5554e1f54e54acc18be116d7fe18722bb157ec84e393565e51cf4ca58624d02",
     "201c1b77d6c97e22730d5167f158f1f74c70143bab71b75b1e7369ca2e2d1507"),
]


_PINNED_IDS = [" ".join(a) for a, *_ in PINNED_OUTPUTS]


@pytest.mark.parametrize("argv, rc, digest, _", PINNED_OUTPUTS, ids=_PINNED_IDS)
def test_json_output_is_pinned(capsys, argv, rc, digest, _):
    got_rc, out = _run(capsys, argv + ["--json"])
    assert (got_rc, hashlib.sha256(out.encode()).hexdigest()) == (rc, digest)


@pytest.mark.parametrize("argv, rc, _, digest", PINNED_OUTPUTS, ids=_PINNED_IDS)
def test_human_output_is_pinned(capsys, argv, rc, _, digest):
    got_rc, out = _run(capsys, argv)
    assert (got_rc, hashlib.sha256(out.encode()).hexdigest()) == (rc, digest)


# Exit code and sha256 of stdout + stderr at 80 columns for the help
# screens and three usage errors: no subcommand, solve without --type, and
# an unknown --mode.  argparse lays out help differently across Python
# minor versions, so the digests hold on the version they were taken on.
HELP_PYTHON = (3, 11)
HELP_OUTPUTS = [
    (["--help"], 0, "90576990d218a2c5d6118c344a7f440a7ad787e6221a6162b45f9de029e15685"),
    (["shallow", "--help"], 0,
     "f3d66297bed11ece8c5066e1b80d2e965d617c28206ede50588201e8b97b03c2"),
    (["classify", "--help"], 0,
     "356a426dbe4d2604cbfdb0cdde359b32e61d5f64a793dbe9259fa031bc847531"),
    (["solve", "--help"], 0,
     "e44fa919f57e4dd0cf4abea376145b4f8a060735cde54a03439e0abe38876a9c"),
    (["verify-hom", "--help"], 0,
     "c1f3ac7536b5c79ede2bb1a781100e8fe2949d05ffff5725a85f9b95ce1f93ea"),
    (["check-star", "--help"], 0,
     "bc15490f1fa5b538cd2a3a22625b443abd432108e47a90d2cdd10edf6a2f9393"),
    (["intertwine", "--help"], 0,
     "585690eb162b99bcbd42c87483aaf8e30e6d38487ba307175ef46d61f1af765a"),
    (["reproduce-sp4", "--help"], 0,
     "57457de1b9edd3e05ba4e10aa9ae9c3c2f1c3c233f75fb15353c3e8ae3a606fd"),
    ([], 64, "2f2b026b3d32483af1d01ef0e3cf9f2604119ec9016047eca84010af9b634ad6"),
    (["solve"], 64, "00e4dead922e364bc947e7a355b9d2abe002ac65039d8f0b4f4bf84dc6032a01"),
    (["verify-hom", "--type", "C2", "--mode", "x"], 64,
     "42e8932646609e61c1c539f8cdaaaf26d0a68cca0cbb0b18c106c82ed6dd2bc2"),
]


@pytest.mark.skipif(
    sys.version_info[:2] != HELP_PYTHON, reason="help digests are taken on Python 3.11"
)
@pytest.mark.parametrize(
    "argv, rc, digest", HELP_OUTPUTS, ids=[" ".join(a) or "(none)" for a, _, _ in HELP_OUTPUTS]
)
def test_help_and_usage_are_pinned(capsys, monkeypatch, argv, rc, digest):
    monkeypatch.setenv("COLUMNS", "80")
    got_rc = main(argv)
    out, err = capsys.readouterr()
    assert (got_rc, hashlib.sha256((out + err).encode()).hexdigest()) == (rc, digest)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads ru_maxrss in KiB")
def test_e8_q16_solve_peak_rss():
    """A fresh interpreter solves E8 at q=16 with the pinned bytes and a
    peak RSS under 200 MB; dense relation rows and a dense RREF took
    885 MB.  The child reports its own ru_maxrss: RUSAGE_CHILDREN would
    read the largest child this test process has ever run."""
    code = (
        "import resource, sys\n"
        "from shallow_chars.cli import main\n"
        f"rc = main({E8_Q16 + ['--json']!r})\n"
        "sys.stdout.flush()\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
        "sys.exit(rc)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == E8_Q16_DIGEST
    assert int(done.stderr.split()[-1]) < 200 * 1024


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads ru_maxrss in KiB")
def test_wide_check_star_sweep_peak_rss():
    """A fresh interpreter sweeps the unbounded C2 polytope at radius 10**8
    and finds its witness with a peak RSS under 100 MB: the chain's points
    walk each coordinate's range lazily, where listing the 2 * 10**8 + 1
    values of a range at once would take about 28 GB."""
    argv = ["check-star", "--type", "C2", "--params", WIDE_SWEEP, "--radius", "100000000"]
    code = (
        "import resource, sys\n"
        "from shallow_chars.cli import main\n"
        f"rc = main({argv!r})\n"
        "sys.stdout.flush()\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
        "sys.exit(rc)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 1, done.stderr
    assert "condition (*): fails" in done.stdout
    assert int(done.stderr.split()[-1]) < 100 * 1024


def test_parser_is_built_by_the_first_main_call_only(capsys):
    # a fresh interpreter that imports the module has built no parser
    code = "import shallow_chars.cli as cli; print(cli._build_parser.cache_info().misses)"
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    assert done.stdout == "0\n"
    cli._build_parser.cache_clear()
    assert main(["shallow", "--type", "A1"]) == 0
    assert main(["shallow", "--type", "C2", "--json"]) == 0
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    capsys.readouterr()
