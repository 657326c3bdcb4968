"""The package imports only the standard library, and src/ holds what the subcommands run."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import SP4_PARAMS
from shallow_chars.affine_roots import barycenter
from shallow_chars.characters import ShallowCharacter
from shallow_chars.context import Context
from shallow_chars.root_system import build_root_system
from test_cli import PINNED_OUTPUTS

SRC = Path(__file__).resolve().parent.parent / "src" / "shallow_chars"


def test_package_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue  # not an import, or a package-relative one
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name}:{node.lineno} imports {name}"


# The functions of src/shallow_chars that no subcommand calls, as
# module.qualname, by why each stays.  Dunder methods stay too.
UNCALLED = {
    # perfbench/tracer.py binds these by name, or perfbench/ imports them
    # (the tracer also reads the attribute Context._cayley)
    "benchmark": (
        "affine_roots.facet_of",
        "affine_roots.shallow_roots",
        "characters.enumerate_valid",
        "group_model.cayley_tables",
        "group_model.encode",
        "weyl.AffineWeylElement.compose",
        "weyl.AffineWeylElement.from_word",
        "weyl.AffineWeylElement.identity",
        "weyl.AffineWeylElement.simple",
        "weyl.AffineWeylElement.translation_by",
        "weyl._ball",
        "weyl._finite_elements",
        "weyl._mat_mul",
        "weyl._on_coroots",
        "weyl.intertwining_reduction",
    ),
    # the library API the paper's statements call for, with no subcommand
    # of their own: the barycenter criterion of Reeder-Yu, parabolic long
    # elements, affine root arithmetic, and the group arithmetic of
    # affine Weyl elements
    "library": (
        "affine_roots.affine_sum",
        "affine_roots.decompose_shallow",
        "affine_roots.from_delta",
        "affine_roots.in_closed_alcove",
        "affine_roots.is_positive_affine",
        "affine_roots.negate_affine",
        "characters.CharacterSpace.epipelagic_dimension",
        "characters.ShallowCharacter.is_trivial",
        "characters.indecomposable_extension",
        "characters.scalar_act",
        "finite_field.FiniteField.inv",
        "finite_field.FiniteField.units",
        "root_system.RootSystem.rank2_subsystem_type",
        "weyl.AffineWeylElement.act_on_root",
        "weyl.AffineWeylElement.inverse",
        "weyl.AffineWeylElement.is_identity",
        "weyl.AffineWeylElement.key",
        "weyl._apply",
        "weyl.barycenter_criterion",
        "weyl.long_element",
    ),
}

# A fresh interpreter runs each (argv, exit code) read from stdin under
# cProfile, and prints the package's functions and those that none called.
_PROBE = r"""
import cProfile, contextlib, importlib, inspect, io, json, pkgutil, sys
from pathlib import Path

import shallow_chars
from shallow_chars.cli import main

package = str(Path(shallow_chars.__file__).parent)
defined = {}
for info in pkgutil.iter_modules(shallow_chars.__path__):
    module = importlib.import_module("shallow_chars." + info.name)
    for obj in vars(module).values():
        for member in vars(obj).values() if inspect.isclass(obj) else (obj,):
            for f in (member, getattr(member, "__func__", None),
                      getattr(member, "fget", None), getattr(member, "func", None)):
                f = inspect.unwrap(f) if callable(f) else None
                code = getattr(f, "__code__", None)
                if code is not None and code.co_filename.startswith(package):
                    defined[code] = f"{f.__module__}.{f.__qualname__}".split(".", 1)[1]

profile = cProfile.Profile()
for argv, rc in json.load(sys.stdin):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        profile.enable()
        got = main(argv)
        profile.disable()
    assert got == rc, (argv, got)
called = {entry.code for entry in profile.getstats()}
print(json.dumps({"defined": sorted(defined.values()),
                  "uncalled": sorted(name for code, name in defined.items() if code not in called)}))
"""


def test_src_holds_what_the_subcommands_run(tmp_path):
    """Every function in the package runs in some subcommand, or is allow-listed.

    A fresh interpreter, so no cache is warm, runs every pinned --json
    command of test_cli, a classify from a character file and a usage
    error under cProfile, whose C hook takes the calls that a
    sys.setprofile function would see, at a fraction of the cost.  A
    function that none of them calls must be named in UNCALLED; every
    name there must still be defined and uncalled.
    """
    char = tmp_path / "chi.json"
    c2 = build_root_system("C2")
    chi = ShallowCharacter(Context(c2, barycenter(c2), q=2), SP4_PARAMS)
    char.write_text(json.dumps(chi.to_json()))
    runs = [(argv + ["--json"], rc) for argv, rc, *_ in PINNED_OUTPUTS]
    runs += [(["classify", "--type", "C2", "--char", str(char), "--json"], 0),
             (["verify-hom", "--type", "C2", "--mode", "x"], 64)]
    done = subprocess.run(
        [sys.executable, "-c", _PROBE], input=json.dumps(runs), capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)), timeout=300,
    )
    assert done.returncode == 0, done.stderr
    probe = json.loads(done.stdout)
    allowed = [name for names in UNCALLED.values() for name in names]
    assert len(set(allowed)) == len(allowed)
    assert set(allowed) <= set(probe["defined"])
    uncalled = {name for name in probe["uncalled"] if not name.rsplit(".", 1)[1].startswith("__")}
    assert uncalled - set(allowed) == set(), "functions no subcommand calls"
    assert set(allowed) - uncalled == set(), "allow-listed functions a subcommand calls"
