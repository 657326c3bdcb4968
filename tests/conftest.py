import pytest

from shallow_chars.affine_roots import AffineRoot, barycenter
from shallow_chars.characters import ShallowCharacter
from shallow_chars.context import Context
from shallow_chars.group_model import _collect
from shallow_chars.root_system import build_root_system

# The worked Sp4 example: nontrivial exactly on a0, a0+a1, a1+a2,
# a0+2a1 and 2a1+a2.
SP4_PARAMS = {
    AffineRoot((-2, -1), 1): 1,
    AffineRoot((0, 1), 0): 0,
    AffineRoot((1, 0), 0): 0,
    AffineRoot((-1, -1), 1): 1,
    AffineRoot((1, 1), 0): 1,
    AffineRoot((-1, 0), 1): 0,
    AffineRoot((0, -1), 1): 1,
    AffineRoot((2, 1), 0): 1,
}


def tokens(form):
    """The nonzero entries of a normal form, as (position, value) tokens in order."""
    return tuple((p, v) for p, v in enumerate(form) if v)


def multiply(ctx, w1, w2):
    """The normal form of w1 * w2: the tokens of w2 collected onto w1."""
    return tuple(_collect(ctx, tokens(w2), w1))


@pytest.fixture(scope="session")
def c2():
    return build_root_system("C2")


@pytest.fixture(scope="session")
def a2():
    return build_root_system("A2")


@pytest.fixture(scope="session")
def c2_ctx(c2):
    return Context(c2, barycenter(c2), q=2)


@pytest.fixture(scope="session")
def a2_ctx(a2):
    return Context(a2, barycenter(a2), q=2)


@pytest.fixture(scope="session")
def sp4_example(c2_ctx):
    return ShallowCharacter(c2_ctx, SP4_PARAMS)
