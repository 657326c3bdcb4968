"""A second realization of the q = 2 barycenter cosets inside Sp4(Z/4).

Every root matrix below squares to zero, so I + x 2^level M is the
exact image of a root group element; factors of level >= 2 vanish mod
4.  The depth >= 1 part of the group maps onto the 64-element subgroup
H = I + 2 span{positive root matrices, torus lines}, and coset
questions reduce to set membership, never needing inverses mod 4.

Nothing here touches the pinning machinery: the matrices are written
out by hand, so agreement with the coset model is a genuine
cross-check.
"""

MOD = 4


def _mat(*entries):
    rows = [[0] * 4 for _ in range(4)]
    for i, j, c in entries:
        rows[i][j] = c % MOD
    return tuple(tuple(row) for row in rows)


IDENTITY = _mat((0, 0, 1), (1, 1, 1), (2, 2, 1), (3, 3, 1))

# symplectic form pairing the outer and inner coordinate pairs
OMEGA = _mat((0, 3, 1), (1, 2, 1), (2, 1, -1), (3, 0, -1))

GRADIENT_MATRIX = {
    (1, 0): _mat((0, 1, 1), (2, 3, -1)),
    (0, 1): _mat((1, 2, 1)),
    (1, 1): _mat((0, 2, 1), (1, 3, 1)),
    (2, 1): _mat((0, 3, 1)),
    (-1, 0): _mat((1, 0, 1), (3, 2, -1)),
    (0, -1): _mat((2, 1, 1)),
    (-1, -1): _mat((2, 0, 1), (3, 1, 1)),
    (-2, -1): _mat((3, 0, 1)),
}

_H_LINES = (
    GRADIENT_MATRIX[(1, 0)],
    GRADIENT_MATRIX[(0, 1)],
    GRADIENT_MATRIX[(1, 1)],
    GRADIENT_MATRIX[(2, 1)],
    _mat((0, 0, 1), (3, 3, 1)),
    _mat((1, 1, 1), (2, 2, 1)),
)


def mat_mul(A, B):
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(4)) % MOD for j in range(4))
        for i in range(4)
    )


def transpose(A):
    return tuple(tuple(A[j][i] for j in range(4)) for i in range(4))


def root_element(gradient, level, x):
    if level >= 2 or x % 2 == 0:
        return IDENTITY
    s = 2**level
    M = GRADIENT_MATRIX[gradient]
    return tuple(
        tuple((IDENTITY[i][j] + s * M[i][j]) % MOD for j in range(4))
        for i in range(4)
    )


def embed(ctx, word):
    """Image of a normal form: the token matrices in enumeration order."""
    out = IDENTITY
    for pos, v in enumerate(word):
        if not v:
            continue
        alpha = ctx.roots[pos]
        out = mat_mul(out, root_element(alpha.gradient, alpha.level, v))
    return out


def _span():
    out = []
    for bits in range(2 ** len(_H_LINES)):
        acc = [[0] * 4 for _ in range(4)]
        for k, line in enumerate(_H_LINES):
            if bits >> k & 1:
                for i in range(4):
                    for j in range(4):
                        acc[i][j] += line[i][j]
        out.append(
            tuple(
                tuple((IDENTITY[i][j] + 2 * acc[i][j]) % MOD for j in range(4))
                for i in range(4)
            )
        )
    return frozenset(out)


H_SET = _span()


def same_coset(X, Y):
    return any(X == mat_mul(Y, h) for h in H_SET)


def canonical(X):
    return min(mat_mul(X, h) for h in H_SET)
