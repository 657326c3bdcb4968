"""The product of additive characters term by term: the reference for
`characters.relation_holds`.

`char_product_trivial` takes packed terms (c, (i, j), C), multiplies
each monomial out with the field's arithmetic and reads its trace off
`psi[1]`.  The check instead takes the factors (t, i, j, C) of
`Context.relations` with the parameter vector, and reads the row
`psi[c * C]` at the monomial.
"""

from typing import Sequence, Tuple

from shallow_chars.finite_field import Element, FiniteField


def char_product_trivial(
    field: FiniteField,
    terms: Sequence[Tuple[Element, Tuple[int, int], int]],
) -> bool:
    """Does prod_k chi_{c_k}(C_k x^{i_k} y^{j_k}) == 1 for all x, y in F_q?

    Each term is (c, (i, j), C) with C an element of F_p, as the constants
    of `Context.relations` are stored.  Decided by exhaustive loop over F_q^2.
    """
    reduced = []
    for c, (i, j), C in terms:
        cc = field.mul(c, C)
        if cc:
            reduced.append((cc, i, j))
    if not reduced:
        return True
    for x in field.elements():
        for y in field.elements():
            total = 0
            for cc, i, j in reduced:
                mono = field.mul(field.pow(x, i), field.pow(y, j))
                total = (total + field.psi[1][field.mul(cc, mono)]) % field.p
            if total:
                return False
    return True
