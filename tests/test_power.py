"""What a pass proves: mutants that a check must kill.

Each mutant is a one-field edit of a catalog side, made in memory with
``_replace`` on its spec; no source file changes.  Every mutant must FAIL
its row at 20 binary64 trials in the default region, where the row itself
passes.  The four below are the mutants the symbolic certificate
prototype flagged; the table is meant to grow over every row.
"""

import pytest

from ellipsum.catalog import check_identity, get_identity
from ellipsum.series import Side


def _swap(items: tuple, old: str, new: str) -> tuple:
    assert old in items
    return tuple(new if item == old else item for item in items)


def _quadratic_uppers(ident):
    (term,) = ident.rhs
    omega = term.series._replace(uppers=_swap(term.series.uppers, "g q^2/c", "g q/c"))
    return ident._replace(rhs=Side(term._replace(series=omega)))


def _quadratic_lowers(ident):
    (term,) = ident.lhs
    (first, base, step), *rest = term.series.den
    den = ((_swap(first, "a q^2/c", "a q/c"), base, step), *rest)
    return ident._replace(lhs=Side(term._replace(series=term.series._replace(den=den))))


def _cor_chu(field: str, old: str, new: str):
    def mutate(ident):
        (term,) = ident.rhs
        (product,) = term.products
        product = product._replace(**{field: _swap(getattr(product, field), old, new)})
        return ident._replace(rhs=Side(term._replace(products=(product,))))

    return mutate


MUTANTS = {
    "quadratic transformation, right side: g q^2/c -> g q/c":
        ("etrafo_quadratic_gab", _quadratic_uppers),
    "quadratic transformation, left side: a q^2/c -> a q/c":
        ("etrafo_quadratic_gab", _quadratic_lowers),
    "cor_chu, right side: b/a -> a/b": ("cor_chu", _cor_chu("den", "b/a", "a/b")),
    "cor_chu, right side: b^2/a -> b^2 q/a": ("cor_chu", _cor_chu("num", "b^2/a", "b^2 q/a")),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_spec_mutant_fails_its_row(mutant):
    ident_id, mutate = MUTANTS[mutant]
    ident = get_identity(ident_id)
    assert check_identity(ident, trials=20).passed
    rep = check_identity(mutate(ident), trials=20)
    assert rep.error is None and not rep.passed, rep.max_rel_err
