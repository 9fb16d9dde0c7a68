import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dld import DataLinkage, normalize
from dld.checks import all_links, random_term
from dld.linkage import TCombine, TEmpty, TLit, TOverride
from dld.oracles import normalize_by_axioms
from dld.parsing import parse_linkage, parse_term
from dld.universe import small_universe

U = small_universe(2, 2, 3, 3)
POOL = all_links(U)


def L(text):
    return parse_linkage(text, U)


linkages = st.builds(
    lambda picks: DataLinkage(U, picks),
    st.lists(st.sampled_from(POOL), max_size=6))


def test_combine_examples():
    assert L("s:#0").combine(L("0")) == L("s:#0")
    assert L("s:#0").combine(L("s:#0")) == L("s:#0")
    assert L("s:#0").combine(L("s:#1")) == L("s:#0, s:#1")


def test_override_examples():
    assert L("s:#0").override(L("s:#1")) == L("s:#1")
    assert L("#0.f:#1").override(L("#0.f:?")) == L("#0.f:?")
    assert L("s:#0, s:#1").override(L("s:#2")) == L("s:#2")
    assert L("s:#0, #0=1").override(L("t:#1")) == L("s:#0, #0=1, t:#1")


def test_override_units():
    for text in ("0", "s:#0", "s:#0, #0.f:#1, #1=2"):
        assert L(text).override(L("0")) == L(text)
        assert L("0").override(L(text)) == L(text)


def test_normalize_examples():
    empty = small_universe(2, 2, 3, 3)
    assert normalize(parse_term("0 <| s:#0", U), U) == L("s:#0")
    assert normalize(parse_term("({s:#0} + {s:#1}) <| {s:#2}", U), U) == L("s:#2")
    assert normalize(parse_term("{s:#0} + {s:#0}", U), U) == L("s:#0")


def test_is_deterministic():
    assert L("0").is_deterministic()
    assert not L("s:#0, s:#1").is_deterministic()
    assert not L("#0.f:#1, #0.f:?").is_deterministic()
    assert L("s:#0, #0.f:#1, #1=2").is_deterministic()


def test_atobj():
    assert L("0").atobj() == frozenset()
    assert L("#0.f:#1").atobj() == {"#0", "#1"}
    assert L("s:#2, #2=2").atobj() == {"#2"}


def test_canonical_text_ordering():
    assert L("0").canonical_text() == "0"
    assert L("#0.f:#1, s:#0").canonical_text() == "s:#0, #0.f:#1"
    assert L("#1=2").canonical_text() == "#1=2"
    # tag order: spot links, partial links, field links, values
    text = "s:#0, t:#1, #0.g:?, #0.f:#1, #1=2"
    assert L(text).canonical_text() == "s:#0, t:#1, #0.g:?, #0.f:#1, #1=2"


@given(a=linkages, b=linkages, c=linkages)
@settings(max_examples=150)
def test_combine_is_aci_with_unit(a, b, c):
    assert a.combine(b) == b.combine(a)
    assert a.combine(b.combine(c)) == a.combine(b).combine(c)
    assert a.combine(a) == a
    assert a.combine(DataLinkage.empty(U)) == a


@given(x=linkages, y=linkages, z=linkages)
@settings(max_examples=150)
def test_override_distributes_over_combine(x, y, z):
    lhs = x.override(y.combine(z))
    rhs = x.override(y).combine(x.override(z))
    assert lhs == rhs


def test_normalize_idempotent_and_order_free():
    rng = random.Random(7)
    for _ in range(300):
        term = random_term(rng, U, POOL, 5)
        nf = normalize(term, U)
        assert normalize(TLit(nf), U) == nf
        assert normalize(TCombine(term, term), U) == nf

        def mirror(t):
            if isinstance(t, TCombine):
                return TCombine(mirror(t.right), mirror(t.left))
            if isinstance(t, TOverride):
                return TOverride(mirror(t.left), mirror(t.right))
            return t

        assert normalize(mirror(term), U) == nf


def test_normalize_agrees_with_axiom_chaining_oracle():
    rng = random.Random(11)
    for _ in range(300):
        term = random_term(rng, U, POOL, 5)
        assert normalize(term, U) == normalize_by_axioms(term, U)


def test_multi_key_override_follows_the_axioms():
    # distributing over a two-key right operand keeps every left link
    assert L("s:#0").override(L("s:#1, t:#2")) == L("s:#0, s:#1, t:#2")
    oracle = normalize_by_axioms(
        TOverride(TLit(L("s:#0")), TLit(L("s:#1, t:#2"))), U)
    assert oracle == L("s:#0, s:#1, t:#2")


def _fold_pairwise(term):
    """normalize as one DataLinkage per operator, the reference that the
    chain-folding normalize must match link for link."""
    if isinstance(term, TEmpty):
        return DataLinkage.empty(U)
    if isinstance(term, TLit):
        return term.linkage
    left, right = _fold_pairwise(term.left), _fold_pairwise(term.right)
    return left.combine(right) if isinstance(term, TCombine) else left.override(right)


def test_normalize_keeps_the_pairwise_link_order():
    rng = random.Random(5)
    for _ in range(500):
        term = random_term(rng, U, POOL, 6)
        assert normalize(term, U).iter_links() == _fold_pairwise(term).iter_links()
    chain = TLit(L("s:#2, #0=1"))
    for text in ("s:#0", "#0=1", "t:#1, s:#2", "0"):
        chain = TCombine(chain, TLit(L(text)))
    chain = TCombine(TLit(L("#1.f:?")), TOverride(chain, TLit(L("s:#1"))))
    assert normalize(chain, U).iter_links() == _fold_pairwise(chain).iter_links()
