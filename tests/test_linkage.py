import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dld import DataLinkage, normalize
from dld.checks import random_term, suite_axioms, suite_thm1
from dld.linkage import (TCombine, TEmpty, TLit, TOverride, flink, link_at,
                         link_count, link_index, pflink, slink, valass)
from dld.oracles import normalize_by_axioms
from dld.parsing import parse_linkage, parse_term
from dld.universe import Universe, small_universe

U = small_universe(2, 2, 3, 3)
POOL = [link_at(U, i) for i in range(link_count(U))]


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


# named atoms declared out of lexical order, so that declaration order
# and name order differ
UNSORTED = Universe(spots=("t", "s"), fields=("g", "f"),
                    atoms=("b", "c", "a"), modulus=3)


@pytest.mark.parametrize("u", [small_universe(1, 1, 1, 2),
                               small_universe(2, 1, 2, 2),
                               small_universe(3, 2, 3, 5), UNSORTED],
                         ids=["1-1-1-2", "2-1-2-2", "3-2-3-5", "unsorted"])
def test_links_are_numbered_in_canonical_order(u):
    decoded = [link_at(u, i) for i in range(link_count(u))]
    assert [link_index(u, x) for x in decoded] == list(range(link_count(u)))
    assert len(set(decoded)) == link_count(u)
    # tag first, then the names in declaration order
    assert decoded == (
        [slink(s, a) for s in u.spots for a in u.atoms]
        + [pflink(a, f) for a in u.atoms for f in u.fields]
        + [flink(a, f, b) for a in u.atoms for f in u.fields for b in u.atoms]
        + [valass(a, n) for a in u.atoms for n in range(u.modulus)])
    with pytest.raises(IndexError):
        link_at(u, link_count(u))


def test_canonical_order_is_declaration_order():
    l = DataLinkage(UNSORTED, [valass("a", 0), slink("s", "a"), slink("t", "c"),
                               flink("a", "f", "b"), pflink("c", "g")])
    assert l.canonical_text() == "t:c, s:a, c.g:?, a.f:b, a=0"


@pytest.mark.parametrize("suite,bounds", [(suite_axioms, (3, 2, 3, 100003)),
                                          (suite_thm1, (2, 2, 3, 100003))],
                         ids=["axioms", "thm1"])
def test_random_suites_do_not_table_the_links(suite, bounds):
    # 300,000 value links: a table of them took about 30 MB
    u = small_universe(*bounds)
    tracemalloc.start()
    try:
        assert suite(u, cases=10).checked > 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


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
        term = random_term(rng, U, 5)
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
        term = random_term(rng, U, 5)
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
        term = random_term(rng, U, 6)
        assert normalize(term, U).iter_links() == _fold_pairwise(term).iter_links()
    chain = TLit(L("s:#2, #0=1"))
    for text in ("s:#0", "#0=1", "t:#1, s:#2", "0"):
        chain = TCombine(chain, TLit(L(text)))
    chain = TCombine(TLit(L("#1.f:?")), TOverride(chain, TLit(L("s:#1"))))
    assert normalize(chain, U).iter_links() == _fold_pairwise(chain).iter_links()
