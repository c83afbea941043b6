import pytest
from hypothesis import given, strategies as st

from polynerve import EPSILON, Signature, signature_leq

signatures = st.lists(
    st.tuples(st.integers(1, 5), st.integers(1, 3)), min_size=0, max_size=4
).map(lambda entries: Signature(tuple(entries)))


def test_normalisation_merges_and_sorts():
    sig = Signature(((1, 2), (3, 1), (1, 1)))
    assert sig.entries == ((3, 1), (1, 3))
    assert sig.text() == "3.1^3"


def test_parse_print_round_trip():
    for text in ["e", "2", "1^3", "2.1", "3^2.2.1", "5.4^2.1^7"]:
        assert Signature.parse(text).text() == text


def test_parse_normalises_raw_input():
    assert Signature.parse("1.1.1").text() == "1^3"
    assert Signature.parse("2").entries == ((2, 1),)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        Signature.parse("2.x")
    with pytest.raises(ValueError):
        Signature(((0, 1),))


def test_huge_multiplicities_are_never_expanded():
    huge = Signature.parse("1^1000000000")
    assert huge.size == 10**9 and huge.text() == "1^1000000000"
    assert not huge.splits((3, 2, 1)) and not huge.leq(Signature.parse("5^3"))
    assert not Signature.parse("2").leq(huge) and Signature.parse("1^5").leq(huge)
    assert huge.at(10**9) == 1
    assert "heights" not in huge.__dict__  # entries are walked run by run


def test_heights_expansion_and_indexing():
    sig = Signature.parse("3^2.2.1")
    assert sig.heights == (3, 3, 2, 1)
    assert sig.size == 4
    assert [sig.at(j) for j in range(1, 5)] == [3, 3, 2, 1]


def test_order_examples_from_the_figures():
    chain2 = Signature.parse("2")
    fork3 = Signature.parse("1^3")
    mid = Signature.parse("3.1^2")
    big = Signature.parse("3^2.2.1")
    assert fork3 < mid < big
    assert chain2 < mid
    # and the non-relations
    assert not mid.leq(Signature.parse("2^2"))
    assert not mid.leq(fork3)


def test_epsilon_is_bottom():
    assert EPSILON.leq(Signature.parse("1"))
    assert EPSILON.leq(EPSILON)
    assert not Signature.parse("1").leq(EPSILON)


@given(signatures, signatures, signatures)
def test_leq_is_a_partial_order(a, b, c):
    assert a.leq(a)
    if a.leq(b) and b.leq(a):
        assert a == b
    if a.leq(b) and b.leq(c):
        assert a.leq(c)


@given(signatures, signatures)
def test_leq_and_at_match_the_expansion(a, b):
    expanded = a.size <= b.size and all(x <= y for x, y in zip(a.heights, b.heights))
    assert a.leq(b) == expanded
    assert tuple(a.at(j) for j in range(1, a.size + 1)) == a.heights


@given(signatures)
def test_text_round_trip_property(sig):
    assert Signature.parse(sig.text()) == sig


def test_chain_and_fork_flags():
    assert Signature.parse("4").is_chain
    assert Signature.parse("1").is_chain and Signature.parse("1").is_fork
    assert Signature.parse("1^2").is_fork
    assert not Signature.parse("2.1").is_chain
    assert signature_leq(Signature.parse("2"), Signature.parse("3.1^2"))
