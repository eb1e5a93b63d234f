"""Lattice-backed subgroup descriptions: membership, order, index, quotients."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwslice.abelian import (
    Ambient,
    SubgroupDescription,
    full_subgroup,
    hnf,
    smith_normal_form,
)

GW_R = Ambient(2, (), ("rank", "index"), "GW(R)")
GW_F = Ambient(1, (2,), ("rank", "disc_dev"), "GW(Fq)")
W_Z4 = Ambient(0, (4,), ("w",), "W(q=3 mod 4)")
W_Z22 = Ambient(0, (2, 2), ("rank2", "disc_dev"), "W(q=1 mod 4)")


def test_hnf_canonical():
    a = hnf([[2, 0], [0, 2]], 2)
    b = hnf([[2, 2], [2, 0], [0, 2]], 2)
    assert a == b == [[2, 0], [0, 2]]


def test_hnf_reduces_above_pivot():
    assert hnf([[1, 5], [0, 3]], 2) == [[1, 2], [0, 3]]


def test_equal_lattices_get_one_basis_in_dimension_three():
    # the canonical basis has every entry above a pivot in [0, pivot)
    amb = Ambient(3)
    a = SubgroupDescription(amb, ((1, 3, 0), (0, 2, 2), (0, 0, 3)))
    b = SubgroupDescription(amb, ((1, 1, 1), (0, 2, 2), (0, 0, 3)))
    assert a.basis == b.basis == ((1, 1, 1), (0, 2, 2), (0, 0, 3))
    assert a == b
    assert hash(a) == hash(b)


def test_index_does_not_depend_on_the_generators():
    # the index is an invariant of the lattice, not of its generating set
    amb = Ambient(1, (2,))
    a = SubgroupDescription(amb, ((2, 1),))
    b = SubgroupDescription(amb, ((4, 0), (2, 1)))
    assert a == b
    assert a.index_in_saturation() == b.index_in_saturation() == 4
    assert str(a) == str(b)
    assert str(a).endswith("(index 4)")


def test_smith_normal_form_known():
    assert smith_normal_form([[2, 0], [0, 3]], 2) == [1, 6]
    assert smith_normal_form([[2, 4], [4, 8]], 2) == [2]
    assert smith_normal_form([[1, 0], [0, 1]], 2) == [1, 1]
    # a three-entry divisibility chain
    assert smith_normal_form([[4, 0, 0], [0, 6, 0], [0, 0, 10]], 3) == [2, 2, 60]
    # entries the size of the R ladder at MAX_INDEX
    assert smith_normal_form([[2**999], [2**1000]], 1) == [2**999]
    # consecutive Fibonacci numbers: the longest Euclid chains for their size
    fib = [0, 1]
    while len(fib) < 302:
        fib.append(fib[-1] + fib[-2])
    assert smith_normal_form([[fib[300], fib[301]]], 2) == [1]
    assert smith_normal_form([[fib[299], fib[300]], [fib[300], fib[301]]], 2) == [1, 1]


def _det(m):
    """The determinant by expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def _determinantal_quotients(rows, cols):
    """d_k / d_(k-1) for each k with d_k, the gcd of the k x k minors, nonzero."""
    out, prev = [], 1
    for k in range(1, min(len(rows), cols) + 1):
        d = 0
        for picked in itertools.combinations(rows, k):
            for c in itertools.combinations(range(cols), k):
                d = math.gcd(d, _det([[row[j] for j in c] for row in picked]))
        if not d:
            break
        out.append(d // prev)
        prev = d
    return out


small_matrices = st.integers(1, 4).flatmap(lambda cols: st.tuples(
    st.lists(st.lists(st.integers(-6, 6), min_size=cols, max_size=cols), max_size=4),
    st.just(cols)))


@settings(max_examples=300, deadline=None)
@given(case=small_matrices)
def test_smith_form_is_the_quotients_of_determinantal_divisors(case):
    rows, cols = case
    assert smith_normal_form(rows, cols) == _determinantal_quotients(rows, cols)


def test_membership_free_lattice():
    sub = SubgroupDescription(GW_R, ((2, 0), (0, 4)))
    assert sub.contains((2, 4))
    assert sub.contains((-2, 8))
    assert not sub.contains((1, 0))
    assert not sub.contains((0, 2))


def test_membership_matches_closure_on_torsion():
    for gens in itertools.combinations_with_replacement(list(W_Z22.elements()), 2):
        sub = SubgroupDescription(W_Z22, gens)
        reachable = {(0, 0)}
        frontier = [(0, 0)]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = W_Z22.reduce((x[0] + g[0], x[1] + g[1]))
                if y not in reachable:
                    reachable.add(y)
                    frontier.append(y)
        for v in W_Z22.elements():
            assert sub.contains(v) == (v in reachable)
        assert sub.order() == len(reachable)


def test_order_and_index():
    assert SubgroupDescription(GW_F, ((0, 1),)).order() == 2
    assert SubgroupDescription(GW_F, ((1, 0),)).order() is None
    assert SubgroupDescription(GW_R, ((0, 4),)).index_in_saturation() == 4
    assert SubgroupDescription(W_Z4, ((2,),)).order() == 2


def test_full_and_zero():
    assert full_subgroup(GW_F).is_full
    assert SubgroupDescription(GW_F, ()).is_zero
    assert SubgroupDescription(GW_F, ((0, 0),)).is_zero
    assert SubgroupDescription(W_Z4, ((1,),)).is_full
    trivial = Ambient(0, (), (), "0")
    assert SubgroupDescription(trivial, ()) == full_subgroup(trivial)


def test_equality_is_lattice_equality():
    a = SubgroupDescription(GW_R, ((2, 0), (0, 2)))
    b = SubgroupDescription(GW_R, ((2, 2), (0, 2)))
    c = SubgroupDescription(GW_R, ((2, 2),))
    assert a == b
    assert a != c
    assert SubgroupDescription(W_Z4, ((2,),)) == SubgroupDescription(W_Z4, ((6,),))


def test_subset_relation():
    small = SubgroupDescription(GW_R, ((0, 8),))
    big = SubgroupDescription(GW_R, ((0, 2),))
    assert small <= big
    assert not big <= small
    with pytest.raises(ValueError):
        small <= SubgroupDescription(GW_F, ((0, 1),))


def test_quotient_shapes():
    full = full_subgroup(GW_F)
    ideal = SubgroupDescription(GW_F, ((0, 1),))
    assert str(full.quotient_shape(ideal)) == "Z"
    assert str(full.quotient_shape(SubgroupDescription(GW_F, ()))) == "Z + Z/2"
    assert ideal.quotient_shape(SubgroupDescription(GW_F, ())).order() == 2
    i1 = SubgroupDescription(GW_R, ((0, 1),))
    i4 = SubgroupDescription(GW_R, ((0, 8),))
    assert str(i1.quotient_shape(i4)) == "Z/8"
    assert i1.quotient_shape(i1).order() == 1


def test_quotient_requires_containment():
    small = SubgroupDescription(GW_R, ((0, 8),))
    other = SubgroupDescription(GW_R, ((2, 0),))
    with pytest.raises(ValueError):
        small.quotient_shape(other)


def test_quotient_requires_one_ambient():
    with pytest.raises(ValueError, match="subgroups live in different ambients"):
        full_subgroup(Ambient(2)).quotient_shape(SubgroupDescription(GW_R, ()))


@st.composite
def subgroup_pairs(draw):
    """Two subgroups, each from up to three generators, of Z/d1 + Z/d2 (d <= 12) or of Z^2."""
    ambient = draw(st.one_of(
        st.builds(lambda d1, d2: Ambient(0, (d1, d2)), st.integers(2, 12), st.integers(2, 12)),
        st.just(Ambient(2))))
    gens = st.lists(st.tuples(st.integers(-12, 12), st.integers(-12, 12)), max_size=3)
    return tuple(SubgroupDescription(ambient, tuple(draw(gens))) for _ in range(2))


@settings(max_examples=200, deadline=None)
@given(pair=subgroup_pairs())
def test_quotient_refuses_exactly_the_uncontained_subgroups(pair):
    big, other = pair
    if other <= big:
        big.quotient_shape(other)
    else:
        with pytest.raises(ValueError, match="quotient requires a contained subgroup"):
            big.quotient_shape(other)


vecs = st.tuples(st.integers(-6, 6), st.integers(-6, 6))


@settings(max_examples=60)
@given(gens=st.lists(vecs, min_size=0, max_size=3), probe=vecs, extra=vecs)
def test_lattice_membership_properties(gens, probe, extra):
    sub = SubgroupDescription(GW_R, tuple(gens))
    for g in gens:
        assert sub.contains(g)
    if sub.contains(probe) and sub.contains(extra):
        assert sub.contains((probe[0] + extra[0], probe[1] + extra[1]))
        assert sub.contains((-probe[0], -probe[1]))
    bigger = SubgroupDescription(GW_R, tuple(gens) + (probe,))
    assert sub <= bigger


def _closure(ambient, gens):
    """Every element reachable from 0 by adding generators (a finite ambient part)."""
    seen = {ambient.reduce((0,) * ambient.dim)}
    frontier = list(seen)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = ambient.reduce(tuple(a + b for a, b in zip(x, g)))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


@st.composite
def ambients_and_generators(draw):
    dim = draw(st.integers(1, 3))
    free = draw(st.integers(0, dim))
    torsion = tuple(draw(st.lists(st.integers(2, 6), min_size=dim - free, max_size=dim - free)))
    ambient = Ambient(free, torsion)
    # free coordinates are often zero, so finite subgroups of mixed ambients occur
    free_part = st.one_of(st.just((0,) * free), st.tuples(*[st.integers(-4, 4)] * free))
    vec = st.builds(lambda f, t: f + t, free_part, st.tuples(*[st.integers(-6, 6)] * (dim - free)))
    gens = tuple(draw(st.lists(vec, max_size=4)))
    return ambient, gens


@settings(max_examples=150, deadline=None)
@given(data=ambients_and_generators(), mix=st.lists(st.integers(-3, 3), min_size=24, max_size=24))
def test_subgroup_answers_depend_only_on_the_lattice(data, mix):
    ambient, gens = data
    sub = SubgroupDescription(ambient, gens)
    # another generating set of the same lattice: add to each generator in turn
    # multiples of the (already changed) others and of the torsion relations
    k = iter(mix)
    other = [list(g) for g in gens]
    for i in range(len(other)):
        for h in [other[j] for j in range(len(other)) if j != i] + ambient.relation_rows():
            c = next(k)
            other[i] = [a + c * b for a, b in zip(other[i], h)]
    same = SubgroupDescription(ambient, tuple(tuple(v) for v in reversed(other)))
    assert same == sub
    assert hash(same) == hash(sub)
    assert str(same) == str(sub)
    assert same.describe() == sub.describe()

    finite = not any(any(ambient.reduce(g)[:ambient.free_rank]) for g in gens)
    assert (sub.order() is not None) == finite
    if not finite:
        return
    closure = _closure(ambient, gens)
    assert sub.elements() == sorted(closure)
    assert sub.order() == len(closure)
    assert sub.is_zero == (len(closure) == 1)
    probes = itertools.product(
        *[range(-2, 3)] * ambient.free_rank, *[range(d) for d in ambient.torsion]
    )
    for v in probes:
        assert sub.contains(v) == (v in closure)


@st.composite
def finite_subgroup_pairs(draw):
    """B <= A in Z/d1 + Z/d2 (d <= 12): A from random generators, B from combinations of them."""
    ambient = Ambient(0, (draw(st.integers(2, 12)), draw(st.integers(2, 12))))
    a_gens = draw(st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=3))
    coeffs = st.lists(st.integers(-3, 3), min_size=len(a_gens), max_size=len(a_gens))
    b_gens = [tuple(sum(c * g[j] for c, g in zip(cs, a_gens)) for j in range(2))
              for cs in draw(st.lists(coeffs, max_size=3))]
    return (ambient, SubgroupDescription(ambient, tuple(a_gens)),
            SubgroupDescription(ambient, tuple(b_gens)), a_gens, b_gens)


@settings(max_examples=200, deadline=None)
@given(case=finite_subgroup_pairs())
def test_quotient_order_is_the_coset_count(case):
    ambient, big, small, a_gens, b_gens = case
    assert small <= big
    a, b = big.elements(), small.elements()
    assert (len(a), len(b)) == (len(_closure(ambient, a_gens)), len(_closure(ambient, b_gens)))
    assert len(a) % len(b) == 0
    assert big.quotient_shape(small).order() == len(a) // len(b)
