import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpbounds.chern import (
    ActionType,
    ChernPair,
    EmptyProfile,
    FixedPointProfile,
    Parity,
    ProfileError,
    ReducedProfile,
    chern_c1cn1,
    dim6_hamiltonian_classifier,
    expand,
    f1,
    f2,
    g1,
    g2,
    g_coeff,
    g_coeff_doubled,
    parse_profile,
    product_chern,
)


@pytest.mark.parametrize("i,n,expected", [(1, 2, -1), (2, 2, 11), (1, 3, -6), (0, 2, -1), (3, 3, 30)])
def test_g_coeff(i, n, expected):
    assert g_coeff(i, n) == expected
    assert g_coeff_doubled(i, n) == 2 * expected


def test_g_coeff_always_integral():
    # n(5 - 3n) is even for every n, so the halved coefficient is exact.
    for n in range(1, 60):
        for i in range(n + 1):
            assert g_coeff_doubled(i, n) % 2 == 0


@pytest.mark.parametrize(
    "n,counts,expected",
    [
        (2, (1, 10, 1), 0),
        (2, (1, 1, 1), 9),
        (3, (0, 1, 1, 0), 0),
    ],
)
def test_chern_c1cn1_examples(n, counts, expected):
    assert chern_c1cn1(FixedPointProfile(n, counts)) == expected


def test_chern_c1cn1_rejects_empty():
    with pytest.raises(EmptyProfile):
        chern_c1cn1(FixedPointProfile(2, (0, 0, 0)))


def test_profile_wellformedness():
    with pytest.raises(ProfileError):
        FixedPointProfile(2, (1, 10))
    with pytest.raises(ProfileError):
        FixedPointProfile(2, (1, -1, 1))
    with pytest.raises(ProfileError):
        FixedPointProfile(0, (1,))


def test_profile_symmetry_check():
    ok = FixedPointProfile(2, (1, 10, 1))
    assert ok.is_symmetric()
    ok.require_symmetric()
    bad = FixedPointProfile(2, (1, 9, 2))
    assert not bad.is_symmetric()
    with pytest.raises(ProfileError, match="N_0 = 1"):
        bad.require_symmetric()


@pytest.mark.parametrize(
    "m,counts,expected",
    [(1, (1, 10), 12), (3, (0, 0, 0, 5), 5)],
)
def test_f1(m, counts, expected):
    assert f1(ReducedProfile(m, counts, Parity.EVEN)) == expected


def test_f2():
    assert f2(ReducedProfile(1, (0, 1), Parity.ODD)) == 2
    assert f2(ReducedProfile(2, (1, 2, 3), Parity.ODD)) == 12


@pytest.mark.parametrize(
    "m,counts,expected",
    [(1, (1, 10), 0), (2, (0, 0, 7), -14)],
)
def test_g1(m, counts, expected):
    assert g1(ReducedProfile(m, counts, Parity.EVEN)) == expected


def test_g2():
    assert g2(ReducedProfile(1, (1, 0), Parity.ODD)) == 12
    assert g2(ReducedProfile(1, (0, 5), Parity.ODD)) == 0


def test_parity_mismatch_rejected():
    even = ReducedProfile(1, (1, 10), Parity.EVEN)
    odd = ReducedProfile(1, (0, 1), Parity.ODD)
    with pytest.raises(ValueError):
        f1(odd)
    with pytest.raises(ValueError):
        f2(even)
    with pytest.raises(ValueError):
        g1(odd)
    with pytest.raises(ValueError):
        g2(even)


@pytest.mark.parametrize(
    "m,counts,parity,expected",
    [
        (1, (1, 10), Parity.EVEN, (1, 10, 1)),
        (1, (0, 1), Parity.ODD, (0, 1, 1, 0)),
        (2, (0, 3, 4), Parity.EVEN, (0, 3, 4, 3, 0)),
    ],
)
def test_expand(m, counts, parity, expected):
    full = expand(ReducedProfile(m, counts, parity))
    assert full.counts == expected
    assert full.is_symmetric()


def test_expand_rejects_even_m0():
    with pytest.raises(ProfileError):
        expand(ReducedProfile(0, (1,), Parity.EVEN))


reduced_profiles = st.integers(min_value=0, max_value=20).flatmap(
    lambda m: st.tuples(
        st.just(m),
        st.lists(st.integers(0, 50), min_size=m + 1, max_size=m + 1),
        st.sampled_from([Parity.EVEN, Parity.ODD]),
    )
)


@given(reduced_profiles)
@settings(max_examples=400)
def test_chern_matches_reduced_constraint(data):
    m, counts, parity = data
    if parity is Parity.EVEN and m == 0:
        m = 1
        counts = counts + [0]
    rp = ReducedProfile(m, tuple(counts), parity)
    if sum(counts) == 0:
        return
    full = expand(rp)
    if parity is Parity.EVEN:
        assert chern_c1cn1(full) == g1(rp)
    else:
        assert chern_c1cn1(full) == 2 * g2(rp)


@given(reduced_profiles)
@settings(max_examples=400)
def test_objective_constraint_identity(data):
    # m*F1 = 12*sum(k^2 N_{m-k}) - G1 and (m-1)*F2 = 24*sum(T_k N_{m-k}) - 2*G2
    m, counts, parity = data
    if parity is Parity.EVEN and m == 0:
        m = 1
        counts = counts + [0]
    rp = ReducedProfile(m, tuple(counts), parity)
    if parity is Parity.EVEN:
        weighted = sum(k * k * counts[m - k] for k in range(1, m + 1))
        assert m * f1(rp) == 12 * weighted - g1(rp)
    else:
        weighted = sum(k * (k + 1) // 2 * counts[m - k] for k in range(1, m + 1))
        assert (m - 1) * f2(rp) == 24 * weighted - 2 * g2(rp)


def test_dim4_identity_10a_minus_b():
    for a in range(0, 30):
        for b in range(0, 30):
            if a == 0 and b == 0:
                continue
            assert chern_c1cn1(FixedPointProfile(2, (a, b, a))) == 10 * a - b


@pytest.mark.parametrize(
    "a,b,expected",
    [
        ((0, 2), (0, 2), (0, 4)),
        ((0, 12), (0, 2), (0, 24)),
        ((9, 3), (0, 2), (18, 6)),
    ],
)
def test_product_chern_examples(a, b, expected):
    got = product_chern(ChernPair(*a), ChernPair(*b))
    assert (got.c1cn1, got.euler) == expected


chern_pairs = st.builds(
    ChernPair, st.integers(-100, 100), st.integers(-50, 50)
)


@given(chern_pairs, chern_pairs, chern_pairs)
@settings(max_examples=200)
def test_product_chern_commutative_associative(a, b, c):
    assert product_chern(a, b) == product_chern(b, a)
    assert product_chern(product_chern(a, b), c) == product_chern(a, product_chern(b, c))


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_product_chern_zero_closure(e1, e2):
    got = product_chern(ChernPair(0, e1), ChernPair(0, e2))
    assert got.c1cn1 == 0 and got.euler == e1 * e2


@given(chern_pairs, chern_pairs)
@settings(max_examples=200)
def test_product_chern_gamma_additive(a, b):
    from fractions import Fraction

    if a.euler == 0 or b.euler == 0:
        return
    got = product_chern(a, b)
    assert Fraction(got.c1cn1, got.euler) == Fraction(a.c1cn1, a.euler) + Fraction(
        b.c1cn1, b.euler
    )


@pytest.mark.parametrize(
    "value,expected",
    [
        (0, ActionType.NON_HAMILTONIAN),
        (24, ActionType.HAMILTONIAN),
        (-24, ActionType.HAMILTONIAN),
    ],
)
def test_dim6_classifier(value, expected):
    assert dim6_hamiltonian_classifier(value) is expected


def test_parse_profile_ok():
    p = parse_profile({"n": 2, "counts": [1, 10, 1]})
    assert p == FixedPointProfile(2, (1, 10, 1))


@pytest.mark.parametrize(
    "data,message",
    [
        ([1, 2], "JSON object"),
        ({"counts": [1]}, 'missing the "n"'),
        ({"n": 2}, 'missing the "counts"'),
        ({"n": "2", "counts": [1, 10, 1]}, "integer"),
        ({"n": 2, "counts": [1, "x", 1]}, "list of integers"),
        ({"n": 2, "counts": [1, 10]}, "length"),
        ({"n": 2, "counts": [1, -1, 1]}, "non-negative"),
    ],
)
def test_parse_profile_errors(data, message):
    with pytest.raises(ProfileError, match=message):
        parse_profile(data)


def _sparse_counts(n):
    """Mostly zeros, as a witness profile is: a few nonzero entries anywhere."""
    return st.dictionaries(st.integers(0, n), st.integers(1, 10**7), max_size=4).map(
        lambda nonzero: [nonzero.get(i, 0) for i in range(n + 1)]
    )


full_profiles = st.integers(min_value=1, max_value=60).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.one_of(
            _sparse_counts(n),
            st.lists(st.integers(0, 50), min_size=n + 1, max_size=n + 1),
        ),
    )
)


@given(full_profiles)
@settings(max_examples=400)
def test_chern_c1cn1_matches_dense_sum(data):
    n, counts = data
    if not any(counts):
        return
    naive = sum(c * g_coeff_doubled(i, n) for i, c in enumerate(counts)) // 2
    assert chern_c1cn1(FixedPointProfile(n, tuple(counts))) == naive


@pytest.mark.parametrize(
    "counts,first",
    [((-1, 2, -3), "N_0 = -1"), ((0, 0, -2, -1), "N_2 = -2"), ((4, 0, 5, -7), "N_3 = -7")],
)
def test_negative_count_names_first_index(counts, first):
    message = f"counts must be non-negative, got {first}"
    with pytest.raises(ProfileError, match=f"^{message}$"):
        FixedPointProfile(len(counts) - 1, counts)
    with pytest.raises(ProfileError, match=f"^{message}$"):
        ReducedProfile(len(counts) - 1, counts, Parity.ODD)


@pytest.mark.parametrize(
    "counts,message",
    [
        ((5, 2, 3, 9, 3, 2, 1), "symmetry violation: N_0 = 5 but N_6 = 1"),
        ((1, 2, 3, 9, 8, 2, 1), "symmetry violation: N_2 = 3 but N_4 = 8"),
        ((1, 2, 3, 9, 3, 2, 6), "symmetry violation: N_0 = 1 but N_6 = 6"),
    ],
    ids=["first", "middle", "last"],
)
def test_symmetry_violation_message(counts, message):
    profile = FixedPointProfile(6, counts)
    assert not profile.is_symmetric()
    with pytest.raises(ProfileError) as info:
        profile.require_symmetric()
    assert str(info.value) == message
