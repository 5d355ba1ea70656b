import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cvbound.factory import GROUP_12_34, GROUP_13_24, GROUP_14_23, BoundStateSpec, smolin_cv_four
from cvbound.separability import named_bipartition
from cvbound.stabilizer import (
    Bipartition,
    Nullifier,
    Partition,
    all_local_commuting,
    is_complete_on,
    nullifier_variance,
    p_alternating_nullifier,
    partition_commutation_table,
    symplectic_phase,
    x_sum_nullifier,
)
from cvbound.states import vacuum_state


def four_mode_generators():
    return [x_sum_nullifier(4), p_alternating_nullifier(4)]


def test_symplectic_phase_of_canonical_generators():
    u1, u2 = four_mode_generators()
    assert symplectic_phase(u1, u1) == 0.0
    assert symplectic_phase(u1, u2) == 0.0  # 1 - 1 + 1 - 1
    # restricted to modes {0, 2}: x_0 + x_2 against p_0 + p_2
    local1 = Nullifier([1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    local2 = Nullifier([0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    assert symplectic_phase(local1, local2) == 2.0


def test_symplectic_phase_length_mismatch():
    with pytest.raises(ValueError):
        symplectic_phase(x_sum_nullifier(3), x_sum_nullifier(4))


coeff_arrays = arrays(
    float, 8, elements=st.floats(-5, 5, allow_nan=False, allow_infinity=False)
)


@given(a=coeff_arrays, b=coeff_arrays)
@settings(max_examples=60)
def test_phase_antisymmetry(a, b):
    assume(a.any() and b.any())
    u, v = Nullifier(a), Nullifier(b)
    assert symplectic_phase(u, v) + symplectic_phase(v, u) == pytest.approx(0.0, abs=1e-9)


@given(a=coeff_arrays, b=coeff_arrays, alpha=st.floats(-3, 3))
@settings(max_examples=60)
def test_phase_bilinearity(a, b, alpha):
    assume(a.any() and b.any() and (alpha * a).any())
    u, v = Nullifier(a), Nullifier(b)
    scaled = Nullifier(alpha * u.coeffs)
    assert symplectic_phase(scaled, v) == pytest.approx(
        alpha * symplectic_phase(u, v), rel=1e-9, abs=1e-9
    )


@given(a=coeff_arrays, b=coeff_arrays)
@settings(max_examples=60)
def test_restriction_additivity(a, b):
    assume(a.any() and b.any())
    u, v = Nullifier(a), Nullifier(b)
    part = Partition(((0, 2), (1,), (3,)))
    table = partition_commutation_table([u, v], part)
    assert table[:, 0, 1].sum() == pytest.approx(symplectic_phase(u, v), rel=1e-9, abs=1e-9)


def test_partition_commutation_tables():
    gens = four_mode_generators()
    assert all_local_commuting(partition_commutation_table(gens, GROUP_12_34))
    assert all_local_commuting(partition_commutation_table(gens, GROUP_14_23))
    table = partition_commutation_table(gens, GROUP_13_24)
    assert not all_local_commuting(table)
    assert np.abs(table).max() == 2.0
    with pytest.raises(ValueError):
        partition_commutation_table([], GROUP_12_34)


def test_bipartition_is_the_two_party_partition():
    gens = four_mode_generators()
    for label, group in (("12-34", GROUP_12_34), ("14-23", GROUP_14_23), ("13-24", GROUP_13_24)):
        bp = named_bipartition(label)
        assert bp is group
        assert isinstance(bp, Partition)
        assert bp.subsets == (bp.side_a, bp.side_b)
        assert bp.n_modes == 4
    table = partition_commutation_table(gens, named_bipartition("13-24"))
    assert np.array_equal(table, partition_commutation_table(gens, Partition(((0, 2), (1, 3)))))
    assert np.abs(table).max() == 2.0
    bp = Bipartition(range(3), (4, 3))
    assert (bp.side_a, bp.side_b, bp.n_modes) == ((0, 1, 2), (3, 4), 5)
    with pytest.raises(ValueError, match="disjoint"):
        Bipartition((0, 1), (1, 2))
    with pytest.raises(ValueError, match="nonempty"):
        Bipartition((), (0, 1))
    with pytest.raises(ValueError, match="cover"):
        Bipartition((0,), (2,))


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(((0, 1), (1, 2)))
    with pytest.raises(ValueError):
        Partition(((0, 1), (3,)))
    with pytest.raises(ValueError):
        Partition(((0, 1), ()))


def test_nullifier_variance_canonical_values():
    h1 = x_sum_nullifier(4)
    h2 = p_alternating_nullifier(4)
    state = smolin_cv_four(BoundStateSpec(2, 1.0, 5.0, 5.0))
    expected = 2 * np.exp(-2.0)
    assert nullifier_variance(state, h1) == pytest.approx(expected, abs=1e-10)
    assert nullifier_variance(state, h2) == pytest.approx(expected, abs=1e-10)
    assert nullifier_variance(vacuum_state(4), h1) == pytest.approx(2.0, abs=1e-14)
    with pytest.raises(ValueError):
        nullifier_variance(vacuum_state(3), h1)


def test_nullifier_variance_sigma_independent():
    h1, h2 = x_sum_nullifier(4), p_alternating_nullifier(4)
    values = [
        nullifier_variance(smolin_cv_four(BoundStateSpec(2, 1.0, s, s)), h)
        for s in (0.0, 1.0, 10.0)
        for h in (h1, h2)
    ]
    assert max(values) - min(values) < 1e-12


def test_nullifier_variance_vanishes_with_squeezing():
    h1 = x_sum_nullifier(4)
    values = [
        nullifier_variance(smolin_cv_four(BoundStateSpec(2, r, 1.0, 1.0)), h1)
        for r in (0.0, 1.0, 2.0, 4.0, 8.0)
    ]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-6


def test_is_complete_on_examples():
    gens = four_mode_generators()
    assert is_complete_on(gens, {0, 1})
    assert is_complete_on(gens, {2, 3})
    assert not is_complete_on(gens, {0})  # restrictions fail to commute
    assert not is_complete_on(gens, {0, 2})  # omega = 2 on this subset
    assert not is_complete_on([], {0, 1})
    with pytest.raises(ValueError):
        is_complete_on(gens, set())


def test_is_complete_needs_rank():
    # two copies of the same generator span one direction only
    gens = [x_sum_nullifier(4), x_sum_nullifier(4)]
    assert not is_complete_on(gens, {0, 1})


def test_nullifier_validation():
    with pytest.raises(ValueError, match="nonzero"):
        Nullifier(np.zeros(4))
    with pytest.raises(ValueError, match="even length"):
        Nullifier(np.ones(3))
    h = Nullifier([1, 0, 0, -1])
    assert h.n_modes == 2
    assert not h.coeffs.flags.writeable


def test_nullifier_serialization_tag():
    data = x_sum_nullifier(2).to_dict()
    assert data["ordering"] == "xp-interleaved"
    assert data["coeffs"] == [1.0, 0.0, 1.0, 0.0]
