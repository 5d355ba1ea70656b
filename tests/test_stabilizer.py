import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cvbound.factory import GROUP_12_34, GROUP_13_24, GROUP_14_23, BoundStateSpec, smolin_cv_four
from cvbound.separability import named_bipartition
from cvbound.stabilizer import (
    Bipartition,
    Nullifier,
    Partition,
    PauliElement,
    all_local_commuting,
    commutes,
    is_complete_on,
    nullifier_variance,
    p_alternating_generator,
    p_alternating_nullifier,
    partition_commutation_table,
    restrict,
    symplectic_phase,
    x_sum_generator,
    x_sum_nullifier,
)
from cvbound.states import vacuum_state


def four_mode_generators():
    return [x_sum_generator(4), p_alternating_generator(4)]


def test_symplectic_phase_of_canonical_generators():
    u1, u2 = four_mode_generators()
    assert symplectic_phase(u1, u1) == 0.0
    assert symplectic_phase(u1, u2) == 0.0  # 1 - 1 + 1 - 1
    local1 = restrict(u1, {0, 2})
    local2 = restrict(u2, {0, 2})
    assert symplectic_phase(local1, local2) == 2.0
    assert not commutes(local1, local2)
    assert commutes(u1, u2)


def test_symplectic_phase_length_mismatch():
    with pytest.raises(ValueError):
        symplectic_phase(x_sum_generator(3), x_sum_generator(4))


def test_restrict_examples():
    u1, u2 = four_mode_generators()
    assert np.array_equal(restrict(u1, range(4)).t, u1.t)
    loc = restrict(u1, {0, 1})
    assert np.array_equal(loc.t, [1, 1, 0, 0])
    assert np.array_equal(loc.s, [0, 0, 0, 0])
    loc2 = restrict(u2, {2, 3})
    assert np.array_equal(loc2.s, [0, 0, 1, -1])
    with pytest.raises(ValueError):
        restrict(u1, set())


coeff_arrays = arrays(
    float, 4, elements=st.floats(-5, 5, allow_nan=False, allow_infinity=False)
)


@given(s1=coeff_arrays, t1=coeff_arrays, s2=coeff_arrays, t2=coeff_arrays)
@settings(max_examples=60)
def test_phase_antisymmetry(s1, t1, s2, t2):
    u = PauliElement(s1, t1)
    v = PauliElement(s2, t2)
    assert symplectic_phase(u, v) + symplectic_phase(v, u) == pytest.approx(0.0, abs=1e-9)


@given(s1=coeff_arrays, t1=coeff_arrays, s2=coeff_arrays, t2=coeff_arrays, alpha=st.floats(-3, 3))
@settings(max_examples=60)
def test_phase_bilinearity(s1, t1, s2, t2, alpha):
    u = PauliElement(s1, t1)
    v = PauliElement(s2, t2)
    scaled = PauliElement(alpha * u.s, alpha * u.t)
    assert symplectic_phase(scaled, v) == pytest.approx(
        alpha * symplectic_phase(u, v), rel=1e-9, abs=1e-9
    )


@given(s1=coeff_arrays, t1=coeff_arrays, s2=coeff_arrays, t2=coeff_arrays)
@settings(max_examples=60)
def test_restriction_additivity(s1, t1, s2, t2):
    u = PauliElement(s1, t1)
    v = PauliElement(s2, t2)
    part = Partition(((0, 2), (1,), (3,)))
    total = sum(
        symplectic_phase(restrict(u, sub), restrict(v, sub)) for sub in part.subsets
    )
    assert total == pytest.approx(symplectic_phase(u, v), rel=1e-9, abs=1e-9)


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


def test_pauli_nullifier_conversion_bijective():
    h = Nullifier(np.array([1.0, -0.5, 0.0, 2.0]))
    assert np.array_equal(h.to_pauli().to_nullifier().coeffs, h.coeffs)
    g = PauliElement(s=np.array([1.0, -1.0]), t=np.array([0.5, 0.0]))
    back = g.to_nullifier().to_pauli()
    assert np.array_equal(back.s, g.s) and np.array_equal(back.t, g.t)
    with pytest.raises(ValueError):
        Nullifier(np.zeros(4))


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
    gens = [x_sum_generator(4), x_sum_generator(4)]
    assert not is_complete_on(gens, {0, 1})


def test_nullifier_serialization_tag():
    data = x_sum_nullifier(2).to_dict()
    assert data["ordering"] == "xp-interleaved"
    assert data["coeffs"] == [1.0, 0.0, 1.0, 0.0]
