"""Kronecker coefficients against an independent brute-force oracle (full
group sums of matrix traces, no shared character cache) and classical
identities.
"""

import math

import numpy as np
import pytest

from snverify.characters import _group_average, lightning_distribution, multiplicities
from snverify.errors import InvalidArgumentError, NumericalConsistencyError
from snverify.symgroup import (
    Partition,
    class_size,
    enumerate_group,
    enumerate_partitions,
    irrep_dimension,
)
from snverify.wfs import Multiplicity, kronecker_coefficient
from snverify.yyrep import (
    identity_times_irrep,
    irrep,
    regular_representations,
    rep_evaluate,
    tensor_rep,
)

P = Partition.parse


def oracle_kronecker(mu, nu, lam):
    """(1/|G|) sum over every group element of the product of traces,
    computed directly from the representation matrices."""
    group = enumerate_group(mu.n)
    total = 0.0
    for g in group:
        total += (
            np.trace(rep_evaluate(irrep(lam), g)).real
            * np.trace(rep_evaluate(irrep(mu), g)).real
            * np.trace(rep_evaluate(irrep(nu), g)).real
        )
    value = total / len(group)
    assert abs(value - round(value)) < 1e-8
    return round(value)


def conjugate_partition(p: Partition) -> Partition:
    parts = p.parts
    return Partition(tuple(sum(1 for q in parts if q > r) for r in range(parts[0])))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_both_routes_match_brute_force_oracle(n):
    shapes = enumerate_partitions(n)
    for mu in shapes:
        for nu in shapes:
            for lam in shapes:
                expected = oracle_kronecker(mu, nu, lam)
                assert kronecker_coefficient(mu, nu, lam, route="char").value == expected
                assert kronecker_coefficient(mu, nu, lam, route="rank").value == expected
                both = kronecker_coefficient(mu, nu, lam, route="both")
                assert both.value == expected


def test_frozen_small_values():
    assert kronecker_coefficient(P("2,1"), P("2,1"), P("2,1")).value == 1
    assert kronecker_coefficient(P("2,1"), P("2,1"), P("3")).value == 1
    assert kronecker_coefficient(P("2,1"), P("2,1"), P("1,1,1")).value == 1
    assert kronecker_coefficient(P("3"), P("2,1"), P("3")).value == 0
    assert kronecker_coefficient(P("3,1"), P("3,1"), P("3,1")).value == 1
    assert kronecker_coefficient(P("3,1"), P("3,1"), P("2,1,1")).value == 1
    assert kronecker_coefficient(P("2,2"), P("2,2"), P("3,1")).value == 0
    assert kronecker_coefficient(P("2,2"), P("2,2"), P("2,2")).value == 1


def test_fully_symmetric_in_all_three_arguments():
    shapes = enumerate_partitions(4)
    import itertools

    for mu, nu, lam in itertools.combinations(shapes, 3):
        values = {
            kronecker_coefficient(a, b, c).value
            for a, b, c in itertools.permutations((mu, nu, lam))
        }
        assert len(values) == 1


def test_trivial_label_gives_delta():
    for n in (3, 4):
        shapes = enumerate_partitions(n)
        triv = Partition((n,))
        for mu in shapes:
            for nu in shapes:
                expected = 1 if mu == nu else 0
                assert kronecker_coefficient(mu, nu, triv).value == expected


def test_alternating_label_gives_conjugate_delta():
    for n in (3, 4):
        shapes = enumerate_partitions(n)
        sign = Partition((1,) * n)
        for mu in shapes:
            for nu in shapes:
                expected = 1 if conjugate_partition(mu) == nu else 0
                assert kronecker_coefficient(mu, nu, sign).value == expected


def test_dimension_sum_identity():
    for n in (3, 4, 5):
        shapes = enumerate_partitions(n)
        for mu in shapes:
            for nu in shapes:
                total = sum(
                    kronecker_coefficient(mu, nu, lam).value * irrep_dimension(lam)
                    for lam in shapes
                )
                assert total == irrep_dimension(mu) * irrep_dimension(nu)


def test_multiplicity_character_on_tensor_rep():
    sigma = tensor_rep(P("2,1"), P("2,1"))
    for lam, m in multiplicities(sigma).items():
        assert m == kronecker_coefficient(P("2,1"), P("2,1"), lam).value
    assert list(multiplicities(sigma)) == list(enumerate_partitions(3))


def test_multiplicity_character_on_derived_reps():
    lam = P("2,1")
    assert multiplicities(identity_times_irrep(2, lam))[lam] == 2
    assert multiplicities(identity_times_irrep(2, lam))[P("3")] == 0
    # every irrep occurs in the regular representation d times
    for rep in regular_representations(4):
        for shape in enumerate_partitions(4):
            assert multiplicities(rep)[shape] == irrep_dimension(shape)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_multiplicities_of_every_kind_match_the_group_sum_projector(n, group_sum_projector):
    # m_lam d_lam is the trace of (d_lam/|G|) sum_g chi^lam(g) rep(g), summed
    # over the whole group through rep_stack: an oracle beside the columns.
    shapes = enumerate_partitions(n)
    reps = [*map(irrep, shapes), identity_times_irrep(2, shapes[len(shapes) // 2]),
            *regular_representations(n), *(tensor_rep(mu, nu) for mu in shapes for nu in shapes)]
    for rep in reps:
        ms = multiplicities(rep)
        for lam in shapes:
            trace = np.trace(group_sum_projector(rep, lam))
            assert abs(ms[lam] * irrep_dimension(lam) - trace) < 1e-9, (rep.kind, rep.labels, lam)


def test_group_average_is_exact_and_checked():
    assert _group_average(12, 3, "ok") == 2
    with pytest.raises(NumericalConsistencyError):
        _group_average(7, 3, "remainder")
    with pytest.raises(NumericalConsistencyError):
        _group_average(-6, 3, "negative")


def test_character_route_builds_no_irrep_at_n9():
    before = irrep.cache_info().currsize
    assert kronecker_coefficient(P("4,3,2"), P("4,3,2"), P("3,3,2,1"), route="char").value == 11
    assert kronecker_coefficient(P("5,2,2"), P("4,4,1"), P("3,3,2,1"), route="char").value == 4
    lightning_distribution(P("5,3,1"), P("4,3,2"))
    assert irrep.cache_info().currsize == before


def test_lightning_at_n12_sums_to_one():
    mu, nu = P("5,4,3"), P("4,4,2,2")
    dist = lightning_distribution(mu, nu)
    assert len(dist) == len(enumerate_partitions(12))
    assert math.fsum(dist.values()) == pytest.approx(1.0, abs=1e-12)
    weights = sum(
        irrep_dimension(lam) * kronecker_coefficient(mu, nu, lam).value for lam in dist
    )
    assert weights == irrep_dimension(mu) * irrep_dimension(nu)


def test_lightning_at_n15_matches_the_backward_route(backward_character):
    # The forward columns against sums of backward entries, for every lam.
    mu, nu = P("6,5,4"), P("5,5,3,2")
    classes = enumerate_partitions(15)
    forward = multiplicities(tensor_rep(mu, nu))
    assert list(forward) == list(classes)
    for lam in classes:
        total = sum(
            class_size(ct) * backward_character(mu, ct) * backward_character(nu, ct)
            * backward_character(lam, ct)
            for ct in classes
        )
        assert forward[lam] == _group_average(total, 15, f"backward {lam}"), lam


def test_negative_multiplicity_rejected():
    with pytest.raises(NumericalConsistencyError):
        Multiplicity(value=-1, route="character-sum")


def test_mismatched_degrees_rejected():
    with pytest.raises(InvalidArgumentError):
        kronecker_coefficient(P("2,1"), P("2,1"), P("3,1"))
    with pytest.raises(InvalidArgumentError):
        kronecker_coefficient(P("2,1"), P("2,1"), P("2,1"), route="nope")
