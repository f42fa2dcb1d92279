import json

import numpy as np
import pytest

from gwn.errors import DimensionError, DomainError
from gwn.measure import AtomicMeasure, load_measure, save_measure


def test_integrate_frozen_value():
    m = AtomicMeasure([0.5, 1.5])
    assert m.integrate([2.0, 4.0]) == pytest.approx(7.0, abs=1e-15)


def test_total_mass_single_atom():
    assert AtomicMeasure([2.0]).total_mass == pytest.approx(2.0, abs=0)


def test_total_mass_compensated_reordering():
    rng = np.random.default_rng(7)
    w = rng.uniform(1e-8, 1e8, 50)
    m1 = AtomicMeasure(w)
    m2 = AtomicMeasure(w[::-1].copy())
    assert m1.total_mass == m2.total_mass


def test_integrate_additive_in_function(rng):
    w = rng.uniform(0.1, 3.0, 6)
    meas = AtomicMeasure(w)
    f = rng.normal(size=6)
    g = rng.normal(size=6)
    lhs = meas.integrate(f + g)
    rhs = meas.integrate(f) + meas.integrate(g)
    assert abs(lhs - rhs) <= 1e-14 * max(1.0, abs(lhs))


def test_l2_inner_matches_integrate_of_product(rng):
    meas = AtomicMeasure(rng.uniform(0.1, 2.0, 5))
    f = rng.normal(size=5)
    g = rng.normal(size=5)
    assert meas.l2_inner(f, g) == pytest.approx(meas.integrate(f * g), rel=1e-14)


def test_weights_must_be_positive():
    with pytest.raises(DomainError):
        AtomicMeasure([1.0, 0.0])
    with pytest.raises(DomainError):
        AtomicMeasure([1.0, -2.0])
    with pytest.raises(DimensionError):
        AtomicMeasure([])


def test_length_mismatch_raises():
    meas = AtomicMeasure([1.0, 2.0])
    with pytest.raises(DimensionError):
        meas.integrate([1.0, 2.0, 3.0])
    with pytest.raises(DimensionError):
        meas.l2_inner([1.0], [1.0, 2.0])


def test_weights_are_immutable():
    meas = AtomicMeasure([1.0, 2.0])
    with pytest.raises(ValueError):
        meas.weights[0] = 5.0


def test_delta_conventions():
    meas = AtomicMeasure([0.5, 2.0])
    f = np.array([3.0, 7.0])
    # direction convention: plain evaluation
    assert float(meas.delta_direction(1) @ f) == pytest.approx(7.0)
    # density convention: evaluation after weighting by the measure
    assert meas.integrate(meas.delta_density(1) * f) == pytest.approx(7.0)


def test_indicator_and_mass():
    meas = AtomicMeasure([0.5, 1.5, 2.0])
    chi = meas.indicator([0, 2])
    assert chi.tolist() == [1.0, 0.0, 1.0]
    assert meas.integrate(chi) == pytest.approx(2.5)


def test_json_round_trip(tmp_path):
    meas = AtomicMeasure([0.25, 1.0, 3.5])
    p = tmp_path / "measure.json"
    save_measure(meas, p)
    loaded = load_measure(p)
    assert np.array_equal(loaded.weights, meas.weights)
    raw = json.loads(p.read_text())
    assert raw == {"weights": [0.25, 1.0, 3.5]}


def test_json_missing_weights_key(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{}")
    with pytest.raises(DomainError):
        load_measure(p)


@pytest.mark.parametrize("d", [5, ["weights"], {"weights": {"a": 1}},
                               {"weights": [True, 1.0]}, {"weights": [None, 1.0]}])
def test_json_refuses_what_is_not_an_array_of_numbers(d):
    # a bool is refused, not read as 1.0
    with pytest.raises(ValueError):
        AtomicMeasure.from_json_dict(d)
