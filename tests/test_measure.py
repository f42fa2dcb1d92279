import json
import math
import warnings

import numpy as np
import pytest

from gwn import fieldops, funcalc, gammasample, wickcalc
from gwn.errors import DimensionError, DomainError
from gwn.measure import AtomicMeasure, load_measure, save_measure
from gwn.symtensor import FockVector, SymTensor
from gwn.wickcalc import Basis, OmegaSample, PolyFunctional


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


@pytest.mark.parametrize("call, message", [
    (lambda meas: meas.indicator([0, 3]), "atom index out of range"),
    (lambda meas: meas.indicator([-1]), "atom index out of range"),
    (lambda meas: meas.delta_direction(3), "atom index 3 out of range for m=3"),
], ids=["indicator_past_end", "indicator_negative", "delta_direction"])
def test_atom_index_out_of_range(call, message):
    with pytest.raises(DimensionError, match=message) as raised:
        call(AtomicMeasure([0.5, 1.5, 2.0]))
    assert "\n" not in str(raised.value)


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


def _direction_entry_points():
    """(name, call) for every public function that takes a direction or a
    test function on the atoms; call(f) runs it with f in that slot."""
    mu = AtomicMeasure([1.0, 2.0])
    p = PolyFunctional(Basis.MONOMIAL, FockVector(
        [SymTensor(2, n, np.linspace(0.1, 0.4, n + 1)) for n in range(3)]))
    om = OmegaSample([0.5, 1.5])
    cfg = gammasample.SamplerConfig(seed=0, n_samples=10)
    return [
        ("d_xi", lambda f: funcalc.d_xi(p, f, mu)),
        ("annihilate1_integral", lambda f: funcalc.annihilate1_integral(p, f, mu, om)),
        ("creation_gradient_check",
         lambda f: funcalc.creation_gradient_check(p, f, om, mu)),
        ("neutral_gradient_check",
         lambda f: funcalc.neutral_gradient_check(p, f, om, mu)),
        ("second_annihilation_check",
         lambda f: funcalc.second_annihilation_check(p, f, om, mu)),
        ("stransform_multiplication_check",
         lambda f: funcalc.stransform_multiplication_check(p, f, mu)),
        ("a1_plus_explicit", lambda f: funcalc.a1_plus_explicit(p, f, om, mu)),
        ("a1_plus_mc_adjointness_check",
         lambda f: funcalc.a1_plus_mc_adjointness_check(p, p, f, mu, cfg)),
        ("multiplication_reassembly_check",
         lambda f: funcalc.multiplication_reassembly_check(p, f, om, mu)),
        ("laplace_target", lambda f: gammasample.laplace_target(mu, f)),
        ("mc_laplace", lambda f: gammasample.mc_laplace(mu, f, cfg)),
        ("mc_laplace_stack",
         lambda f: gammasample.mc_laplace_stack(mu, [[0.1, 0.2], f], cfg)),
        ("mc_chaos_gram",
         lambda f: gammasample.mc_chaos_gram(mu, f, [0.1, 0.2], cfg, 2)),
        ("mc_chaos_gram_g",
         lambda f: gammasample.mc_chaos_gram(mu, [0.1, 0.2], f, cfg, 2)),
        ("multiple_integral_identity",
         lambda f: gammasample.multiple_integral_identity(mu, [f], om)),
        ("jacobi_action_check", lambda f: fieldops.jacobi_action_check(mu, f, 2)),
        ("wick_exp", lambda f: wickcalc.wick_exp(om, f, mu, 2)),
        ("s_transform", lambda f: wickcalc.s_transform(p, f, mu)),
        ("wick_pair_rank_one", lambda f: wickcalc.wick_pair_rank_one(om, f, mu, 2)),
        ("wick_pair_rank_one_batch_stack",
         lambda f: wickcalc.wick_pair_rank_one_batch([[0.5, 1.5]], [[0.1, 0.2], f],
                                                     mu, 2)),
    ]


ENTRY_POINTS = _direction_entry_points()
BAD_FUNCTIONS = {
    "complex_array": np.array([1j, 0.5]),
    "complex_list": [0.5j, 0.5],
    "nan_entry": [math.nan, 0.5],
}


@pytest.mark.parametrize("bad", BAD_FUNCTIONS.values(), ids=BAD_FUNCTIONS.keys())
@pytest.mark.parametrize("call", [c for _, c in ENTRY_POINTS],
                         ids=[n for n, _ in ENTRY_POINTS])
def test_directions_must_be_real_and_finite(call, bad):
    """A complex or NaN direction is a DomainError, not a cast that drops
    the imaginary part (with a ComplexWarning) or a NaN in the output."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            call(bad)


def test_real_function_keeps_real_input():
    mu = AtomicMeasure([1.0, 2.0])
    assert mu.real_function([1, 2]).dtype == float
    with pytest.raises(DimensionError):
        mu.real_function([1j])
