import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypothesis.extra.numpy import arrays

from coolsched.thermal import (STEP_SECONDS, ChillerSpec, FacilitySpec,
                               HeatLoadSpec, capacitance, cop_table,
                               decay_factor, heat_load, step_table,
                               step_temperature)

from references import cooling_energy, cop


def test_capacitance_air_only():
    spec = FacilitySpec(slab_thickness=0.0, c_equipment=0.0)
    assert capacitance(spec) == pytest.approx(1.204 * 1005 * 3000 * 4)


def test_capacitance_reference_air_value():
    # 3000 m^2 x 4 m of air at standard density/heat: 1.452e7 J/degC
    spec = FacilitySpec(slab_thickness=0.0, c_equipment=0.0)
    assert capacitance(spec) == pytest.approx(1.452e7, rel=1e-3)


def test_capacitance_linear_in_floor_area():
    small = FacilitySpec(floor_area=3000, c_equipment=0.0)
    big = FacilitySpec(floor_area=6000, c_equipment=0.0)
    assert capacitance(big) == pytest.approx(2 * capacitance(small))


def test_capacitance_components_add():
    full = FacilitySpec()
    no_equipment = FacilitySpec(c_equipment=0.0)
    assert capacitance(full) - capacitance(no_equipment) == pytest.approx(4.0e7)


def test_heat_load_base_only():
    assert heat_load(HeatLoadSpec(), 0) == 1.0e6


def test_heat_load_formula():
    assert heat_load(HeatLoadSpec(q_base=1e6, phi=10), 50_000) == 1.5e6


def test_heat_load_zero_phi():
    spec = HeatLoadSpec(q_base=7e5, phi=0.0)
    assert heat_load(spec, 0) == heat_load(spec, 123456) == 7e5


def test_cop_endpoints_exact():
    spec = ChillerSpec()
    assert cop(spec, 15.0) == 5.0
    assert cop(spec, 40.0) == 2.5
    assert cop(spec, -20.0) == 5.0
    assert cop(spec, 55.0) == 2.5


def test_cop_midpoint():
    assert cop(ChillerSpec(), 25.0) == pytest.approx(4.0, abs=1e-12)


def test_cop_bounds_everywhere():
    spec = ChillerSpec()
    temps = np.linspace(-30, 60, 901)
    values = np.array([cop(spec, t) for t in temps])
    assert np.all(values >= 2.5) and np.all(values <= 5.0)


_SPEC = ChillerSpec()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-60.0, max_value=80.0), max_size=50))
@example([_SPEC.cop_lo_temp])
@example([_SPEC.cop_hi_temp])
@example([math.nextafter(t, toward) for t in (_SPEC.cop_lo_temp, _SPEC.cop_hi_temp)
          for toward in (-math.inf, math.inf)])
def test_cop_table_matches_scalar(temps):
    table = cop_table(_SPEC, np.array(temps, dtype=float))
    assert table.tobytes() == np.array([cop(_SPEC, t) for t in temps],
                                       dtype=float).tobytes()


def test_step_temperature_fixed_point():
    # theta at equilibrium stays put
    theta_eq = 20.0 + (5e5 - 0.0) / 1e4
    out = step_temperature(theta_eq, 20.0, 5e5, 0, 1.25e6, 1e4, 1e9)
    assert out == pytest.approx(theta_eq, abs=1e-9)


def test_step_temperature_unit_decay():
    # gamma*STEP_SECONDS/C = 1: theta relaxes to t_out + 10/e with q = a = 0
    c_heat = 1e4 * STEP_SECONDS
    out = step_temperature(30.0, 20.0, 0.0, 0, 1.25e6, 1e4, c_heat)
    assert out == pytest.approx(20.0 + 10.0 * math.exp(-1.0), abs=1e-12)


def test_step_temperature_large_capacitance_limit():
    # gamma*STEP_SECONDS/C = 1e-11, as a 1e-6 s step of a 1e9 J/degC room
    out = step_temperature(24.0, 35.0, 2e6, 1, 1.25e6, 1e4, 3.6e18)
    assert out == pytest.approx(24.0, abs=1e-6)


def test_cooling_energy_idle_is_free():
    assert cooling_energy(ChillerSpec(), 0, 30.0) == 0.0


def test_cooling_energy_reference_value():
    # 2 chillers, 1.25 MW each, COP 4 at 25 degC, one hour: 625 kWh
    assert cooling_energy(ChillerSpec(), 2, 25.0) == pytest.approx(625.0, rel=1e-12)


def test_cooling_energy_monotone():
    spec = ChillerSpec()
    energies = [cooling_energy(spec, a, 25.0) for a in range(5)]
    assert all(e2 > e1 for e1, e2 in zip(energies, energies[1:]))
    assert cooling_energy(spec, 2, 35.0) >= cooling_energy(spec, 2, 25.0)


def test_cooling_energy_additive():
    spec = ChillerSpec()
    for a in (1, 2):
        assert cooling_energy(spec, 2 * a, 28.0) == pytest.approx(
            2 * cooling_energy(spec, a, 28.0), rel=1e-15)


def test_cooling_energy_rejects_bad_action():
    with pytest.raises(ValueError):
        cooling_energy(ChillerSpec(), 5, 25.0)


def _random_draws(n, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "theta": rng.uniform(10, 35, n),
        "t_out": rng.uniform(-10, 45, n),
        "q": rng.uniform(0, 5e6, n),
        "a": rng.integers(0, 5, n),
        "gamma": rng.uniform(1e3, 1e5, n),
        "c_heat": rng.uniform(1e8, 1e10, n),
    }


def test_step_temperature_properties_bulk():
    """Fixed point, strict monotonicity in a/theta/t_out/q, and contraction
    over 10^4 random parameter draws."""
    n = 10_000
    d = _random_draws(n)
    eta = 1.25e6

    def step(theta, t_out, q, a, gamma, c_heat):
        theta_eq = t_out + (q - eta * a) / gamma
        decay = np.exp(-gamma * STEP_SECONDS / c_heat)
        return theta_eq + (theta - theta_eq) * decay

    base = step(d["theta"], d["t_out"], d["q"], d["a"], d["gamma"], d["c_heat"])

    # spot-check the vectorized replica against the scalar implementation
    for i in range(0, n, 997):
        got = step_temperature(d["theta"][i], d["t_out"][i], d["q"][i],
                               int(d["a"][i]), eta, d["gamma"][i],
                               d["c_heat"][i])
        assert got == pytest.approx(base[i], rel=1e-12)

    # equilibrium is a fixed point
    theta_eq = d["t_out"] + (d["q"] - eta * d["a"]) / d["gamma"]
    at_eq = step(theta_eq, d["t_out"], d["q"], d["a"], d["gamma"], d["c_heat"])
    assert np.allclose(at_eq, theta_eq, atol=1e-6)

    # one more chiller always cools strictly
    more = step(d["theta"], d["t_out"], d["q"], d["a"] + 1, d["gamma"], d["c_heat"])
    assert np.all(more < base)

    # strictly increasing in theta, t_out, q
    assert np.all(step(d["theta"] + 0.5, d["t_out"], d["q"], d["a"],
                       d["gamma"], d["c_heat"]) > base)
    assert np.all(step(d["theta"], d["t_out"] + 0.5, d["q"], d["a"],
                       d["gamma"], d["c_heat"]) > base)
    assert np.all(step(d["theta"], d["t_out"], d["q"] + 1e4, d["a"],
                       d["gamma"], d["c_heat"]) > base)

    # contraction: two starts under identical conditions get closer
    other_start = d["theta"] + np.random.default_rng(1).uniform(-5, 5, n)
    other = step(other_start, d["t_out"], d["q"], d["a"], d["gamma"], d["c_heat"])
    assert np.all(np.abs(other - base) <= np.abs(other_start - d["theta"]) + 1e-12)


def test_spec_validation():
    with pytest.raises(ValueError):
        FacilitySpec(floor_area=-1)
    with pytest.raises(ValueError):
        ChillerSpec(cop_lo=2.0, cop_hi=3.0)
    with pytest.raises(ValueError):
        ChillerSpec(a_max=0)
    with pytest.raises(ValueError):
        HeatLoadSpec(q_base=-5)
    with pytest.raises(ValueError):
        heat_load(HeatLoadSpec(), -1)


finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def plants(draw):
    """A facility, chiller plant and heat load over wide physical ranges,
    with hourly outdoor temperatures and core counts."""
    facility = FacilitySpec(
        floor_area=draw(st.floats(100.0, 1e4, **finite)),
        ceiling_height=draw(st.floats(2.0, 10.0, **finite)),
        slab_thickness=draw(st.floats(0.0, 1.0, **finite)),
        c_equipment=draw(st.floats(0.0, 1e10, **finite)),
        gamma_env=draw(st.floats(1e3, 1e5, **finite)))
    cop_lo_temp = draw(st.floats(-10.0, 30.0, **finite))
    cop_hi = draw(st.floats(1.0, 4.0, **finite))
    chiller = ChillerSpec(
        a_max=draw(st.integers(1, 6)), eta=draw(st.floats(1e4, 5e6, **finite)),
        cop_lo_temp=cop_lo_temp,
        cop_hi_temp=cop_lo_temp + draw(st.floats(1.0, 40.0, **finite)),
        cop_lo=cop_hi + draw(st.floats(0.1, 5.0, **finite)), cop_hi=cop_hi)
    heat = HeatLoadSpec(q_base=draw(st.floats(0.0, 5e6, **finite)),
                        phi=draw(st.floats(0.0, 100.0, **finite)))
    n = draw(st.integers(1, 30))
    t_out = draw(arrays(float, n, elements=st.floats(-20.0, 50.0, **finite)))
    cores = draw(arrays(float, n, elements=st.floats(0.0, 2e5, **finite)))
    return facility, chiller, heat, t_out, cores


@settings(max_examples=100, deadline=None)
@given(plants(), st.floats(0.0, 45.0, **finite))
def test_step_table_matches_scalar_step(plant, theta):
    facility, chiller, heat, t_out, cores = plant
    table = step_table(facility, chiller, heat, t_out, cores)
    c_heat = capacitance(facility)
    assert table.decay == decay_factor(facility.gamma_env, c_heat)
    assert table.equilibria.shape == table.kwh.shape == (len(t_out),
                                                         chiller.a_max + 1)
    for t, a in np.ndindex(table.equilibria.shape):
        eq = table.equilibria[t, a]
        assert eq + (theta - eq) * table.decay == step_temperature(
            theta, t_out[t], heat_load(heat, cores[t]), a, chiller.eta,
            facility.gamma_env, c_heat)
        assert table.kwh[t, a] == cooling_energy(chiller, a, t_out[t])


def test_step_table_rejects_traces_of_other_shapes():
    spec = (FacilitySpec(), ChillerSpec(), HeatLoadSpec())
    with pytest.raises(ValueError, match="one length"):
        step_table(*spec, np.full(24, 25.0), np.full(23, 5e4))
    with pytest.raises(ValueError, match="one length"):
        step_table(*spec, np.full((2, 12), 25.0), np.full((2, 12), 5e4))
