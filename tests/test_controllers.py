import math

import numpy as np
import pytest

from coolsched.controllers import (FixedRuleController, GreedyController,
                                   QfrMdpController)
from coolsched.mdp import CostSpec, Policy, StateSpace, quantize
from coolsched.qfr import FourierDesign, RegimeModel, classify_series
from coolsched.sim import Window
from coolsched.thermal import (STEP_SECONDS, ChillerSpec, step_table,
                               step_temperature)

from conftest import W_PER_CORE, unit_room
from references import fixed_rule_action, greedy_action, night_precool_action

COST = CostSpec(t_min=18, t_max=27, lambda_under=1000, lambda_over=1000)
GAMMA, C_HEAT = 1e4, 5.5e9


def test_greedy_idle_when_sufficient():
    # cool outdoors and mild load: doing nothing keeps theta under t_max
    a = greedy_action(24.0, 15.0, 1e4, ChillerSpec(), COST, GAMMA, C_HEAT)
    assert a == 0


def test_greedy_saturates_at_capacity():
    a = greedy_action(30.0, 40.0, 5e7, ChillerSpec(), COST, GAMMA, C_HEAT)
    assert a == 4


def test_greedy_threshold_case():
    # constructed so a=0 lands at 27.4 and a=1 at 26.1: greedy must pick 1
    chiller = ChillerSpec(eta=2.6e4)
    c_heat = GAMMA * STEP_SECONDS / math.log(2)  # decay factor exactly 1/2
    s0 = step_temperature(28.0, 25.0, 1.8e4, 0, chiller.eta, GAMMA, c_heat)
    s1 = step_temperature(28.0, 25.0, 1.8e4, 1, chiller.eta, GAMMA, c_heat)
    assert s0 == pytest.approx(27.4, abs=1e-9)
    assert s1 == pytest.approx(26.1, abs=1e-9)
    assert greedy_action(28.0, 25.0, 1.8e4, chiller, COST, GAMMA, c_heat) == 1


def test_fixed_rule_peak_hours_idle():
    for theta in (20.0, 26.9, 35.0):
        for hod in (16, 17, 18):
            a = fixed_rule_action(hod, theta, 35.0, 3e6, ChillerSpec(), COST,
                                  GAMMA, C_HEAT)
            assert a == 0


def test_fixed_rule_night_precools_hard():
    # 02:00, warm room: the largest action not undershooting t_min
    chiller = ChillerSpec()
    a = fixed_rule_action(2, 25.0, 22.0, 1.5e6, chiller, COST, GAMMA, C_HEAT)
    expected = None
    for cand in range(chiller.a_max, -1, -1):
        succ = step_temperature(25.0, 22.0, 1.5e6, cand, chiller.eta,
                                GAMMA, C_HEAT)
        if succ >= COST.t_min:
            expected = cand
            break
    assert a == expected and a >= 1


def test_night_precool_never_undershoots_if_avoidable():
    chiller = ChillerSpec()
    # already at t_min: any cooling would undershoot, so do nothing
    a = night_precool_action(18.0, 20.0, 1e5, chiller, COST, GAMMA, 1e8)
    succ = step_temperature(18.0, 20.0, 1e5, a, chiller.eta, GAMMA, 1e8)
    assert succ >= COST.t_min or a == 0


def test_fixed_rule_delegates_to_greedy_off_windows():
    args = (24.5, 30.0, 1.8e6, ChillerSpec(), COST, GAMMA, C_HEAT)
    assert fixed_rule_action(10, *args) == greedy_action(*args)
    assert fixed_rule_action(21, *args) == greedy_action(*args)


def _constant_regime_model():
    """M=2 model with a flat boundary at 50 and representatives 25/75."""
    design = FourierDesign(daily_harmonics=0, seasonal_harmonics=0)
    return RegimeModel(m=2, design=design,
                       coefficients=np.array([[25.0], [50.0], [75.0]]))


def _toy_controller():
    space = StateSpace(theta_min=15, theta_max=30, theta_step=0.5, m=2, a_max=4)
    actions = np.zeros((24, space.n_theta, 2), dtype=np.int64)  # default: idle
    actions[7, quantize(22.0, space)] = [3, 2]
    policy = Policy(actions=actions, space=space, start=0)
    return QfrMdpController(policy=policy)


def _window(hours, price=50.0, t_out=30.0, q=1e6, labelled=True):
    """Flat traces, with the step table sim.Window.of builds for
    ChillerSpec() and the regime labels it gives under the constant model
    (0 when not `labelled`, as without a model)."""
    hours = np.atleast_1d(np.asarray(hours, dtype=np.int64))
    n = len(hours)
    prices = np.broadcast_to(float(price), n).copy()
    plant = step_table(unit_room(GAMMA, C_HEAT), ChillerSpec(), W_PER_CORE,
                       np.full(n, t_out), np.full(n, q))
    regime = (classify_series(_constant_regime_model(), hours, prices)
              if labelled else np.zeros(n, dtype=np.int64))
    return Window(hours=hours, price=prices, regime=regime,
                  equilibria=plant.equilibria.tolist(), decay=plant.decay,
                  kwh=plant.kwh)


def _decide(ctrl, hour, theta, price=50.0, t_out=30.0, q=1e6):
    """One decision: start on a one-hour window, then act at its hour 0."""
    ctrl.start(_window(hour, price, t_out, q))
    return ctrl.action(0, theta)


def test_mdp_action_deterministic_entry():
    ctrl = _toy_controller()
    # hour 7, theta 22, cheap price -> regime 1 -> planned a=3
    assert _decide(ctrl, 7, 22.0, 20.0) == 3
    # the slot wraps with the 24 h cycle; theta 22.2 quantizes to 22.0
    assert _decide(ctrl, 24 * 5 + 7, 22.2, 20.0) == 3
    assert _decide(ctrl, 8, 22.0, 20.0) == 0


def test_mdp_action_top_band_composition():
    ctrl = _toy_controller()
    # any price above the boundary at 50 classifies into regime 2
    for price in (50.5, 1e6):
        assert _decide(ctrl, 7, 22.0, price) == 2
    assert _decide(ctrl, 7, 22.0, 50.0) == 3


def test_mdp_start_needs_regime_labels():
    # a window built without a regime model labels every hour 0
    with pytest.raises(ValueError, match="regime model"):
        _toy_controller().start(_window(7, labelled=False))


def test_controller_classes_match_functions():
    greedy = GreedyController(COST)
    fixed = FixedRuleController(COST)
    window = _window(24 * 100 + np.arange(24), t_out=31.0, q=1.6e6)
    greedy.start(window)
    fixed.start(window)
    for hod in range(24):
        got_g = greedy.action(hod, 25.0)
        assert got_g == greedy_action(25.0, 31.0, 1.6e6, ChillerSpec(), COST,
                                      GAMMA, C_HEAT)
        got_f = fixed.action(hod, 25.0)
        assert got_f == fixed_rule_action(hod, 25.0, 31.0, 1.6e6, ChillerSpec(),
                                          COST, GAMMA, C_HEAT)


def test_fixed_rule_validates_windows():
    with pytest.raises(ValueError):
        FixedRuleController(COST, peak_start=19, peak_end=16)
