import numpy as np
import pytest

from coolsched.ingest import align, synth_prices, synth_temperature, synth_workload
from coolsched.mdp import CostSpec, StateSpace
from coolsched.sim import SimSpecs
from coolsched.thermal import ChillerSpec, FacilitySpec, HeatLoadSpec

# Thermally heavy facility (thick slab + equipment mass): with a 1.5 MW load
# the idle drift is about 1 degC/h, slow enough that pre-cooling can bank
# several hours of slack inside the 18-27 degC band.
FACILITY = FacilitySpec(slab_thickness=0.4, c_equipment=3.0e9)
CHILLER = ChillerSpec()
HEAT = HeatLoadSpec()
COST = CostSpec(t_min=18.0, t_max=27.0, lambda_under=1000.0, lambda_over=1000.0)
SPACE = StateSpace(theta_min=15.0, theta_max=32.0, theta_step=0.5, m=4, a_max=4)
# One core per W: heat_load(W_PER_CORE, q) is q, so a plant given by its heat
# load in W steps on that load exactly.
W_PER_CORE = HeatLoadSpec(q_base=0, phi=1)


def unit_room(gamma_env, c_heat):
    """A facility of capacitance exactly c_heat: 1 m^3 of unit air, no slab,
    and equipment holding the rest (c_heat >= 1 J/degC)."""
    return FacilitySpec(floor_area=1, ceiling_height=1, slab_thickness=0,
                        rho_air=1, cp_air=1, c_equipment=c_heat - 1,
                        gamma_env=gamma_env)


@pytest.fixture(scope="session")
def sim_specs():
    return SimSpecs(facility=FACILITY, chiller=CHILLER, heat=HEAT, cost=COST)


def summer_dataset(seed=0, year=2024, days=92):
    """Aligned synthetic summer starting June 1 of `year`."""
    start = f"{year}-06-01T00:00:00Z"
    n = days * 24
    price = synth_prices(seed, n, start=start)
    temp = synth_temperature(seed + 1, n, start=start)
    work = synth_workload(seed + 2, n, 50_000, 0.4, start=start)
    end_hour = int(price.hours[-1])
    return align(price, temp, work, (int(price.hours[0]), end_hour))


@pytest.fixture(scope="session")
def summer_2024():
    return summer_dataset(seed=0)
