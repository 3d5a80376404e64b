import numpy as np
import pytest

from rstn.families import (
    appendix_c,
    family_call,
    once_fine_grained,
    random_scenario,
    tiny_generic,
    two_sector,
)
from rstn.state import ValidationError, scenario_from_dict, scenario_to_dict

BLOCKS = dict(a=0.3, d=0.25, w=0.45, b=0.1 + 0.05j, u=0.12 - 0.03j,
              v=0.07 + 0.02j)
APPENDIX_C_DEFAULTS = dict(b=0j, u=0j, v=0j, region="x", mode="exact")
CALLS = [
    (appendix_c, dict(twice_s=20, **BLOCKS)),
    (appendix_c, dict(twice_s=3, a=0.2, d=0.2, w=0.6)),
    (appendix_c, dict(twice_s=4, **BLOCKS, region="s_link", mode="high_spin")),
    (two_sector, dict(twice_s=399, twice_t=199, c0=0.5)),
    (two_sector, dict(twice_s=5, twice_t=7, c0=0.3, mode="exact")),
    (two_sector, dict(twice_s=6, twice_t=2, c0=1.0)),
]


def _reread(sc, names=None):
    """`sc` through its JSON form, with other sector names if given."""
    data = scenario_to_dict(sc)
    for sec, name in zip(data["sectors"], names or []):
        sec["name"] = name
    return scenario_from_dict(data)


@pytest.mark.parametrize("k", range(len(CALLS)))
def test_family_call_rebuilds_each_family_call(k):
    builder, kwargs = CALLS[k]
    sc = _reread(builder(**kwargs), names=["first", "second"])
    found, found_kwargs = family_call(sc)
    assert found is builder
    expected = {"mode": "high_spin", **kwargs} if builder is two_sector else {
        **APPENDIX_C_DEFAULTS, **kwargs}
    assert found_kwargs == expected
    assert scenario_to_dict(found(**found_kwargs))["intertwiner"] == (
        scenario_to_dict(sc)["intertwiner"])


def _mutated(builder, kwargs, edit):
    data = scenario_to_dict(builder(**kwargs))
    edit(data)
    return scenario_from_dict(data)


def _set(path, value):
    def edit(data):
        *keys, last = path
        for key in keys:
            data = data[key]
        data[last] = value
    return edit


NOT_REBUILT = {
    "other C": _mutated(appendix_c, dict(twice_s=4, **BLOCKS),
                        _set(["region_C"], ["b4"])),
    "amplitude": _mutated(appendix_c, dict(twice_s=4, **BLOCKS),
                          _set(["amplitudes"], {"i0": {"4": [0.5, 0.1]}})),
    "high-spin cutoffs": _mutated(two_sector, dict(twice_s=9, twice_t=5),
                                  _set(["cutoffs"], {"lower": 2.0})),
    "unequal diagonal": _mutated(
        two_sector, dict(twice_s=9, twice_t=5),
        _set(["intertwiner", "blocks", "0,0"], [[0.3, 0.0], [0.0, 0.2]])),
    "other vertex-0 spins": _mutated(
        two_sector, dict(twice_s=9, twice_t=5),
        lambda data: data["sectors"][1]["spins"].update(b1=7, b2=17)),
    "three sectors": random_scenario(np.random.default_rng(5), "two", 3),
    "one sector": tiny_generic(),
    "five vertices": once_fine_grained(1),
}


@pytest.mark.parametrize("name", sorted(NOT_REBUILT))
def test_family_call_refuses_other_scenarios(name):
    with pytest.raises(ValidationError, match="appendix_c or two_sector"):
        family_call(NOT_REBUILT[name])
