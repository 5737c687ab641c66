"""Every bounded config ends in a documented exit code, never a traceback.

Configs are drawn over a small but rough space (any coupling, amplitude and
step within the ranges below, zero to three stages, zero being a config
error) and run through the CLI
entry point in process.  Success (0), a config error (2) and a numerical
failure (3) are all acceptable outcomes; an internal error (4) is not.
The number of examples comes from the Hypothesis profile (tests/conftest.py):
50 derandomized ones by default, at least 500 random ones under
`--hypothesis-profile=wide`.
"""

import pytest

pytest.importorskip("hypothesis")  # the `test` extra in pyproject.toml
from hypothesis import example, given, strategies as st

from quenchstage.cli import main

OUTCOMES = (0, 2, 3)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One config/output directory for every example of the module."""
    path = tmp_path_factory.mktemp("properties")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("QUENCHSTAGE_OUT", str(path / "out"))
        yield path


def run(workdir, command, values):
    cfg = workdir / f"{command}.cfg"
    cfg.write_text("".join(f"{key} = {value!r}\n" for key, value in values.items()))
    return main([command, "--config", str(cfg)])


stagewise_configs = st.fixed_dictionaries(
    {
        "lambda": st.floats(0.0, 2000.0),
        "u0_amplitude": st.floats(0.01, 0.95),
        "A0": st.floats(0.05, 50.0),
        "k": st.integers(2, 4),
        "N0": st.integers(2, 6),
        "ds": st.floats(1e-4, 1e-1),
        "max_stages": st.integers(0, 3),
        "step_cap": st.integers(1, 300),
    }
)


@st.composite
def direct_configs(draw):
    dt = draw(st.floats(1e-4, 1e-1))
    return {
        "lambda": draw(st.floats(0.0, 2000.0)),
        "N": draw(st.integers(2, 16)),
        "dt": dt,
        "T": draw(st.integers(0, 50)) * dt,
        "u0_amplitude": draw(st.floats(0.01, 0.95)),
    }


@given(values=stagewise_configs)
# stage 0 triggers, and the transfer undershoots below the threshold: exit 3
@example(
    values={
        "lambda": 400.0, "u0_amplitude": 0.01, "A0": 0.05, "k": 2, "N0": 3,
        "ds": 0.02, "max_stages": 2,
    }
)
def test_stagewise_ends_in_documented_exit_code(workdir, values):
    assert run(workdir, "stagewise", values) in OUTCOMES


@given(values=direct_configs())
# T/dt overflows to inf: exit 2
@example(
    values={"lambda": 15.0, "N": 15, "dt": 5e-324, "T": 1.0, "u0_amplitude": 0.45}
)
def test_direct_ends_in_documented_exit_code(workdir, values):
    assert run(workdir, "direct", values) in OUTCOMES
