"""Pi-model mapping, branch currents and the stacked PMU regression."""

from cmath import rect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eiv_lpe.line_model import (
    CONSTRAINT_C,
    CONSTRAINT_F,
    EivProblem,
    LineParameters,
    PMU_DTYPE,
    admittance_to_params,
    branch_currents,
    build_regression,
    params_to_admittance,
    series_admittance,
    simulate_records,
)

STOCK = LineParameters(r=0.00269, x=0.0302, b=0.3800)


def test_series_admittance_hand_value():
    # 1. y = 1 / (r + jx) for a round-number line
    y = series_admittance(LineParameters(0.01, 0.1, 0.2))
    z = complex(0.01, 0.1)
    assert abs(y * z - 1.0) < 1e-15
    assert abs(y - complex(0.9900990099009901, -9.900990099009901)) < 1e-12


def test_branch_currents_frozen():
    # pi model: i_end = (y + jb) v_end - y v_other, shunt b at each terminal
    ik, il = branch_currents(rect(1.02, 0.1), rect(0.98, -0.05), LineParameters(0.01, 0.1, 0.2))
    assert abs(ik - complex(1.50857032166426, -0.00541545038245594)) < 1e-12
    assert abs(il - complex(-1.51914042148316, 0.404151351136585)) < 1e-12


def test_branch_currents_open_line():
    # equal terminal voltages leave only the shunt current j b v
    v = rect(1.0, 0.3)
    ik, il = branch_currents(v, v, LineParameters(0.01, 0.1, 0.2))
    assert abs(ik - 1j * 0.2 * v) < 1e-15
    assert abs(il - 1j * 0.2 * v) < 1e-15


def test_params_to_admittance_frozen():
    w = params_to_admittance(STOCK)
    assert isinstance(w, np.ndarray) and w.shape == (4,)
    expected = np.array(
        [2.926215529806551, 32.47193643128544, -2.926215529806551, -32.851936431285445]
    )
    assert np.allclose(w, expected, rtol=0, atol=1e-12)
    # physical lines satisfy y1 + y3 = 0 exactly
    assert w[0] + w[2] == 0.0


def test_admittance_round_trip():
    for params in (STOCK, LineParameters(0.05, 0.2, 0.01), LineParameters(0.0, 0.3, 0.6)):
        back = admittance_to_params(params_to_admittance(params))
        assert abs(back.r - params.r) < 1e-12
        assert abs(back.x - params.x) < 1e-12
        assert abs(back.b - params.b) < 1e-12


@settings(max_examples=200, deadline=None)
@given(r=st.floats(1e-5, 1.0), x=st.floats(1e-5, 1.0), b=st.floats(1e-6, 2.0))
def test_admittance_round_trip_property(r, x, b):
    params = LineParameters(r, x, b)
    back = admittance_to_params(params_to_admittance(params))
    assert abs(back.r - r) <= 1e-12 * r
    assert abs(back.x - x) <= 1e-12 * x
    # b comes back as -(y2 + y4), where y2 carries -Im(y_kl) as well as -b
    assert abs(back.b - b) <= 1e-12 * (b + abs(series_admittance(params).imag))


def test_admittance_inverse_uses_symmetric_part():
    # shifting y1 and y3 by the same amount keeps y1 - y3 and hence (r, x)
    w = params_to_admittance(STOCK)
    shifted = w + np.array([0.1, 0.0, 0.1, 0.0])
    params = admittance_to_params(shifted)
    assert abs(params.r - STOCK.r) < 1e-12
    assert abs(params.x - STOCK.x) < 1e-12


def test_admittance_inverse_rejects_zero_series():
    with pytest.raises(ValueError):
        admittance_to_params(np.array([0.0, 1.0, 0.0, 0.0]))


@settings(max_examples=100, deadline=None)
@given(
    y1=st.floats(-10.0, 10.0),
    gap=st.floats(-3e-13, 3e-13),
    y2=st.floats(-10.0, 10.0),
    y4=st.floats(-2e-13, 2e-13),
)
def test_admittance_inverse_rejects_numerically_zero_series(y1, gap, y2, y4):
    # (y1 - y3)^2 + (2 y4)^2 stays below the 1e-24 floor
    with pytest.raises(ValueError, match="numerically zero"):
        admittance_to_params(np.array([y1, y2, y1 - gap, y4]))


def test_admittance_to_params_takes_array_likes_of_shape_4():
    w = params_to_admittance(STOCK)
    assert admittance_to_params(w.tolist()) == admittance_to_params(w)
    for bad in (np.zeros(3), np.zeros((2, 2))):
        with pytest.raises(ValueError, match=r"must have shape \(4,\), got \(.*\)"):
            admittance_to_params(bad)


def test_line_parameters_validation():
    with pytest.raises(ValueError):
        LineParameters(-0.01, 0.1, 0.2)
    with pytest.raises(ValueError):
        LineParameters(0.0, 0.0, 0.2)
    with pytest.raises(ValueError):
        LineParameters(np.nan, 0.1, 0.2)


def test_regression_row_layout():
    # one record with sentinel phasors; rows follow the documented stencil
    rec = (0, complex(1.0, 2.0), complex(3.0, 4.0), complex(5.0, 6.0), complex(7.0, 8.0))
    problem = build_regression(np.rec.array([rec], dtype=PMU_DTYPE))
    expected_x = np.array(
        [
            [1.0, 2.0, 3.0, 4.0],
            [2.0, -1.0, 4.0, -3.0],
            [3.0, 4.0, 1.0, 2.0],
            [4.0, -3.0, 2.0, -1.0],
        ]
    )
    expected_y = np.array([5.0, 6.0, 7.0, 8.0])
    assert np.array_equal(problem.x, expected_x)
    assert np.array_equal(problem.y, expected_y)
    # every window carries the pi-line constraint y1 + y3 = 0
    c, f = problem.constraint
    assert np.array_equal(c, CONSTRAINT_C)
    assert np.array_equal(f, CONSTRAINT_F)
    assert np.array_equal(CONSTRAINT_C, np.array([[1.0], [0.0], [1.0], [0.0]]))
    assert np.array_equal(CONSTRAINT_F, np.array([0.0]))
    assert problem.eps0 == 1.0


def test_regression_exact_on_clean_records():
    # simulated records satisfy y = X w(true) to machine precision
    rng = np.random.default_rng(5)
    vk = 1.0 + 0.02 * rng.random(40) + 1j * 0.01 * rng.random(40)
    vl = 0.98 + 0.02 * rng.random(40) - 1j * 0.05 * rng.random(40)
    records = simulate_records(vk, vl, STOCK)
    problem = build_regression(records)
    w_true = params_to_admittance(STOCK)
    assert problem.x.shape == (160, 4)
    assert np.abs(problem.x @ w_true - problem.y).max() < 1e-12


def test_regression_rejects_empty():
    with pytest.raises(ValueError):
        build_regression(np.recarray(0, dtype=PMU_DTYPE))


def test_simulate_records_shape_mismatch():
    with pytest.raises(ValueError):
        simulate_records(np.ones(3, dtype=complex), np.ones(4, dtype=complex), STOCK)


def test_eiv_problem_validation():
    x = np.ones((4, 2))
    y = np.ones(4)
    with pytest.raises(ValueError):
        EivProblem(np.ones(4), y)  # x not 2-d
    with pytest.raises(ValueError):
        EivProblem(x, np.ones(3))  # y length mismatch
    with pytest.raises(ValueError):
        EivProblem(np.ones((1, 2)), np.ones(1))  # fewer rows than columns
    with pytest.raises(ValueError):
        EivProblem(x, np.array([1.0, np.inf, 0.0, 0.0]))
    # NaN slips past a plain `eps0 <= 0` check; NaN or inf gives tls a NaN objective
    for eps0 in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="eps0 must be positive and finite"):
            EivProblem(x, y, eps0=eps0)
    with pytest.raises(ValueError):
        EivProblem(x, y, constraint=(np.ones((3, 1)), np.zeros(1)))  # wrong C rows
    with pytest.raises(ValueError):
        EivProblem(x, y, constraint=(np.ones((2, 1)), np.zeros(2)))  # wrong f length
    ok = EivProblem(x, y, constraint=([[1.0], [0.0]], [0.5]))
    assert ok.x.shape == (4, 2)
    assert ok.constraint[0].shape == (2, 1)
