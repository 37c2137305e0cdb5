"""Record windows: bit-exact CSV round trips and the per-record oracle.

The `_reference_*` functions are the per-record loops over Python complex
scalars that the vectorised window code replaced, and `_reference_csv` is
the np.savetxt call the block writer replaced; they stay here as the oracle
the window code must match bit for bit and the writer byte for byte.
"""

import tempfile
from cmath import rect
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eiv_lpe.io import _CSV_DTYPE, PMU_CSV_HEADER, read_records_csv, write_records_csv
from eiv_lpe.line_model import (
    PMU_DTYPE,
    LineParameters,
    build_regression,
    simulate_records,
)
from eiv_lpe.noise import (
    GaussianNoise,
    GmmModel,
    GmmNoise,
    LaplacianNoise,
    apply_noise,
    sample_noise,
)
from eiv_lpe.scenario import LoadRampProfile

STOCK = LineParameters(r=0.00269, x=0.0302, b=0.3800)

# The voltage ramps of the gauss-long, laplace-all and csv-tls benchmark
# workloads (the first two are those of acceptance criteria 2 and 3).
NARROW = dict(vk_mag=(1.00, 1.02), angle_spread=(0.04, 0.24), sag_per_rad=0.05)
WIDE = dict(vk_mag=(0.95, 1.08), angle_spread=(0.3, 0.6), sag_per_rad=0.08, ref_angle=(0.0, 0.6))
WORKLOAD_PROFILES = {
    "gauss-long": (LoadRampProfile(n_records=2000, **NARROW), GaussianNoise(0.0, 0.005)),
    "laplace-all": (LoadRampProfile(n_records=250, **WIDE), LaplacianNoise(0.0, 0.005)),
    "csv-tls": (LoadRampProfile(n_records=8000), GaussianNoise(0.0, 0.005)),
}
NOISE_MODELS = [
    GaussianNoise(0.0, 0.005),
    LaplacianNoise(0.001, 0.01),
    GmmNoise(GmmModel(np.array([0.3, 0.7]), np.array([0.0, 0.01]), np.array([4e-6, 4e-6]))),
]


def _reference_voltages(profile):
    frac = profile._fractions()
    mag_k, mag_l = profile._magnitudes()
    delta = profile.angle_spread[0] + (profile.angle_spread[1] - profile.angle_spread[0]) * frac
    ref = profile.ref_angle[0] + (profile.ref_angle[1] - profile.ref_angle[0]) * frac
    vk = np.array([rect(m, t) for m, t in zip(mag_k, ref)])
    vl = np.array([rect(m, t - d) for m, d, t in zip(mag_l, delta, ref)])
    return vk, vl


def _reference_csv(records, path):
    rows = records.view(np.ndarray).view(_CSV_DTYPE)
    np.savetxt(
        path, rows, fmt=["%d"] + ["%.17g"] * 8, delimiter=",",
        newline="\r\n", header=",".join(PMU_CSV_HEADER), comments="",
    )


def _reference_records(vk, vl, params):
    y = 1.0 / complex(params.r, params.x)
    jb = complex(0.0, params.b)
    rows = []
    for t, (a, b_) in enumerate(zip(vk, vl)):
        a, b_ = complex(a), complex(b_)
        rows.append((t, a, b_, (y + jb) * a - y * b_, (y + jb) * b_ - y * a))
    return rows


def _reference_noise(rows, draws):
    noisy = []
    for (t, vk, vl, ik, il), d in zip(rows, draws):
        noisy.append((
            t,
            complex(vk.real + d[0], vk.imag + d[1]),
            complex(vl.real + d[2], vl.imag + d[3]),
            complex(ik.real + d[4], ik.imag + d[5]),
            complex(il.real + d[6], il.imag + d[7]),
        ))
    return noisy


def _reference_regression(rows):
    n = len(rows)
    x = np.empty((4 * n, 4))
    y = np.empty(4 * n)
    for i, (_, vk, vl, ik, il) in enumerate(rows):
        base = 4 * i
        x[base + 0] = (vk.real, vk.imag, vl.real, vl.imag)
        x[base + 1] = (vk.imag, -vk.real, vl.imag, -vl.real)
        x[base + 2] = (vl.real, vl.imag, vk.real, vk.imag)
        x[base + 3] = (vl.imag, -vl.real, vk.imag, -vk.real)
        y[base : base + 4] = (ik.real, ik.imag, il.real, il.imag)
    return x, y


def _window(rows):
    return np.rec.array(rows, dtype=PMU_DTYPE)


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype.names == b.dtype.names and a.tobytes() == b.tobytes()


def _check_against_reference(vk, vl, line, model, seed):
    clean = simulate_records(vk, vl, line)
    ref_clean = _reference_records(vk, vl, line)
    assert _same_bits(clean, _window(ref_clean))
    noisy = apply_noise(clean, model, seed)
    draws = sample_noise(model, 8 * len(vk), seed).reshape(-1, 8)
    ref_noisy = _reference_noise(ref_clean, draws)
    assert _same_bits(noisy, _window(ref_noisy))
    for window, rows in ((clean, ref_clean), (noisy, ref_noisy)):
        problem = build_regression(window)
        x, y = _reference_regression(rows)
        assert _same_bits(problem.x, x)
        assert _same_bits(problem.y, y)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
RECORD = st.tuples(
    st.integers(-(2**63), 2**63 - 1),
    *[st.builds(complex, FINITE, FINITE)] * 4,
)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(RECORD, min_size=1, max_size=20))
@example(rows=[(0, complex(0.0, -0.0), complex(-0.0, 0.0), complex(5e-324, -5e-324),
                complex(1e300, -1e-300))])
@example(rows=[(-1, complex(-1.7976931348623157e308, 2.2250738585072014e-308),
                complex(-0.0, -0.0), complex(1e-300, -1e300), complex(0.1, -2.5e-310))])
def test_csv_round_trip_is_bit_exact(rows):
    records = _window(rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "window.csv"
        write_records_csv(records, path)
        back = read_records_csv(path)
        reference = Path(tmp) / "reference.csv"
        _reference_csv(records, reference)
        assert path.read_bytes() == reference.read_bytes()
    assert _same_bits(back, records)


# 1024 rows make one write block: windows on either side of one and two blocks
@pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 2049])
def test_csv_writer_matches_savetxt(n, tmp_path):
    rng = np.random.default_rng(n)
    rows = np.zeros(n, dtype=_CSV_DTYPE)
    rows["t"] = rng.integers(-(2**63), 2**63 - 1, size=n, endpoint=True)
    for name in PMU_CSV_HEADER[1:]:
        rows[name] = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
    records = rows.view(PMU_DTYPE).view(np.recarray)
    write_records_csv(records, tmp_path / "window.csv")
    _reference_csv(records, tmp_path / "reference.csv")
    written = (tmp_path / "window.csv").read_bytes()
    assert written == (tmp_path / "reference.csv").read_bytes()
    assert written.count(b"\r\n") == n + 1
    if n == 0:
        assert written == b"t,vk_re,vk_im,vl_re,vl_im,ik_re,ik_im,il_re,il_im\r\n"


VOLTAGE = st.builds(complex, st.floats(-10, 10), st.floats(-10, 10))


@settings(max_examples=100, deadline=None)
@given(
    volts=st.lists(st.tuples(VOLTAGE, VOLTAGE), min_size=1, max_size=30),
    line=st.builds(LineParameters, r=st.floats(1e-4, 1.0), x=st.floats(-1.0, 1.0),
                   b=st.floats(-1.0, 1.0)),
    model=st.sampled_from(NOISE_MODELS),
    seed=st.integers(0, 2**32 - 1),
)
# Im(ik) = Im(y vk) - Im(y vl) = -0.0 - 0.0 = -0.0 for y with positive
# real and imaginary parts (x < 0, b = 0)
@example(volts=[(complex(-0.0, -0.0), 0j)], line=LineParameters(0.01, -0.1, 0.0),
         model=NOISE_MODELS[0], seed=0)
def test_window_matches_per_record_reference(volts, line, model, seed):
    vk = np.array([v[0] for v in volts])
    vl = np.array([v[1] for v in volts])
    _check_against_reference(vk, vl, line, model, seed)


@pytest.mark.parametrize("workload", sorted(WORKLOAD_PROFILES))
def test_workload_windows_match_per_record_reference(workload):
    profile, model = WORKLOAD_PROFILES[workload]
    vk, vl = profile.voltages()
    for seed in range(5):
        _check_against_reference(vk, vl, STOCK, model, seed)


# The one- and two-record stock ramps, the workload ramps and the ramps of
# the acceptance criteria, each once
RAMPS = list(dict.fromkeys(
    [LoadRampProfile(n_records=n) for n in (1, 2)]
    + [profile for profile, _ in WORKLOAD_PROFILES.values()]
    + [LoadRampProfile(n_records=2000, **NARROW)]
    + [LoadRampProfile(n_records=n, **WIDE) for n in (25, 50, 100, 250, 400, 500)]
))


@pytest.mark.parametrize(
    "profile", RAMPS, ids=lambda profile: f"n{profile.n_records}-{profile.angle_spread}"
)
def test_ramp_voltages_match_per_record_reference(profile):
    vk, vl = profile.voltages()
    ref_vk, ref_vl = _reference_voltages(profile)
    assert _same_bits(vk, ref_vk)
    assert _same_bits(vl, ref_vl)
