import cmath
import math

import numpy as np
import pytest

from qwbutterfly import (
    KrausSet,
    NoiseDomainError,
    NoiseSpec,
    apply_channel,
    apply_channel_mixed,
    identity_kraus,
    nmad_damping,
    nmad_kraus,
    oun_decay,
    oun_kraus,
    rtn_kraus,
    rtn_modulation,
    validate_cptp,
    weyl,
)

RTN_PARAMS = (0.1, 0.01)     # oscillatory regime, a/gamma = 10
RTN_DAMPED = (0.1, 1.0)      # hyperbolic regime, a/gamma = 0.1
OUN_PARAMS = (1.0, 0.05)
NMAD_PARAMS = (0.001, 5.0)   # imaginary-rate branch: g < 2*gamma
NMAD_REAL_BRANCH = (1.0, 0.1)


def test_weyl_identity():
    np.testing.assert_array_equal(weyl(0, 0, 4), np.eye(4, dtype=complex))


def test_weyl_pauli_z():
    np.testing.assert_allclose(weyl(1, 0, 2), np.diag([1.0, -1.0]).astype(complex), atol=1e-15)


def test_weyl_pauli_x():
    np.testing.assert_allclose(weyl(0, 1, 2), np.array([[0, 1], [1, 0]], dtype=complex), atol=1e-15)


@pytest.mark.parametrize("d", [2, 3, 5, 8, 40])
def test_weyl_unitarity(d):
    eye = np.eye(d)
    for u in range(d):
        for v in range(d):
            op = weyl(u, v, d)
            assert np.max(np.abs(op.conj().T @ op - eye)) < 1e-12


def test_weyl_rejects_out_of_range_indices():
    with pytest.raises(ValueError):
        weyl(2, 0, 2)
    with pytest.raises(ValueError):
        weyl(0, -1, 3)


def _rtn_oracle(a, gamma, t):
    # same kernel evaluated in complex arithmetic, no branch selection
    nu = cmath.sqrt(complex((2.0 * a / gamma) ** 2 - 1.0))
    x = gamma * t
    value = cmath.exp(-x) * (cmath.cos(nu * x) + cmath.sin(nu * x) / nu)
    assert abs(value.imag) < 1e-12
    return value.real


def _nmad_oracle(g, gamma, t):
    ell = cmath.sqrt(complex(g * g - 2.0 * gamma * g))
    bracket = (g / ell) * cmath.sinh(ell * t / 2.0) + cmath.cosh(ell * t / 2.0)
    value = 1.0 - cmath.exp(-g * t) * bracket ** 2
    assert abs(value.imag) < 1e-12
    return value.real


def test_rtn_kernel_starts_at_one():
    assert rtn_modulation(*RTN_PARAMS, 0.0) == 1.0


@pytest.mark.parametrize("params", [RTN_PARAMS, RTN_DAMPED])
def test_rtn_kernel_matches_complex_oracle(params):
    for t in [0.0, 0.5, 1.0, 7.0, 40.0, 133.0, 200.0]:
        assert rtn_modulation(*params, t) == pytest.approx(_rtn_oracle(*params, t), abs=1e-12)


def test_rtn_oscillatory_frequency():
    # (2a/gamma)^2 - 1 = 399 for the standard parameters
    a, gamma = RTN_PARAMS
    assert (2.0 * a / gamma) ** 2 - 1.0 == pytest.approx(399.0)
    lam = rtn_modulation(a, gamma, 10.0)
    nu = math.sqrt(399.0)
    expected = math.exp(-0.1) * (math.cos(nu * 0.1) + math.sin(nu * 0.1) / nu)
    assert lam == pytest.approx(expected, abs=1e-14)


def test_rtn_kernel_changes_sign():
    values = [rtn_modulation(*RTN_PARAMS, t) for t in range(0, 201)]
    assert any(x < 0 for x in values)
    flips = sum(1 for i in range(1, len(values)) if values[i - 1] * values[i] < 0)
    assert flips >= 1


def test_oun_decay_starts_at_one_and_decreases():
    lam, gamma = OUN_PARAMS
    assert oun_decay(lam, gamma, 0.0) == 1.0
    values = [oun_decay(lam, gamma, t) for t in range(0, 201)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert oun_decay(lam, gamma, 1e5) < 1e-12


def test_nmad_damping_starts_at_zero():
    assert nmad_damping(*NMAD_PARAMS, 0.0) == 0.0


@pytest.mark.parametrize("params", [NMAD_PARAMS, NMAD_REAL_BRANCH])
def test_nmad_damping_matches_complex_oracle(params):
    for t in [0.0, 1.0, 13.0, 50.0, 101.0, 200.0]:
        assert nmad_damping(*params, t) == pytest.approx(_nmad_oracle(*params, t), abs=1e-12)


@pytest.mark.parametrize("g", [1e12, 1e150, 1e300])
def test_nmad_damping_reaches_markov_limit_at_large_width(g):
    gamma = 5.0
    for t in [0.0, 0.1, 1.0, 2.0, 200.0]:
        assert nmad_damping(g, gamma, t) == pytest.approx(1.0 - math.exp(-gamma * t), abs=1e-9)


def test_nmad_imaginary_rate_magnitude():
    g, gamma = NMAD_PARAMS
    assert g * g - 2.0 * gamma * g < 0
    assert math.sqrt(2.0 * gamma * g - g * g) == pytest.approx(math.sqrt(0.009999))


@pytest.mark.parametrize("name,params", [("rtn", RTN_PARAMS), ("oun", OUN_PARAMS),
                                         ("nmad", NMAD_PARAMS)])
def test_kernel_rejects_bad_arguments(name, params):
    fn = {"rtn": rtn_modulation, "oun": oun_decay, "nmad": nmad_damping}[name]
    with pytest.raises(ValueError):
        fn(0.0, params[1], 1.0)
    with pytest.raises(ValueError):
        fn(params[0], -1.0, 1.0)
    with pytest.raises(ValueError):
        fn(*params, -0.5)


@pytest.mark.parametrize("make", [
    lambda t, d: rtn_kraus(*RTN_PARAMS, t, d),
    lambda t, d: rtn_kraus(*RTN_DAMPED, t, d),
    lambda t, d: oun_kraus(*OUN_PARAMS, t, d),
    lambda t, d: nmad_kraus(*NMAD_PARAMS, t, d),
    lambda t, d: identity_kraus(d, t),
])
@pytest.mark.parametrize("t", [0, 1, 10, 100, 200])
def test_channels_are_complete(make, t):
    assert validate_cptp(make(t, 12)) < 1e-12


@pytest.mark.parametrize("make", [
    lambda t, d: rtn_kraus(*RTN_PARAMS, t, d),
    lambda t, d: oun_kraus(*OUN_PARAMS, t, d),
    lambda t, d: nmad_kraus(*NMAD_PARAMS, t, d),
])
def test_channels_are_identity_at_time_zero(make):
    rng = np.random.default_rng(21)
    psi = rng.normal(size=6) + 1j * rng.normal(size=6)
    psi /= np.linalg.norm(psi)
    rho = apply_channel(make(0, 6), psi)
    np.testing.assert_allclose(rho, np.outer(psi, psi.conj()), atol=1e-14)


def test_nmad_operator_structure():
    t, d = 40.0, 5
    lam = nmad_damping(*NMAD_PARAMS, t)
    ks = nmad_kraus(*NMAD_PARAMS, t, d)
    assert len(ks.operators) == d
    expected_diag = np.array([1.0] + [math.sqrt(1.0 - lam)] * (d - 1))
    np.testing.assert_allclose(np.diag(ks.operators[0]).real, expected_diag, atol=1e-14)
    for j in range(1, d):
        kj = ks.operators[j]
        assert kj[0, j] == pytest.approx(math.sqrt(lam))
        assert np.count_nonzero(kj) == 1


def test_truncated_nmad_residual_equals_damping_fraction():
    t, d = 60.0, 4
    lam = nmad_damping(*NMAD_PARAMS, t)
    full = nmad_kraus(*NMAD_PARAMS, t, d)
    truncated = KrausSet(full.operators[:-1], t)
    residual = validate_cptp(truncated)
    assert residual == pytest.approx(lam, abs=1e-14)
    # the missing weight sits exactly at the dropped level
    total = sum(op.conj().T @ op for op in truncated.operators)
    assert abs(total[d - 1, d - 1] - (1.0 - lam)) < 1e-14


def test_apply_channel_identity_returns_projector():
    psi = np.array([0.6, 0.8j], dtype=complex)
    rho = apply_channel(identity_kraus(2), psi)
    np.testing.assert_allclose(rho, np.outer(psi, psi.conj()), atol=1e-15)


def test_full_dephasing_kills_off_diagonals():
    # kernel 0 gives the balanced I / U_{1,0} mixture: 0.5*(rho + Z rho Z)
    half = math.sqrt(0.5)
    ks = KrausSet((half * weyl(0, 0, 2), half * weyl(1, 0, 2)), t=0.0)
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    np.testing.assert_allclose(apply_channel(ks, plus), np.eye(2) / 2.0, atol=1e-14)


def test_apply_channel_preserves_trace():
    rng = np.random.default_rng(22)
    for t in [3.0, 47.0, 150.0]:
        psi = rng.normal(size=10) + 1j * rng.normal(size=10)
        psi /= np.linalg.norm(psi)
        for ks in (rtn_kraus(*RTN_PARAMS, t, 10), oun_kraus(*OUN_PARAMS, t, 10),
                   nmad_kraus(*NMAD_PARAMS, t, 10)):
            rho = apply_channel(ks, psi)
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-12


def test_apply_channel_mixed_agrees_on_pure_input():
    rng = np.random.default_rng(23)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi /= np.linalg.norm(psi)
    ks = rtn_kraus(*RTN_PARAMS, 33.0, 8)
    np.testing.assert_allclose(apply_channel_mixed(ks, np.outer(psi, psi.conj())),
                               apply_channel(ks, psi), atol=1e-14)


def test_unital_families_fix_maximally_mixed_state():
    mixed = np.eye(9, dtype=complex) / 9.0
    for ks in (rtn_kraus(*RTN_PARAMS, 77.0, 9), oun_kraus(*OUN_PARAMS, 77.0, 9)):
        assert np.max(np.abs(apply_channel_mixed(ks, mixed) - mixed)) < 1e-12


def test_nmad_is_not_unital():
    mixed = np.eye(9, dtype=complex) / 9.0
    ks = nmad_kraus(*NMAD_PARAMS, 77.0, 9)
    assert nmad_damping(*NMAD_PARAMS, 77.0) > 0
    assert np.max(np.abs(apply_channel_mixed(ks, mixed) - mixed)) > 1e-3


def test_validate_cptp_identity_is_exact():
    assert validate_cptp(identity_kraus(7)) == 0.0


def test_apply_channel_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_channel(identity_kraus(3), np.ones(4, dtype=complex) / 2.0)


def test_noise_spec_constructors_and_dispatch():
    spec = NoiseSpec.rtn(*RTN_PARAMS)
    ks = spec.kraus(5.0, 4)
    np.testing.assert_allclose(ks.operators[0],
                               rtn_kraus(*RTN_PARAMS, 5.0, 4).operators[0], atol=0)
    assert NoiseSpec.none().kraus(5.0, 4).operators[0].shape == (4, 4)
    assert NoiseSpec.oun(*OUN_PARAMS).family == "oun"
    assert NoiseSpec.nmad(*NMAD_PARAMS).family == "nmad"


def test_noise_spec_validation():
    with pytest.raises(ValueError, match="family"):
        NoiseSpec(family="pink")
    with pytest.raises(ValueError, match="requires"):
        NoiseSpec(family="rtn", a=0.1)
    with pytest.raises(ValueError, match="> 0"):
        NoiseSpec.oun(-1.0, 0.05)
    for bad in (math.inf, math.nan, "0.2", True):
        with pytest.raises(ValueError, match="rtn.a"):
            NoiseSpec.rtn(bad, 0.01)
    with pytest.raises(ValueError, match="oun.lambda"):
        NoiseSpec.oun(math.inf, 0.05)


def test_rtn_non_markovian_flag():
    assert NoiseSpec.rtn(0.1, 0.01).rtn_non_markovian
    assert not NoiseSpec.rtn(0.1, 1.0).rtn_non_markovian
    with pytest.raises(ValueError):
        _ = NoiseSpec.oun(*OUN_PARAMS).rtn_non_markovian


def test_noise_domain_error_is_an_arithmetic_error():
    assert issubclass(NoiseDomainError, ArithmeticError)
