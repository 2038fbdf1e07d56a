import cmath
import math
import re

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
from qwbutterfly import noise as noise_mod

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


def test_oun_decay_does_not_cancel_at_small_rate():
    # the bracket t + (exp(-gamma t) - 1)/gamma is ~ gamma t^2 / 2 here
    assert oun_decay(1.0, 1e-12, 10) == pytest.approx(math.exp(-2.5e-11), rel=1e-15)
    assert oun_decay(1.0, 1e-320, 10) == 1.0
    for gamma in [1e-320, 1e-300, 1e-12, 1e-6, 1e-3, 0.05, 1.0, 1e3]:
        values = [oun_decay(1.0, gamma, t) for t in np.linspace(0.0, 200.0, 801)]
        assert all(1.0 >= a >= b >= 0.0 for a, b in zip(values, values[1:])), gamma


def test_oun_decay_range_is_checked(monkeypatch):
    monkeypatch.setattr(noise_mod.math, "expm1", lambda x: 3.0 * x)  # bracket -2t
    with pytest.raises(NoiseDomainError, match=r"OU decay left \[0, 1\]"):
        oun_decay(1.0, 1.0, 1.0)


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


# Parameters where the textbook form of a kernel overflows: (kernel,
# (p1, p2), the limit the kernel takes there as a function of t).
OVERFLOW_LIMITS = [
    # 2a/gamma overflows: the phase is 2 a t and the envelope is 1
    (rtn_modulation, (0.1, 1e-320), lambda t: math.cos(0.2 * t)),
    # (2a/gamma)^2 overflows
    (rtn_modulation, (1e-10, 1e-300), lambda t: math.cos(2e-10 * t)),
    # (2a/gamma)^2 overflows and the envelope exp(-gamma t) is 0 for t >= 1
    (rtn_modulation, (1e300, 1e140), lambda t: 1.0 if t == 0 else 0.0),
    # g^2 - 2 gamma g is inf - inf: fully damped for t >= 1
    (nmad_damping, (1e200, 1e200), lambda t: 0.0 if t == 0 else 1.0),
    # gamma t overflows in the critically damped kernel (2a = gamma)
    (rtn_modulation, (5e307, 1e308), lambda t: 1.0 if t == 0 else 0.0),
    # 2 gamma g overflows: |l| = sqrt(2 gamma g), the envelope is 1
    (nmad_damping, (1e-300, 1e308), lambda t: math.sin(0.5 * math.sqrt(2e8) * t) ** 2),
    # g^2 and 2 gamma g overflow with g = 2 gamma: the critically damped kernel
    (nmad_damping, (1e308, 5e307), lambda t: 0.0 if t == 0 else 1.0),
]


@pytest.mark.parametrize("kernel,params,limit", OVERFLOW_LIMITS,
                         ids=lambda v: getattr(v, "__name__", repr(v)))
def test_kernels_take_their_limit_where_the_arithmetic_overflowed(kernel, params, limit):
    for t in [0, 1, 2, 7, 200]:
        assert kernel(*params, t) == pytest.approx(limit(t), abs=1e-9)


# Parameters whose oscillation phase no double resolves while the envelope
# is still nonzero: the kernel is undefined and the error names the cause.
UNRESOLVED = [
    (rtn_modulation, (1e160, 1.0), "rtn.a"),
    (rtn_modulation, (1e308, 1.0), "rtn.a"),     # the phase itself overflows
    (nmad_damping, (1.0, 1e308), "nmad.gamma"),
    (nmad_damping, (1e-46, 1e105), "nmad.gamma"),
]


@pytest.mark.parametrize("kernel,params,name", UNRESOLVED,
                         ids=lambda v: getattr(v, "__name__", repr(v)))
def test_kernels_name_the_parameter_of_an_unresolvable_phase(kernel, params, name):
    kernel(*params, 0)  # the phase is 0 at t = 0
    with pytest.raises(NoiseDomainError, match=rf"^{re.escape(name)}: kernel phase"):
        kernel(*params, 300)
    spec = NoiseSpec.rtn(*params) if name == "rtn.a" else NoiseSpec.nmad(*params)
    with pytest.raises(NoiseDomainError, match=re.escape(name)):
        spec.kraus(300, 4)


def test_a_phase_just_below_the_limit_is_evaluated():
    nu = math.sqrt(4e26 - 1.0)
    assert nu * 225.0 < noise_mod.PHASE_LIMIT < nu * 226.0
    assert rtn_modulation(1e13, 1.0, 225) == (
        math.exp(-225.0) * (math.cos(nu * 225.0) + math.sin(nu * 225.0) / nu))
    with pytest.raises(NoiseDomainError, match="rtn.a"):
        rtn_modulation(1e13, 1.0, 226)


BAD_TIMES = [math.nan, math.inf, -math.inf, -0.5, True, False, "1", None]


@pytest.mark.parametrize("t", BAD_TIMES, ids=repr)
@pytest.mark.parametrize("fn", [
    lambda t: rtn_modulation(*RTN_PARAMS, t),
    lambda t: oun_decay(*OUN_PARAMS, t),
    lambda t: nmad_damping(*NMAD_PARAMS, t),
    lambda t: identity_kraus(4, t),
    lambda t: NoiseSpec().kraus(t, 4),
    lambda t: NoiseSpec.rtn(*RTN_PARAMS).kraus(t, 4),
    lambda t: NoiseSpec.oun(*OUN_PARAMS).kraus(t, 4),
    lambda t: NoiseSpec.nmad(*NMAD_PARAMS).kraus(t, 4),
], ids=["rtn_modulation", "oun_decay", "nmad_damping", "identity_kraus",
        "none.kraus", "rtn.kraus", "oun.kraus", "nmad.kraus"])
def test_bad_channel_times_are_rejected(fn, t):
    with pytest.raises(ValueError, match="channel time t must be a finite real number >= 0"):
        fn(t)


@pytest.mark.parametrize("operators", [
    (np.eye(2), np.eye(3)),
    (),
    (np.ones((2, 3)),),
    (np.ones(3),),
    np.zeros((1, 0, 0)),
], ids=["mixed-dims", "empty", "not-square", "vector", "dim-0"])
def test_kraus_set_rejects_malformed_operators(operators):
    with pytest.raises(ValueError, match="square matrices of one dimension >= 1, got shapes"):
        KrausSet(operators, 0.0)


def test_kraus_set_operators_are_read_only_views_of_one_complex_stack():
    ks = KrausSet((np.eye(3), 2.0 * np.eye(3)), 0.0)
    assert ks.stack.shape == (2, 3, 3) and ks.stack.dtype == complex
    assert ks.dim == 3
    for i, op in enumerate(ks.operators):
        assert not op.flags.writeable
        assert np.shares_memory(op, ks.stack)
        np.testing.assert_array_equal(op, ks.stack[i])
    with pytest.raises(ValueError):
        ks.stack[0, 0, 0] = 5.0


STACKED = {
    "rtn": lambda t, d: rtn_kraus(*RTN_PARAMS, t, d),
    "oun": lambda t, d: oun_kraus(*OUN_PARAMS, t, d),
    "nmad": lambda t, d: nmad_kraus(*NMAD_PARAMS, t, d),
    "identity": lambda t, d: identity_kraus(d, t),
}


@pytest.mark.parametrize("d", [1, 2, 12, 76])
@pytest.mark.parametrize("family", sorted(STACKED))
def test_stacked_channel_matches_per_operator_loop(family, d):
    rng = np.random.default_rng(d)
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi /= np.linalg.norm(psi)
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    rho /= np.trace(rho)
    for t in [0, 3, 47, 150]:
        ks = STACKED[family](t, d)
        ops = ks.operators
        pure = sum(np.outer(op @ psi, (op @ psi).conj()) for op in ops)
        mixed = sum(op @ rho @ op.conj().T for op in ops)
        completeness = sum(op.conj().T @ op for op in ops)
        assert np.max(np.abs(apply_channel(ks, psi) - pure)) <= 1e-14
        assert np.max(np.abs(apply_channel_mixed(ks, rho) - mixed)) <= 1e-14
        assert abs(validate_cptp(ks) - np.max(np.abs(completeness - np.eye(d)))) <= 1e-14


@pytest.mark.parametrize("d", [2, 12, 76])
@pytest.mark.parametrize("build,kernel", [
    (lambda t, d: rtn_kraus(*RTN_PARAMS, t, d), lambda t: rtn_modulation(*RTN_PARAMS, t)),
    (lambda t, d: oun_kraus(*OUN_PARAMS, t, d), lambda t: oun_decay(*OUN_PARAMS, t)),
], ids=["rtn", "oun"])
def test_dephasing_stacks_equal_scaled_weyl_operators(build, kernel, d):
    for t in [0, 1, 10, 133, 200]:
        value = kernel(t)
        ks = build(t, d)
        assert ks.stack.shape == (2, d, d)
        np.testing.assert_array_equal(ks.stack[0], math.sqrt(0.5 * (1.0 + value)) * weyl(0, 0, d))
        np.testing.assert_array_equal(ks.stack[1], math.sqrt(0.5 * (1.0 - value)) * weyl(1, 0, d))


SPECS = [NoiseSpec(), NoiseSpec.rtn(*RTN_PARAMS), NoiseSpec.oun(*OUN_PARAMS),
         NoiseSpec.nmad(*NMAD_PARAMS)]


@pytest.mark.parametrize("dim", [0, -1, True, 2.5], ids=repr)
@pytest.mark.parametrize("build", [
    lambda d: identity_kraus(d, 1.0),
    lambda d: rtn_kraus(*RTN_PARAMS, 1.0, d),
    lambda d: oun_kraus(*OUN_PARAMS, 1.0, d),
    lambda d: nmad_kraus(*NMAD_PARAMS, 1.0, d),
] + [lambda d, spec=spec: spec.kraus(1.0, d) for spec in SPECS],
    ids=["identity_kraus", "rtn_kraus", "oun_kraus", "nmad_kraus"]
        + [f"{spec.family}.kraus" for spec in SPECS])
def test_bad_channel_dims_are_rejected_when_called(build, dim):
    with pytest.raises(ValueError, match="channel dimension dim must be an integer >= 1"):
        build(dim)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.family)
def test_closed_form_carries_the_diagonals_and_drain(spec):
    d, t = 12, 40
    ks = spec.kraus(t, d)
    assert not ks.diagonals.flags.writeable
    assert "stack" not in vars(ks)  # built on first access only
    if spec.family in ("rtn", "oun"):
        p = 0.5 * (1.0 + (rtn_modulation(*RTN_PARAMS, t) if spec.family == "rtn"
                          else oun_decay(*OUN_PARAMS, t)))
        expected = [np.full(d, np.sqrt(p)), np.sqrt(1.0 - p) * np.diag(weyl(1, 0, d))]
        drain = 0.0
    elif spec.family == "nmad":
        drain = nmad_damping(*NMAD_PARAMS, t)
        expected = [[1.0] + [np.sqrt(1.0 - drain)] * (d - 1)]
    else:
        expected, drain = [np.ones(d)], 0.0
    np.testing.assert_allclose(ks.diagonals, expected, rtol=0, atol=1e-15)
    assert ks.drain == drain
    assert ks.stack is ks.stack and not ks.stack.flags.writeable
    assert ks.dim == d


@pytest.mark.parametrize("d", [1, 2, 12, 76])
def test_lazy_stacks_equal_the_dense_construction(d):
    # the nmad and identity stacks as they were written before the closed form
    for t in [0, 1, 40, 200]:
        lam = nmad_damping(*NMAD_PARAMS, t)
        want = np.zeros((d, d, d), dtype=complex)
        k = np.arange(d)
        want[0, k, k] = math.sqrt(1.0 - lam)
        want[0, 0, 0] = 1.0
        want[k[1:], 0, k[1:]] = math.sqrt(lam)
        got = nmad_kraus(*NMAD_PARAMS, t, d).stack
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        got = identity_kraus(d, t).stack
        assert got.tobytes() == np.eye(d, dtype=complex)[np.newaxis].tobytes()


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.family)
@pytest.mark.parametrize("d", [1, 2, 5, 254])
def test_multi_operator_closed_forms_are_circulant(spec, d):
    # run_scenario's snapshot coherence reads the lag weights of
    # W = sum_i d_i d_i^dag off its first column; that holds only while every
    # multi-operator closed form is scaled characters omega^{uk} without drain
    lag = np.subtract.outer(np.arange(d), np.arange(d)) % d
    for t in [0, 1, 40, 200]:
        ks = spec.kraus(t, d)
        if len(ks.diagonals) == 1:
            continue
        w = ks.diagonals.T @ ks.diagonals.conj()
        np.testing.assert_allclose(w, w[lag, 0], rtol=0, atol=1e-14)
        assert ks.drain == 0.0
    assert (len(spec.kraus(1, d).diagonals) > 1) == (spec.family in ("rtn", "oun"))


def test_explicit_operators_have_no_closed_form():
    ks = KrausSet((np.eye(2),), 0.0)
    assert ks.diagonals is None and ks.drain == 0.0 and ks.dim == 2


def test_phases_are_cached_read_only():
    first = noise_mod._phases(1, 254)
    assert noise_mod._phases(1, 254) is first
    assert not first.flags.writeable
    np.testing.assert_array_equal(first, np.exp(2j * np.pi * np.arange(254) / 254))
