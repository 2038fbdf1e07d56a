"""Time-parameterized Kraus channels built from Weyl operators.

Three non-Markovian families are provided, each evaluated at an integer
walk step t to produce a complete Kraus set acting on the full arc space:

* rtn  -- random telegraph noise, unital, two operators on I and the
          diagonal Weyl operator U_{1,0};
* oun  -- modified Ornstein-Uhlenbeck noise, unital, same structure with
          a monotone decay in place of the oscillating kernel;
* nmad -- non-Markovian amplitude damping, non-unital, d operators
          draining amplitude into the first basis state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graphs import is_real

# Kernel values may stray past their exact range by at most this much
# before we treat it as a wrong-parameter signal instead of float noise.
DOMAIN_SLACK = 1e-9

# Each family's NoiseSpec parameters and their canonical (reference-curve) values.
FAMILY_PARAMS = {
    "none": {},
    "rtn": {"a": 0.1, "gamma": 0.01},
    "oun": {"lam": 1.0, "gamma": 0.05},
    "nmad": {"g": 0.001, "gamma": 5.0},
}
NOISE_FAMILIES = tuple(FAMILY_PARAMS)


class NoiseDomainError(ArithmeticError):
    """A noise kernel left its analytic range by more than float noise."""


def param_key(family: str, name: str) -> str:
    """Scenario-file key of a channel parameter: "rtn.a", "oun.lambda", ..."""
    return f"{family}.{'lambda' if name == 'lam' else name}"


def _check_positive(value: float, name: str) -> float:
    if not (is_real(value) and math.isfinite(value) and value > 0):
        raise ValueError(f"noise parameter {name} must be a finite real number > 0, "
                         f"got {value!r}")
    return float(value)


def _check_time(t: float) -> float:
    t = float(t)
    if t < 0:
        raise ValueError(f"channel time must be >= 0, got {t}")
    return t


def weyl(u: int, v: int, d: int) -> np.ndarray:
    """Weyl operator U_{u,v} of dimension d.

    U_{u,v} = sum_k exp(2*pi*i*k*u/d) |k><(k+v) mod d|.  Unitary for all
    valid indices; (0,0) is the identity, and for d=2 the pair (1,0) and
    (0,1) reduce to Pauli Z and X.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if not (0 <= u < d and 0 <= v < d):
        raise ValueError(f"Weyl indices ({u}, {v}) out of range [0, {d})")
    k = np.arange(d)
    op = np.zeros((d, d), dtype=complex)
    op[k, (k + v) % d] = np.exp(2j * np.pi * k * u / d)
    return op


def rtn_modulation(a: float, gamma: float, t: float) -> float:
    """Damped harmonic kernel of the telegraph channel.

    exp(-gamma*t) * [cos(nu*gamma*t) + sin(nu*gamma*t)/nu] with
    nu = sqrt((2a/gamma)^2 - 1).  When (2a/gamma)^2 < 1 the frequency is
    imaginary and the bracket continues analytically to
    cosh(|nu|*gamma*t) + sinh(|nu|*gamma*t)/|nu|, evaluated here in a
    form that cannot overflow.
    """
    a = _check_positive(a, "a")
    gamma = _check_positive(gamma, "gamma")
    x = gamma * _check_time(t)
    radicand = (2.0 * a / gamma) ** 2 - 1.0
    if radicand > 0:
        nu = math.sqrt(radicand)
        value = math.exp(-x) * (math.cos(nu * x) + math.sin(nu * x) / nu)
    elif radicand == 0:
        value = math.exp(-x) * (1.0 + x)
    else:
        mu = math.sqrt(-radicand)  # 0 < mu < 1, so both exponents decay
        value = (0.5 * (1.0 + 1.0 / mu) * math.exp((mu - 1.0) * x)
                 + 0.5 * (1.0 - 1.0 / mu) * math.exp(-(mu + 1.0) * x))
    if abs(value) > 1.0 + DOMAIN_SLACK:
        raise NoiseDomainError(f"telegraph kernel left [-1, 1]: {value} at t={t}")
    return min(1.0, max(-1.0, value))


def oun_decay(lam: float, gamma: float, t: float) -> float:
    """Monotone decay exp(-(lam/2) * (t + (exp(-gamma*t) - 1)/gamma))."""
    lam = _check_positive(lam, "lambda")
    gamma = _check_positive(gamma, "gamma")
    t = _check_time(t)
    return math.exp(-0.5 * lam * (t + (math.exp(-gamma * t) - 1.0) / gamma))


def nmad_damping(g: float, gamma: float, t: float) -> float:
    """Damped fraction of the amplitude-damping channel, in [0, 1].

    1 - exp(-g*t) * [(g/l)*sinh(l*t/2) + cosh(l*t/2)]^2 with
    l = sqrt(g^2 - 2*gamma*g), taken as g*sqrt(1 - 2*gamma/g) when real so
    that g*g cannot overflow and l - g cannot cancel.  For g < 2*gamma the
    rate l is imaginary and the bracket becomes (g/|l|)*sin(|l|*t/2) + cos(|l|*t/2).
    """
    g = _check_positive(g, "g")
    gamma = _check_positive(gamma, "gamma")
    t = _check_time(t)
    ratio = 2.0 * gamma / g
    radicand = g * g - 2.0 * gamma * g
    if ratio < 1.0:
        s = math.sqrt(1.0 - ratio)  # (l - g)/2 = -gamma/(1 + s): both exponents decay
        inner = (0.5 * (1.0 + 1.0 / s) * math.exp(-gamma * t / (1.0 + s))
                 + 0.5 * (1.0 - 1.0 / s) * math.exp(-0.5 * g * (1.0 + s) * t))
    elif radicand >= 0:  # g == 2*gamma up to rounding
        inner = math.exp(-0.5 * g * t) * (1.0 + 0.5 * g * t)
    else:
        ell = math.sqrt(-radicand)
        inner = math.exp(-0.5 * g * t) * ((g / ell) * math.sin(0.5 * ell * t)
                                          + math.cos(0.5 * ell * t))
    value = 1.0 - inner * inner
    if not -DOMAIN_SLACK <= value <= 1.0 + DOMAIN_SLACK:
        raise NoiseDomainError(f"damping fraction left [0, 1]: {value} at t={t}")
    return min(1.0, max(0.0, value))


@dataclass(frozen=True, eq=False)
class KrausSet:
    """A complete family of Kraus operators evaluated at one time step."""

    operators: tuple[np.ndarray, ...]
    t: float

    def __post_init__(self) -> None:
        for op in self.operators:
            op.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]


def identity_kraus(dim: int, t: float = 0.0) -> KrausSet:
    """The do-nothing channel; used when no noise family is active."""
    return KrausSet((np.eye(dim, dtype=complex),), t)


def rtn_kraus(a: float, gamma: float, t: float, dim: int) -> KrausSet:
    """Telegraph channel: sqrt((1+L)/2) U_{0,0} and sqrt((1-L)/2) U_{1,0}."""
    lam = rtn_modulation(a, gamma, t)
    k1 = math.sqrt(0.5 * (1.0 + lam)) * weyl(0, 0, dim)
    k2 = math.sqrt(0.5 * (1.0 - lam)) * weyl(1, 0, dim)
    return KrausSet((k1, k2), t)


def oun_kraus(lam: float, gamma: float, t: float, dim: int) -> KrausSet:
    """Ornstein-Uhlenbeck channel: same operator pair with kernel P(t)."""
    p = oun_decay(lam, gamma, t)
    k1 = math.sqrt(0.5 * (1.0 + p)) * weyl(0, 0, dim)
    k2 = math.sqrt(0.5 * (1.0 - p)) * weyl(1, 0, dim)
    return KrausSet((k1, k2), t)


def nmad_kraus(g: float, gamma: float, t: float, dim: int) -> KrausSet:
    """Amplitude-damping channel draining every level into state |0>.

    K_1 = |0><0| + sqrt(1-lam) * sum_j |j><j| and, for each j >= 1,
    K_j = sqrt(lam) |0><j|, where lam is the damped fraction at time t.
    """
    lam = nmad_damping(g, gamma, t)
    diag = np.full(dim, math.sqrt(1.0 - lam), dtype=complex)
    diag[0] = 1.0
    ops = [np.diag(diag)]
    root = math.sqrt(lam)
    for j in range(1, dim):
        kj = np.zeros((dim, dim), dtype=complex)
        kj[0, j] = root
        ops.append(kj)
    return KrausSet(tuple(ops), t)


@dataclass(frozen=True)
class NoiseSpec:
    """Channel family tag plus its real parameters.

    Exactly the parameters of the active family must be set; the inactive
    ones stay None.  Use the named constructors rather than the raw
    dataclass fields.
    """

    family: str = "none"
    a: Optional[float] = None       # rtn coupling strength
    gamma: Optional[float] = None   # rtn fluctuation rate / oun bandwidth / nmad emission rate
    lam: Optional[float] = None     # oun relaxation parameter
    g: Optional[float] = None       # nmad spectral width

    def __post_init__(self) -> None:
        if self.family not in NOISE_FAMILIES:
            raise ValueError(f"unknown noise family {self.family!r}")
        for name in FAMILY_PARAMS[self.family]:
            value = getattr(self, name)
            if value is None:
                raise ValueError(f"noise family {self.family!r} requires parameter {name!r}")
            _check_positive(value, param_key(self.family, name))

    @classmethod
    def none(cls) -> "NoiseSpec":
        return cls(family="none")

    @classmethod
    def rtn(cls, a: float, gamma: float) -> "NoiseSpec":
        return cls(family="rtn", a=a, gamma=gamma)

    @classmethod
    def oun(cls, lam: float, gamma: float) -> "NoiseSpec":
        return cls(family="oun", lam=lam, gamma=gamma)

    @classmethod
    def nmad(cls, g: float, gamma: float) -> "NoiseSpec":
        return cls(family="nmad", g=g, gamma=gamma)

    @property
    def rtn_non_markovian(self) -> bool:
        """True when the telegraph ratio a/gamma exceeds 1/2 (memory regime)."""
        if self.family != "rtn":
            raise ValueError("non-Markovian ratio is defined for the rtn family only")
        return self.a / self.gamma > 0.5

    def kraus(self, t: float, dim: int) -> KrausSet:
        """Kraus operators of this channel evaluated at time t."""
        if self.family == "none":
            return identity_kraus(dim, t)
        if self.family == "rtn":
            return rtn_kraus(self.a, self.gamma, t, dim)
        if self.family == "oun":
            return oun_kraus(self.lam, self.gamma, t, dim)
        return nmad_kraus(self.g, self.gamma, t, dim)


def apply_channel(kraus: KrausSet, psi: np.ndarray) -> np.ndarray:
    """Operator-sum action on a pure state: sum_i K_i |psi><psi| K_i^dag."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (kraus.dim,):
        raise ValueError(f"state has shape {psi.shape}, expected ({kraus.dim},)")
    rho = np.zeros((kraus.dim, kraus.dim), dtype=complex)
    for op in kraus.operators:
        vec = op @ psi
        rho += np.outer(vec, vec.conj())
    return rho


def apply_channel_mixed(kraus: KrausSet, rho: np.ndarray) -> np.ndarray:
    """Operator-sum action on a density matrix: sum_i K_i rho K_i^dag."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (kraus.dim, kraus.dim):
        raise ValueError(f"density matrix has shape {rho.shape}, expected square of dim {kraus.dim}")
    out = np.zeros_like(rho)
    for op in kraus.operators:
        out += op @ rho @ op.conj().T
    return out


def validate_cptp(kraus: KrausSet) -> float:
    """Max-entry residual of the completeness relation sum_i K_i^dag K_i = I."""
    total = np.zeros((kraus.dim, kraus.dim), dtype=complex)
    for op in kraus.operators:
        total += op.conj().T @ op
    return float(np.max(np.abs(total - np.eye(kraus.dim))))
