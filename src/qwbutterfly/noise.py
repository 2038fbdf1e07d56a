"""Time-parameterized Kraus channels built from Weyl operators.

Three non-Markovian families are provided, each evaluated at an integer
walk step t to produce a complete Kraus set acting on the full arc space:

* rtn  -- random telegraph noise, unital, two operators on I and the
          diagonal Weyl operator U_{1,0};
* oun  -- modified Ornstein-Uhlenbeck noise, unital, same structure with
          a monotone decay in place of the oscillating kernel;
* nmad -- non-Markovian amplitude damping, non-unital, d operators
          draining amplitude into the first basis state.

Every family is diagonal operators plus, for nmad, a drain into |0>, and
a KrausSet carries that closed form; its dense operators are built only
when read (tests, demos, CPTP checks and the dense channel functions here).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .graphs import is_int, is_real

# Kernel values may stray past their exact range by at most this much
# before we treat it as a wrong-parameter signal instead of float noise.
DOMAIN_SLACK = 1e-9

# Past this many radians (1/eps) a double's spacing exceeds one radian, so an
# oscillating kernel's phase, and with it the kernel, has no correct digit.
PHASE_LIMIT = 2.0 ** 52

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
    if not (is_real(t) and math.isfinite(t) and t >= 0):
        raise ValueError(f"channel time t must be a finite real number >= 0, got {t!r}")
    return float(t)


def _check_dim(dim: int) -> int:
    if not (is_int(dim) and dim >= 1):
        raise ValueError(f"channel dimension dim must be an integer >= 1, got {dim!r}")
    return dim


@lru_cache(maxsize=64)
def _phases(u: int, d: int) -> np.ndarray:
    """Diagonal of U_{u,0}: exp(2*pi*i*k*u/d) for k = 0..d-1 (cached, read-only)."""
    phases = np.exp(2j * np.pi * np.arange(d) * u / d)
    phases.setflags(write=False)
    return phases


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
    op[k, (k + v) % d] = _phases(u, d)
    return op


def _check_phase(phase: float, envelope: float, name: str, t: float) -> None:
    """Reject an oscillation whose phase no double resolves, unless its
    envelope has already decayed to 0; the error names the parameter.  A
    phase that passes is finite or sits under a zero envelope."""
    if envelope and not phase <= PHASE_LIMIT:
        raise NoiseDomainError(f"{name}: kernel phase {phase} rad at t={t} is past "
                               f"{PHASE_LIMIT:.3g} rad, where a double cannot resolve it")


def _critical(y: float) -> float:
    """exp(-y) * (1 + y), the critically damped kernel; 0 where y overflows."""
    return math.exp(-y) * (1.0 + y) if y < math.inf else 0.0


def rtn_modulation(a: float, gamma: float, t: float) -> float:
    """Damped harmonic kernel of the telegraph channel.

    exp(-gamma*t) * [cos(nu*gamma*t) + sin(nu*gamma*t)/nu] with
    nu = sqrt((2a/gamma)^2 - 1).  When (2a/gamma)^2 < 1 the frequency is
    imaginary and the bracket continues analytically to
    cosh(|nu|*gamma*t) + sinh(|nu|*gamma*t)/|nu|, evaluated here in a
    form that cannot overflow.  When (2a/gamma)^2 overflows, nu equals
    2a/gamma to double precision: the phase is 2a*t and sin/nu vanishes.
    A phase past PHASE_LIMIT under a nonzero envelope raises
    NoiseDomainError naming rtn.a.
    """
    a = _check_positive(a, "a")
    gamma = _check_positive(gamma, "gamma")
    x = gamma * _check_time(t)
    try:
        radicand = (2.0 * a / gamma) ** 2 - 1.0
    except OverflowError:
        radicand = math.inf
    if radicand > 0:
        if radicand == math.inf:
            nu, phase = math.inf, 2.0 * (a * t)
        else:
            nu = math.sqrt(radicand)
            phase = nu * x
        envelope = math.exp(-x)
        _check_phase(phase, envelope, "rtn.a", t)
        value = envelope * (math.cos(phase) + math.sin(phase) / nu) if phase < math.inf else 0.0
    elif radicand == 0:
        value = _critical(x)
    else:
        mu = math.sqrt(-radicand)  # 0 < mu < 1, so both exponents decay
        value = (0.5 * (1.0 + 1.0 / mu) * math.exp((mu - 1.0) * x)
                 + 0.5 * (1.0 - 1.0 / mu) * math.exp(-(mu + 1.0) * x))
    if abs(value) > 1.0 + DOMAIN_SLACK:
        raise NoiseDomainError(f"telegraph kernel left [-1, 1]: {value} at t={t}")
    return min(1.0, max(-1.0, value))


def oun_decay(lam: float, gamma: float, t: float) -> float:
    """Monotone decay exp(-(lam/2) * (t + (exp(-gamma*t) - 1)/gamma)), in [0, 1].

    The bracket is t f(x) with x = gamma*t and f(x) = 1 + expm1(-x)/x, which
    cancels for small x; there f is taken from its series x/2 - x^2/6 + ...,
    so the kernel tends to 1 as gamma -> 0 instead of losing its digits.
    """
    lam = _check_positive(lam, "lambda")
    gamma = _check_positive(gamma, "gamma")
    t = _check_time(t)
    x = gamma * t
    if x < 1e-3:  # the series to x^5 is exact to a double here
        f = x * (1 / 2 - x * (1 / 6 - x * (1 / 24 - x * (1 / 120 - x / 720))))
    else:
        f = 1.0 + math.expm1(-x) / x
    value = math.exp(-0.5 * lam * t * f)
    if not -DOMAIN_SLACK <= value <= 1.0 + DOMAIN_SLACK:
        raise NoiseDomainError(f"OU decay left [0, 1]: {value} at t={t}")
    return min(1.0, max(0.0, value))


def nmad_damping(g: float, gamma: float, t: float) -> float:
    """Damped fraction of the amplitude-damping channel, in [0, 1].

    1 - exp(-g*t) * [(g/l)*sinh(l*t/2) + cosh(l*t/2)]^2 with
    l = sqrt(g^2 - 2*gamma*g), taken as g*sqrt(1 - 2*gamma/g) when real so
    that g*g cannot overflow and l - g cannot cancel.  For g < 2*gamma the
    rate l is imaginary and the bracket becomes (g/|l|)*sin(|l|*t/2) + cos(|l|*t/2),
    with |l| = sqrt(2g) sqrt(gamma - g/2) where g^2 or 2*gamma*g overflows.  A
    phase |l|*t/2 past PHASE_LIMIT under a nonzero envelope raises
    NoiseDomainError naming nmad.gamma.
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
    elif radicand >= 0 or ratio == 1.0 and math.isnan(radicand):
        # g == 2*gamma up to rounding; radicand is inf - inf where g^2 overflows
        inner = _critical(0.5 * g * t)
    else:
        if math.isfinite(radicand):
            ell = math.sqrt(-radicand)
        else:  # gamma > g/2, so this is > 0
            ell = math.sqrt(g) * math.sqrt(2.0) * math.sqrt(gamma - 0.5 * g)
        phase = 0.5 * ell * t
        envelope = math.exp(-0.5 * g * t)
        _check_phase(phase, envelope, "nmad.gamma", t)
        inner = (envelope * ((g / ell) * math.sin(phase) + math.cos(phase))
                 if phase < math.inf else 0.0)
    value = 1.0 - inner * inner
    if not -DOMAIN_SLACK <= value <= 1.0 + DOMAIN_SLACK:
        raise NoiseDomainError(f"damping fraction left [0, 1]: {value} at t={t}")
    return min(1.0, max(0.0, value))


@dataclass(frozen=True, eq=False, init=False)
class KrausSet:
    """A complete family of Kraus operators evaluated at one time step.

    The family builders give the channel in closed form: `diagonals`, a
    read-only (ops, dim) array whose row i is the diagonal of the diagonal
    operator K_i (float64 for no noise and nmad, complex128 for rtn/oun),
    and `drain`, the fraction of every level j >= 1 that the further
    operators sqrt(drain) |0><j| move into |0> (0 for the unital families;
    only nmad has drain operators).  `stack`, the read-only
    (ops, dim, dim) complex array of all operators, is then built on first
    access and cached; `operators` are its per-operator views.

    KrausSet(operators, t) instead takes explicit matrices and has no closed
    form (`diagonals` is None).  A complex ndarray stack is adopted without
    a copy and made read-only; other input is copied.
    """

    diagonals: Optional[np.ndarray]
    drain: float
    t: float

    def __init__(self, operators, t: float) -> None:
        try:
            stack = np.asarray(operators, dtype=complex)
        except ValueError:  # operators of different shapes
            stack = None
        if stack is None or stack.ndim != 3 or 0 in stack.shape or stack.shape[1] != stack.shape[2]:
            raise ValueError("Kraus operators must be one or more square matrices of one "
                             f"dimension >= 1, got shapes {[np.shape(op) for op in operators]}")
        stack.setflags(write=False)
        self._set(None, 0.0, t, drain_ops=False)
        object.__setattr__(self, "stack", stack)  # fills the cached property

    @classmethod
    def _closed_form(cls, diagonals: np.ndarray, t: float,
                     drain: Optional[float] = None) -> "KrausSet":
        """The diagonal operators diag(diagonals[i]) and, when `drain` is
        given, the dim - 1 operators sqrt(drain) |0><j| for j = 1..dim-1."""
        diagonals.setflags(write=False)
        ks = cls.__new__(cls)
        ks._set(diagonals, 0.0 if drain is None else drain, t, drain_ops=drain is not None)
        return ks

    def _set(self, diagonals, drain: float, t: float, drain_ops: bool) -> None:
        object.__setattr__(self, "diagonals", diagonals)
        object.__setattr__(self, "drain", drain)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "_drain_ops", drain_ops)

    @cached_property
    def stack(self) -> np.ndarray:
        """Every operator, built from the closed form on first access."""
        ops, dim = self.diagonals.shape
        drained = dim - 1 if self._drain_ops else 0
        stack = np.zeros((ops + drained, dim, dim), dtype=complex)
        k = np.arange(dim)
        stack[:ops, k, k] = self.diagonals
        if drained:
            stack[ops + k[:-1], 0, k[1:]] = math.sqrt(self.drain)
        stack.setflags(write=False)
        return stack

    @property
    def operators(self) -> tuple[np.ndarray, ...]:
        return tuple(self.stack)

    @property
    def dim(self) -> int:
        return self.stack.shape[1] if self.diagonals is None else self.diagonals.shape[1]


def identity_kraus(dim: int, t: float = 0.0) -> KrausSet:
    """The do-nothing channel; used when no noise family is active."""
    _check_time(t)
    return KrausSet._closed_form(np.ones((1, _check_dim(dim))), t)


def _dephasing_kraus(kernel: float, t: float, dim: int) -> KrausSet:
    """sqrt((1+L)/2) U_{0,0} and sqrt((1-L)/2) U_{1,0}, as their two diagonals."""
    diagonals = np.empty((2, dim), dtype=complex)
    diagonals[0] = math.sqrt(0.5 * (1.0 + kernel))
    diagonals[1] = math.sqrt(0.5 * (1.0 - kernel)) * _phases(1, dim)
    return KrausSet._closed_form(diagonals, t)


def rtn_kraus(a: float, gamma: float, t: float, dim: int) -> KrausSet:
    """Telegraph channel: sqrt((1+L)/2) U_{0,0} and sqrt((1-L)/2) U_{1,0}."""
    _check_dim(dim)
    return _dephasing_kraus(rtn_modulation(a, gamma, t), t, dim)


def oun_kraus(lam: float, gamma: float, t: float, dim: int) -> KrausSet:
    """Ornstein-Uhlenbeck channel: same operator pair with kernel P(t)."""
    _check_dim(dim)
    return _dephasing_kraus(oun_decay(lam, gamma, t), t, dim)


def nmad_kraus(g: float, gamma: float, t: float, dim: int) -> KrausSet:
    """Amplitude-damping channel draining every level into state |0>.

    K_1 = |0><0| + sqrt(1-lam) * sum_j |j><j| and, for each j >= 1,
    K_j = sqrt(lam) |0><j|, where lam is the damped fraction at time t:
    the diagonal K_1 plus a drain of lam.
    """
    _check_dim(dim)
    lam = nmad_damping(g, gamma, t)
    diagonal = np.full((1, dim), math.sqrt(1.0 - lam))
    diagonal[0, 0] = 1.0
    return KrausSet._closed_form(diagonal, t, drain=lam)


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
        """This channel at time t on dim levels, as a closed-form KrausSet."""
        if self.family == "none":
            return identity_kraus(dim, t)
        if self.family == "rtn":
            return rtn_kraus(self.a, self.gamma, t, dim)
        if self.family == "oun":
            return oun_kraus(self.lam, self.gamma, t, dim)
        return nmad_kraus(self.g, self.gamma, t, dim)


def apply_channel(kraus: KrausSet, psi: np.ndarray) -> np.ndarray:
    """Operator-sum action on a pure state: sum_i K_i |psi><psi| K_i^dag.

    With the rows of V the vectors K_i psi, this is V^T V^*.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (kraus.dim,):
        raise ValueError(f"state has shape {psi.shape}, expected ({kraus.dim},)")
    v = kraus.stack @ psi
    return v.T @ v.conj()


def apply_channel_mixed(kraus: KrausSet, rho: np.ndarray) -> np.ndarray:
    """Operator-sum action on a density matrix: sum_i K_i rho K_i^dag."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (kraus.dim, kraus.dim):
        raise ValueError(f"density matrix has shape {rho.shape}, expected square of dim {kraus.dim}")
    return (kraus.stack @ rho @ kraus.stack.conj().swapaxes(1, 2)).sum(0)


def validate_cptp(kraus: KrausSet) -> float:
    """Max-entry residual of the completeness relation sum_i K_i^dag K_i = I."""
    rows = kraus.stack.reshape(-1, kraus.dim)  # the K_i stacked on top of each other
    total = rows.conj().T @ rows
    return float(np.max(np.abs(total - np.eye(kraus.dim))))
