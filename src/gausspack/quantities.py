"""Parameter bundles and derived scales for Gaussian packet problems.

Conventions: a packet is prepared with a Gaussian momentum amplitude of
width 1/alpha centred on p0, localized near x0.  Derived scales are

    beta  = alpha * hbar          (position-space width scale)
    t0    = mass * hbar * alpha2  (spreading time)
    dp0   = 1 / (alpha * sqrt(2)) (initial momentum spread)
    dx0   = beta / sqrt(2)        (initial position spread)

All containers are immutable.  Each record refuses its own inputs and
derives its own fields: a PacketParams its scales, a SystemSpec its shape.
"""

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum

from .errors import ParameterError

__all__ = [
    "SystemKind",
    "PhysicalConstants",
    "PacketParams",
    "SystemSpec",
    "OscillatorDerived",
    "make_params",
    "free_particle",
    "uniform_acceleration",
    "harmonic_oscillator",
    "inverted_oscillator",
    "oscillator_derived",
]


class SystemKind(str, Enum):
    FREE = "free"
    UNIFORM_ACCELERATION = "accel"
    HARMONIC = "sho"
    INVERTED = "inverted"


def _as_float(value):
    """value as a float if it is a real number other than a bool, else None.

    The one coercion behind the parameter checks, the evolution time and
    scenario numbers: np.float32, np.int64 and Fraction are accepted
    alike, and True/False never are.  An integer or fraction beyond the
    float range becomes an infinity, which the finiteness checks refuse.
    """
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return None
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _as_int(value):
    """value as an int if it is an integer other than a bool, else None.

    The integer counterpart of _as_float, behind every count and grid
    size: np.int64 is accepted, and True, 64.0 and "64" never are.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        return None
    return int(value)


def _shown(value):
    """repr(value) for an error message, which must not itself raise.

    repr raises ValueError for an integer past Python's 4300-digit limit.
    """
    try:
        return repr(value)
    except ValueError:
        return f"a value of type {type(value).__name__} too large to print"


def _require_finite(name, value):
    number = _as_float(value)
    if number is None or not math.isfinite(number):
        raise ParameterError(f"{name} must be a finite number, got {_shown(value)}")
    return number


def _require_positive(name, value):
    number = _as_float(value)
    if number is None or not (math.isfinite(number) and number > 0):
        raise ParameterError(
            f"{name} must be a finite positive number, got {_shown(value)}")
    return number


def _require_count(name, value, minimum):
    """value as an int of at least minimum: the one rule behind every count."""
    count = _as_int(value)
    if count is None or count < minimum:
        raise ParameterError(f"{name} must be an integer >= {minimum}, got {_shown(value)}")
    return count


def _require_squarable(name, value):
    """_require_finite, also refusing a value whose `**2` would overflow."""
    number = _require_finite(name, value)
    if not math.isfinite(number * number):
        raise ParameterError(f"{name} must be below 1.3e154 in magnitude, got {_shown(value)}")
    return number


def _require_frequency(name, value):
    """_require_positive, also refusing a value whose square is inf or 0.0."""
    number = _require_positive(name, value)
    if not 0.0 < number * number < math.inf:
        raise ParameterError(
            f"{name} must be at least 1.6e-162 and below 1.3e154 in magnitude, "
            f"or its square under- or overflows, got {_shown(value)}")
    return number


def _require_window(name, pair):
    """pair as a finite (lo, hi) tuple of floats with lo < hi."""
    try:
        lo, hi = pair
    except (TypeError, ValueError):
        raise ParameterError(
            f"{name} must be a (lo, hi) pair, got {_shown(pair)}") from None
    lo = _require_finite(f"{name} lo", lo)
    hi = _require_finite(f"{name} hi", hi)
    if not lo < hi:
        raise ParameterError(f"{name} must satisfy lo < hi, got {_shown(pair)}")
    return lo, hi


def _store_checked(obj, name, check):
    """Validate field `name` of a frozen dataclass and store it as a float."""
    object.__setattr__(obj, name, check(name, getattr(obj, name)))


@dataclass(frozen=True)
class PhysicalConstants:
    """hbar and particle mass; the defaults give the hbar = m = 1 convention."""

    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        _store_checked(self, "hbar", _require_positive)
        _store_checked(self, "mass", _require_positive)


@dataclass(frozen=True)
class PacketParams:
    """Initial Gaussian packet parameters plus derived width and time scales.

    beta = alpha*hbar and t0 = mass*hbar*alpha**2 are derived here, and
    hbar and mass are copied from constants, so dataclasses.replace
    derives them again.
    """

    constants: PhysicalConstants
    alpha: float
    x0: float
    p0: float
    beta: float = field(init=False)
    t0: float = field(init=False)
    hbar: float = field(init=False, repr=False, compare=False)
    mass: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _store_checked(self, "alpha", _require_positive)
        alpha = _require_squarable("alpha", self.alpha)  # the closed forms square it
        _store_checked(self, "x0", _require_finite)
        _store_checked(self, "p0", _require_finite)
        hbar, mass = self.constants.hbar, self.constants.mass
        _require_squarable("hbar", hbar)
        _require_squarable("p0", self.p0)
        beta = _require_squarable("beta", alpha * hbar)
        # Valid inputs can still overflow or underflow these products, and
        # an infinite or zero scale turns into a division by zero later.
        _require_positive("beta = alpha * hbar", beta)
        t0 = _require_positive("t0 = mass * hbar * alpha**2", mass * hbar * alpha**2)
        if beta * beta == 0.0:  # the closed forms divide by beta**2
            raise ParameterError(
                "beta = alpha * hbar must be at least 1.6e-162, or its square "
                f"underflows to 0, got {_shown(beta)}")
        for name, value in (("beta", beta), ("t0", t0), ("hbar", hbar), ("mass", mass)):
            object.__setattr__(self, name, value)

    @property
    def dp0(self):
        """Initial momentum spread 1/(alpha*sqrt(2))."""
        return 1.0 / (self.alpha * math.sqrt(2.0))

    @property
    def dx0(self):
        """Initial position spread beta/sqrt(2)."""
        return self.beta / math.sqrt(2.0)


def make_params(hbar=1.0, mass=1.0, alpha=1.0, x0=0.0, p0=0.0):
    """Build a PacketParams; it derives beta and t0 itself."""
    return PacketParams(PhysicalConstants(hbar=hbar, mass=mass), alpha, x0, p0)


# The SystemSpec field that holds each system's one shape parameter; the
# free particle has none.
_SHAPE_FIELD = {
    SystemKind.UNIFORM_ACCELERATION: "force",
    SystemKind.HARMONIC: "omega",
    SystemKind.INVERTED: "omega_tilde",
}


@dataclass(frozen=True)
class SystemSpec:
    """One of the four model systems, with its single shape parameter.

    kind selects the potential: none, linear (-force*x), harmonic
    (mass*omega^2*x^2/2), or inverted harmonic (-mass*omega_tilde^2*x^2/2).
    Only the field named by the kind may be set; the factory functions
    below build each system from its parameter alone.  shape holds that
    parameter's value, 0.0 for the free particle.
    """

    kind: SystemKind
    force: float | None = None
    omega: float | None = None
    omega_tilde: float | None = None
    shape: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.kind, SystemKind):
            raise ParameterError(f"kind must be a SystemKind, got {self.kind!r}")
        needed = _SHAPE_FIELD.get(self.kind)
        for name in _SHAPE_FIELD.values():
            if name == needed:
                # A force may point either way; a frequency is positive and squarable.
                check = _require_finite if name == "force" else _require_frequency
                _store_checked(self, name, check)
            elif getattr(self, name) is not None:
                raise ParameterError(
                    f"{self.kind.value} system takes no {name} parameter"
                )
        object.__setattr__(self, "shape", 0.0 if needed is None else getattr(self, needed))


def free_particle():
    return SystemSpec(kind=SystemKind.FREE)


def uniform_acceleration(force):
    return SystemSpec(kind=SystemKind.UNIFORM_ACCELERATION, force=force)


def harmonic_oscillator(omega):
    return SystemSpec(kind=SystemKind.HARMONIC, omega=omega)


def inverted_oscillator(omega_tilde):
    return SystemSpec(kind=SystemKind.INVERTED, omega_tilde=omega_tilde)


@dataclass(frozen=True)
class OscillatorDerived:
    """Natural oscillator scales: ground-state width and classical period."""

    beta0: float
    tau: float


def oscillator_derived(constants, omega):
    """Return beta0 = sqrt(hbar/(mass*omega)) and tau = 2*pi/omega."""
    omega = _require_positive("omega", omega)
    beta0 = math.sqrt(constants.hbar / _require_positive("mass*omega", constants.mass * omega))
    return OscillatorDerived(beta0=beta0, tau=2.0 * math.pi / omega)
