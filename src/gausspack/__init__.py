"""Closed-form Gaussian wave packet evolution and kinetic energy splits.

The library evaluates exact Gaussian solutions of the time-dependent
Schrödinger equation for four one-dimensional systems — free particle,
uniform acceleration, harmonic oscillator, inverted oscillator — and
the kinetic energy density they carry, including its split into the
halves ahead of and behind the moving packet center.  An independent
numerical oracle (sums and FFT derivatives on a periodic grid,
split-step propagation) validates every closed form, and a small CLI exports
tables and figures deterministically.
"""

# Each submodule's __all__ is its public interface; the package republishes
# them unchanged, so a name is declared once, in the module that defines it.
from . import analytic, errors, figures, kedensity, oracle, quantities, scenarios, validation
from .analytic import *
from .errors import *
from .figures import *
from .kedensity import *
from .oracle import *
from .quantities import *
from .scenarios import *
from .validation import *

__version__ = "0.1.0"

__all__ = sorted({
    name
    for module in (analytic, errors, figures, kedensity, oracle, quantities,
                   scenarios, validation)
    for name in module.__all__
})
