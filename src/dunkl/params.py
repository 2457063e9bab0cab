"""Deformation parameter and the constants of the weighted measure."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass


@dataclass(frozen=True)
class DunklParams:
    """Parameter kappa > -1/2 together with the derived measure constants.

    The reference measure on the line has density c_kappa * |x|**(2*kappa+1)
    with respect to Lebesgue measure, and balls centered at the origin have
    measure b_kappa * r**(2*kappa+2).

    The boundary value kappa = -1/2 reduces everything to classical Fourier
    analysis (uniform weight, ordinary translation).  It is admitted only when
    ``classical=True``, and ``classical=True`` only with it: it sits outside
    the usual parameter range but provides exact closed-form oracles for
    validation.  A kappa whose constants are not positive normal floats (from
    about kappa = 149 on) is rejected.
    """

    kappa: float
    classical: bool = False

    def __post_init__(self) -> None:
        k = float(self.kappa)
        if not math.isfinite(k):
            raise ValueError("kappa must be finite")
        if k < -0.5:
            raise ValueError(f"kappa must be >= -1/2, got {k}")
        if k == -0.5 and not self.classical:
            raise ValueError(
                "kappa = -1/2 is the classical limit; construct with classical=True"
            )
        if self.classical and k != -0.5:
            raise ValueError(f"classical=True holds only at kappa = -1/2, got kappa = {k}")
        object.__setattr__(self, "kappa", k)
        try:
            normal = min(self.c_kappa, self.b_kappa) >= sys.float_info.min
        except OverflowError:  # math.gamma(kappa + 1) past the float range
            normal = False
        if not normal:
            raise ValueError(f"kappa = {k} is too large: c_kappa or b_kappa is not a normal float")

    @property
    def c_kappa(self) -> float:
        """Density constant of the weight c_kappa * |x|**(2*kappa+1)."""
        return 1.0 / (2.0 ** (self.kappa + 1.0) * math.gamma(self.kappa + 1.0))

    @property
    def b_kappa(self) -> float:
        """Origin-ball constant: mu(B_r) = b_kappa * r**(2*kappa+2)."""
        return self.c_kappa / (self.kappa + 1.0)
