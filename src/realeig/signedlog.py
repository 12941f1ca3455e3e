"""Sign/log-magnitude representation of real numbers.

Weights, series and kernel products in this package routinely exceed the
double-precision exponent range, while every final answer is modest.  All
over/underflow-prone quantities are carried as (sign, ln|value|) pairs and
only combined exponents are ever fed to exp().
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

_LOG_MAX = math.log(1.7976931348623157e308)


@dataclass(frozen=True)
class SignedLogValue:
    """A real number x stored as sign(x) and ln|x|.

    sign is -1, 0, or +1; log_mag is ignored (canonically -inf) when sign
    is 0.  log_mag = +inf encodes a signaling infinity, used for weight
    values at non-integrable parameter combinations.
    """

    sign: int
    log_mag: float

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise DomainError(f"sign must be -1, 0 or +1, got {self.sign}")
        if self.sign == 0 and self.log_mag != -math.inf:
            object.__setattr__(self, "log_mag", -math.inf)
        if math.isnan(self.log_mag):
            raise DomainError("log_mag must not be NaN")

    @classmethod
    def from_real(cls, x: float) -> "SignedLogValue":
        if math.isnan(x):
            raise DomainError("cannot represent NaN")
        if x == 0.0:
            return cls(0, -math.inf)
        return cls(1 if x > 0 else -1, math.log(abs(x)))

    @classmethod
    def from_log(cls, sign: int, log_mag: float) -> "SignedLogValue":
        if sign == 0:
            return cls(0, -math.inf)
        return cls(sign, log_mag)

    def to_real(self) -> float:
        """Convert back to a plain float; overflows to +-inf."""
        if self.sign == 0:
            return 0.0
        if self.log_mag > _LOG_MAX:
            return self.sign * math.inf
        return self.sign * math.exp(self.log_mag)

    __float__ = to_real

    @property
    def is_infinite(self) -> bool:
        return self.sign != 0 and math.isinf(self.log_mag) and self.log_mag > 0

    def __mul__(self, other: "SignedLogValue") -> "SignedLogValue":
        if self.sign == 0 or other.sign == 0:
            return SignedLogValue(0, -math.inf)
        return SignedLogValue(self.sign * other.sign, self.log_mag + other.log_mag)

    def __truediv__(self, other: "SignedLogValue") -> "SignedLogValue":
        if other.sign == 0:
            raise ZeroDivisionError("division by zero SignedLogValue")
        if self.sign == 0:
            return SignedLogValue(0, -math.inf)
        return SignedLogValue(self.sign * other.sign, self.log_mag - other.log_mag)

    def __neg__(self) -> "SignedLogValue":
        return SignedLogValue(-self.sign, self.log_mag)

    def __add__(self, other: "SignedLogValue") -> "SignedLogValue":
        if self.sign == 0:
            return other
        if other.sign == 0:
            return self
        hi, lo = (self, other) if self.log_mag >= other.log_mag else (other, self)
        d = lo.log_mag - hi.log_mag  # <= 0
        if self.sign == other.sign:
            return SignedLogValue(self.sign, hi.log_mag + math.log1p(math.exp(d)))
        if d == 0.0:
            return SignedLogValue(0, -math.inf)
        return SignedLogValue(hi.sign, hi.log_mag + math.log1p(-math.exp(d)))

    def __sub__(self, other: "SignedLogValue") -> "SignedLogValue":
        return self + (-other)

    def pow_int(self, k: int) -> "SignedLogValue":
        if self.sign == 0:
            if k <= 0:
                raise DomainError("0 to a non-positive power")
            return self
        sign = self.sign if k % 2 else abs(self.sign)
        return SignedLogValue(sign, k * self.log_mag)
