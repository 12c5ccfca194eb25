"""Resource caps, held in one context variable, and shared error types.

Every layer reads ``current_caps()`` at the point of each check; a run
installs its own caps with ``caps_scope``, which restores the previous
ones on exit.
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass


@dataclass
class Caps:
    """Hard limits honoured by every field construction and enumeration,
    the two a run sets (the CLI's --max-field-bits and --max-enum).

    max_field_bits: a field of order Q may be built only if Q <= 2**max_field_bits.
    max_enum: largest number of projective points a single scan may visit.
    """

    max_field_bits: int = 40
    max_enum: int = 5_000_000

    def field_order_ok(self, p: int, degree: int) -> bool:
        return p**degree <= (1 << self.max_field_bits)

    def check_field(self, p: int, degree: int) -> None:
        if not self.field_order_ok(p, degree):
            raise CapExceededError(
                f"field order {p}^{degree} exceeds 2^{self.max_field_bits} cap"
            )

    def check_enum(self, count: int, what: str = "enumeration") -> None:
        if count > self.max_enum:
            # a pool of thousands of digits is named by its binary order
            size = count if count < 1 << 64 else f"over 2^{count.bit_length() - 1}"
            raise CapExceededError(f"{what} of size {size} exceeds cap {self.max_enum}")


# A smooth form in N variables needs a Macaulay matrix of at least N x N
# entries, so past isqrt(certify._MAX_MACAULAY_ENTRIES) = 3,162 variables no
# smoothness verdict fits; the bound refuses absurd inputs before an
# exponent vector of that length is built.
MAX_NVARS = 4_096


def check_nvars(nvars: int) -> None:
    if nvars > MAX_NVARS:
        raise CapExceededError(f"{nvars} variables exceed cap {MAX_NVARS}")


# The largest total degree of a form, checked where forms enter:
# poly.parse_form, locus.Hypersurface and locus.SchemeSpec.
MAX_FORM_DEGREE = 5_000


def check_form_degree(degree: int) -> None:
    if degree > MAX_FORM_DEGREE:
        raise CapExceededError(f"form degree {degree} exceeds cap {MAX_FORM_DEGREE}")


_CAPS: contextvars.ContextVar[Caps] = contextvars.ContextVar("caps", default=Caps())


def current_caps() -> Caps:
    return _CAPS.get()


@contextlib.contextmanager
def caps_scope(caps: Caps):
    """Make ``caps`` the current caps for the body; scopes nest."""
    token = _CAPS.set(caps)
    try:
        yield
    finally:
        _CAPS.reset(token)


class CapExceededError(RuntimeError):
    """A configured resource cap would be exceeded."""


class NotProperError(ValueError):
    """A section is not proper: the subspace lies inside the hypersurface."""


class SearchInfeasibleError(RuntimeError):
    """An exact decision procedure ran out of its work budget."""


class TheoremViolationError(AssertionError):
    """A search exhausted its candidates although the counting threshold
    guaranteeing success was met and every rejection was exact.

    This cannot happen if the implementation is correct; it indicates a
    transcription or arithmetic bug, and tests treat it as a failure."""
