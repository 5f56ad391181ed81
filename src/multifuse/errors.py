"""Exception types shared across the package, and the parameter type check."""

import math
import numbers
from dataclasses import fields


class MultifuseError(Exception):
    """Base class for every error raised by this package.

    ``exit_code`` is its command-line exit status: 2, or 3 for a numerical failure.
    """

    exit_code = 2


class InvalidInput(MultifuseError):
    """A value violates a documented precondition."""


class InvalidParameter(MultifuseError):
    """A tuning parameter is outside its legal range."""


class DimensionError(MultifuseError):
    """Operands have incompatible dimensions or labels."""


class SingularMatrix(MultifuseError):
    """A matrix lacks the definiteness the operation requires."""

    exit_code = 3


class DegenerateSpectrum(MultifuseError):
    """The leading eigenvalue is not simple, so no canonical eigenvector exists."""

    exit_code = 3


class ParseError(MultifuseError):
    """An input file does not follow the expected format."""


class EmptyTable(ParseError):
    """An input table has a header but no data rows."""


class EmptyAfterFilter(MultifuseError):
    """Entity filtering removed every entity."""


def check_field_types(cfg):
    """Raise ``InvalidParameter`` unless each int, float or tuple field holds one.

    ``cfg`` is a dataclass whose annotations are strings.  A bool is not a
    number, a float field must be finite, a list passes as a tuple, and
    ``None`` passes only where the annotation ends in ``| None``.
    """
    accepted = {"int": numbers.Integral, "float": numbers.Real, "tuple": (list, tuple)}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        wanted = accepted.get(f.type.removesuffix(" | None").split("[")[0])
        if wanted is None or (value is None and f.type.endswith(" | None")):
            continue
        if isinstance(value, bool) or not isinstance(value, wanted):
            raise InvalidParameter(f"{f.name} must be of type {f.type}, got {value!r}")
        if wanted is numbers.Real and not math.isfinite(value):
            raise InvalidParameter(f"{f.name} must be finite, got {value!r}")
