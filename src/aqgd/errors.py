"""Exception types shared across the package."""

from contextlib import contextmanager


class AqgdError(Exception):
    """Base class for all package errors."""


class NotSchurStable(AqgdError):
    """A matrix expected to have spectral radius < 1 does not."""


class NoConvergence(AqgdError):
    """A fixed-point iteration hit its cap without meeting tolerance."""


class Overflow(AqgdError):
    """A vector handed to a quantizer exceeded the active range."""


class Unstabilizing(AqgdError):
    """A controller yields an unstable closed loop (infinite cost)."""


class Divergence(AqgdError):
    """An optimization run blew past the divergence guard."""


class ConfigError(AqgdError):
    """An experiment configuration is invalid or inconsistent."""


@contextmanager
def reading(path):
    """Raise an OSError or ValueError of the block again as a ConfigError
    naming path: a file from outside the program that cannot be read or
    parsed is a configuration error."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
