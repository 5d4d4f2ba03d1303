"""Exception types shared across the package."""


class SliceSimError(Exception):
    """Base class for all errors raised by slicesim."""


class ContractViolation(SliceSimError):
    """An operation was called with arguments outside its contract."""


class StateSpaceTooLarge(SliceSimError):
    """Enumerating the feasibility space would exceed the configured cap."""


class NoEquilibrium(SliceSimError):
    """A closed-form queue law was asked for a regime without statistical equilibrium."""


class NumericError(SliceSimError):
    """A series overflowed a double or failed to converge to the requested tolerance."""


class ConfigError(SliceSimError):
    """An experiment configuration file failed validation."""
