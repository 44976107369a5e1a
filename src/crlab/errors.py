"""Semantic exception hierarchy shared by all crlab modules."""


class CrLabError(Exception):
    """Base class for all errors raised by this package."""


class InputError(CrLabError):
    """Malformed or inconsistent caller input (unknown names, bad shapes)."""


class DomainError(CrLabError):
    """Mathematically undefined request, e.g. a rate outside a curve's span."""


class PreconditionError(CrLabError):
    """A structural precondition of an operation does not hold."""


class InternalConsistencyError(CrLabError):
    """A computed quantity violates an invariant that only a bug can break."""


class FormatError(CrLabError):
    """A bitstream header does not match the expected layout or model."""


class IntegrityError(CrLabError):
    """A bitstream payload is truncated or desynchronized."""


class ModelCoverageError(CrLabError):
    """A symbol to be coded has zero frequency in the static model."""


class UsageError(CrLabError):
    """Command line invocation error; maps to exit code 64."""
