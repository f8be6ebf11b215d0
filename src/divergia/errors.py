"""Exception hierarchy shared by all modules."""


class DivergiaError(Exception):
    """Base class for all library errors."""


class ParameterError(DivergiaError):
    """Invalid argument or violated precondition (usage error)."""


class DomainMismatchError(ParameterError):
    """Operands live on different domains or backends."""


class ConstructionError(DivergiaError):
    """A construction invariant failed while building an object."""


def require_same_domain(a, b):
    """Raise DomainMismatchError unless ``a.domain == b.domain``."""
    if a.domain != b.domain:
        raise DomainMismatchError(
            f"domains differ: {a.domain} vs {b.domain}")
