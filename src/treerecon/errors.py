"""Exception types shared across the package."""


class ChannelError(ValueError):
    """Base class for channel construction and validation failures."""


class NotStochastic(ChannelError):
    """A matrix row does not sum to 1 within tolerance."""


class NonPositiveEntry(ChannelError):
    """A channel entry is zero or negative; only strictly positive channels are supported."""


class BadDimension(ChannelError):
    """Matrix is not square, or the state space has fewer than 2 states."""


class BadPermutation(ChannelError):
    """Argument is not a permutation of 0..q-1."""


class NoConvergence(RuntimeError):
    """An iterative solver exhausted its budget without reaching tolerance."""


class CenterSingularity(ValueError):
    """The variational ratio is 0/0 at the stationary distribution itself."""


class TreeError(ValueError):
    """Invalid tree description or boundary data."""


class TreeTooLarge(TreeError):
    """Sampling would exceed the node budget."""


class EnumerationTooLarge(ValueError):
    """Exact enumeration would exceed the configuration budget."""


class NumericalUnderflow(ArithmeticError):
    """A belief or probability entry underflowed to exactly zero."""
