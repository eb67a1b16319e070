"""Exception and warning types shared across the package, and its recorder.

Every error carries an exit_code so the command line can map failure
classes to process exit statuses: 1 usage, 2 data, 3 numerical.
"""

import operator
import warnings


def check_integer(name: str, value, error: type) -> int:
    """value as an int if operator.index accepts it and it is not a bool
    (so numpy integers pass and 2.5, 2.0 or True do not); else raise error
    naming the field."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None


def record_warnings(fn, *args):
    """fn(*args) and every warning it raised as (category, message) pairs,
    in order; if fn fails, they are raised again before its error."""
    with warnings.catch_warnings(record=True) as wlist:
        warnings.simplefilter("always")
        try:
            value, error = fn(*args), None
        except BaseException as exc:
            error = exc
    caught = [(w.category, str(w.message)) for w in wlist]
    if error is not None:
        replay_warnings(caught)
        raise error
    return value, caught


def replay_warnings(caught) -> None:
    """Raise recorded (category, message) pairs again, in order."""
    for category, message in caught:
        warnings.warn(message, category)


class SparsekmError(Exception):
    exit_code = 3


class UsageError(SparsekmError):
    """Bad flags, malformed grids, out-of-range parameters."""

    exit_code = 1


class DataError(SparsekmError):
    """Input data is unusable (parse failures, NaN, shape mismatch)."""

    exit_code = 2


class NumericalError(SparsekmError):
    """The computation itself broke down."""

    exit_code = 3


class NonFiniteInput(DataError):
    """Input matrix contains NaN or infinity."""


class LengthMismatch(DataError):
    """Two partitions (or a result and its truth) disagree on n."""


class IndexOutOfRange(DataError):
    """A support index refers past the number of features."""


class InvalidSpec(UsageError):
    """Mixture spec fields are inconsistent."""


class UnknownExperiment(UsageError):
    """Experiment id is not one of E1, E2, E3a, E3b, E4."""


class SparsityOutOfRange(UsageError):
    """s outside the valid range for the chosen method."""


class EmptyCluster(NumericalError):
    """A cluster has no members where a non-empty one is required."""


class AllZeroWeights(NumericalError):
    """Every feature weight is zero, so the weighted metric is degenerate."""


class AllNonPositiveBcss(NumericalError):
    """No feature has positive between-cluster dispersion; the soft
    threshold has nothing to keep."""


class DegenerateData(UserWarning):
    """Fewer than k distinct rows under the weighted metric; seeding fell
    back to duplicate-tolerant selection."""


class NonPositiveObjective(UserWarning):
    """A candidate sparsity value produced a non-positive objective and was
    dropped from gap contention."""
