"""Exception types shared across the package."""


class ListContractError(Exception):
    """Base class for all package errors."""


class ErewViolationError(ListContractError):
    """Two distinct tasks of one step touched the same cell.

    The engine refuses such a step at every processor count, before it
    applies any write; ``violations`` counts the shared cells.
    """

    def __init__(self, message, violations=1):
        super().__init__(message)
        self.violations = violations


class ForestFormatError(ListContractError):
    """Forest text input is malformed or violates the list invariants."""


class ImproperColoringError(ListContractError):
    """A coloring pass received colors equal across a link."""


class OrientationError(ListContractError):
    """A pair has no forward column, or two survivors claim one column."""


class UncoveredCaseError(ListContractError):
    """The uniformity step met a configuration outside the implemented cases.

    Carries a snapshot of the offending walk so the instance can be
    reproduced and documented rather than silently patched.
    """

    def __init__(self, message, snapshot=None):
        super().__init__(message)
        self.snapshot = snapshot or {}
