"""The four errors squashkit raises, one per outcome of the CLI's exit-code contract.

- ``SquashkitError``: malformed or out-of-range input (exit 2). Every check of
  an input's shape, entries, validity or range raises it with a message that
  names what failed.
- ``SelfCheckFailed``: an engine's independent recheck of its own result did
  not hold, a fault of the program rather than of the input (exit 2).
- ``ConstructionError``: Theorem 1's hypotheses fail on the input, tagged with
  the stage of the construction that found it (exit 1).
- ``TildeNotVerified``: a map fails verification on the symmetrized set (exit 1).
"""


class SquashkitError(Exception):
    """Malformed or out-of-range input; the base class of the other three."""


class SelfCheckFailed(SquashkitError):
    """An engine's independent recheck of its own result did not hold."""


class ConstructionError(SquashkitError):
    """Failure inside the analytic construction pipeline, tagged with the stage."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


class TildeNotVerified(SquashkitError):
    """A map fails verification against the symmetrized set."""
