"""Exception hierarchy shared by all squashkit modules."""


class SquashkitError(Exception):
    """Base class for all squashkit errors."""


class DimensionMismatch(SquashkitError):
    pass


class NotHermitian(SquashkitError):
    pass


class NotUnitary(SquashkitError):
    pass


class InvalidPovm(SquashkitError):
    pass


class InvalidGroup(SquashkitError):
    pass


class InvalidAction(SquashkitError):
    pass


class KNotOne(SquashkitError):
    pass


class InvalidSector(SquashkitError):
    pass


class RankNotTwo(SquashkitError):
    pass


class SpectrumAsymmetric(SquashkitError):
    pass


class DeficiencyNotPsd(SquashkitError):
    pass


class InvalidSquash(SquashkitError):
    pass


class TildeNotVerified(SquashkitError):
    pass


class SelfCheckFailed(SquashkitError):
    """An engine's independent recheck of its own result did not hold."""


class ConstructionError(SquashkitError):
    """Failure inside the analytic construction pipeline, tagged with the stage."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage
