"""Structured exceptions shared across the package.

Everything raised on bad input derives from DsmPlanError so callers (and the
CLI) can catch one type and report instead of crashing.
"""

from __future__ import annotations


class DsmPlanError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(DsmPlanError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DuplicateId(DsmPlanError):
    def __init__(self, element_id: str):
        self.element_id = element_id
        super().__init__(f"duplicate element id {element_id!r}")


class UnknownDependency(DsmPlanError):
    def __init__(self, element_id: str, dependency: str):
        self.element_id = element_id
        self.dependency = dependency
        super().__init__(f"element {element_id!r} depends on unknown id {dependency!r}")


class SelfDependency(DsmPlanError):
    def __init__(self, element_id: str):
        self.element_id = element_id
        super().__init__(f"element {element_id!r} depends on itself")


class LengthMismatch(DsmPlanError):
    def __init__(self, expected: int, got: int):
        super().__init__(f"permutation length {got} does not match matrix size {expected}")


class NonSquare(DsmPlanError):
    pass


class NegativeWeight(DsmPlanError):
    pass


class NonzeroDiagonal(DsmPlanError):
    pass


class WeightOverflow(DsmPlanError):
    """A mark weight too large for the dense matrix's int64 cells."""


class MissingTokenCount(DsmPlanError):
    def __init__(self, element_id: str):
        self.element_id = element_id
        super().__init__(f"element {element_id!r} has neither text nor a literal token count")


class MissingTableEntry(DsmPlanError):
    def __init__(self, element_id: str):
        self.element_id = element_id
        super().__init__(f"token table has no entry for element {element_id!r}")


class IncompleteAssignment(DsmPlanError):
    def __init__(self, missing: tuple[str, ...]):
        self.missing = missing
        super().__init__(f"assignment misses elements: {', '.join(missing)}")


class EmptyMatrix(DsmPlanError):
    def __init__(self) -> None:
        super().__init__("cannot cluster an empty matrix")


class TooLarge(DsmPlanError):
    def __init__(self, n: int, limit: int = 10):
        self.n = n
        super().__init__(f"exhaustive clustering limited to {limit} elements, got {n}")


class UnsplittablePiece(DsmPlanError):
    def __init__(self, element_id: str):
        self.element_id = element_id
        super().__init__(
            f"element {element_id!r} alone exceeds the output budget and cannot be split"
        )


class SpecMismatch(DsmPlanError):
    pass


class DuplicateModelName(DsmPlanError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"duplicate model name {name!r} in catalog")


class UnknownModel(DsmPlanError):
    def __init__(self, name: str, available: tuple[str, ...]):
        self.name = name
        self.available = available
        super().__init__(f"unknown model {name!r}; available: {', '.join(available)}")
