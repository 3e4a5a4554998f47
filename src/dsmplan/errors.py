"""Structured exceptions shared across the package.

Everything raised on bad input is a ValueError (DsmPlanError, the base of
the errors below, derives from it), so callers and the CLI catch one type.
:func:`require_int` is the integer check that the public dataclasses share,
and :func:`all_ints` the same rule over a long sequence.
"""

from __future__ import annotations

from typing import Any, Iterable


def require_int(name: str, value: Any) -> None:
    """Raise ValueError unless ``value`` is an int; bool is an int subclass,
    but no count, limit or seed."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, not {value!r}")


def all_ints(values: Iterable[Any]) -> bool:
    """Whether every one of ``values`` passes :func:`require_int`.  It checks
    each distinct type once, so a long sequence costs one pass of C builtins."""
    return all(issubclass(t, int) and not issubclass(t, bool) for t in set(map(type, values)))


class DsmPlanError(ValueError):
    """Base class of the structured errors raised by this package."""


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
