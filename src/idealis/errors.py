"""Error taxonomy shared by the library and the CLI.

Every exception here carries a stable machine-readable name and a small
JSON-friendly detail payload; the CLI maps each one to exit code 2.
"""

from __future__ import annotations


class IdealisError(Exception):
    """Base class for contract violations; a class's ``name`` is its own
    class name."""

    name = "IdealisError"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.name = cls.__name__

    def detail(self) -> dict:
        return {"message": str(self)}


class InsufficientPrefix(IdealisError):
    """A prefix or stage witness is too short to answer the query."""

    def __init__(self, required_length: int, what: str = "prefix"):
        super().__init__(f"{what} too short, need length >= {required_length}")
        self.required_length = required_length
        self.what = what

    def detail(self) -> dict:
        return {"required_length": self.required_length, "what": self.what}


class IndexOutOfRange(IdealisError):
    """An argument lies outside the range the function accepts."""


class MeasureTooLarge(IdealisError):
    """A clopen set's measure is not below the bound it is ranked under."""


class NotDense(IdealisError):
    """The set being encoded misses a basic open set it must meet."""

    def __init__(self, n: int):
        super().__init__(f"input set misses basic open set number {n}")
        self.n = n

    def detail(self) -> dict:
        return {"basic_open": self.n}


class InsufficientResolution(IdealisError):
    """No admissible level realizes the requested density bound."""

    def __init__(self, position: int):
        super().__init__(f"no level realizes the density bound at position {position}")
        self.position = position

    def detail(self) -> dict:
        return {"position": self.position}


class LengthMismatch(IdealisError):
    """Words or rows that must agree in length do not."""


class InvariantViolated(IdealisError):
    """An input breaks an invariant its construction needs."""


class UnknownSuite(IdealisError):
    def __init__(self, suite: str):
        super().__init__(f"unknown check suite: {suite}")
        self.suite = suite

    def detail(self) -> dict:
        return {"suite": self.suite}


class LevelCapExceeded(IdealisError):
    """A construction needs a deeper level than IDEALIS_MAX_LEVEL allows."""

    def __init__(self, level: int, cap: int):
        super().__init__(f"level {level} exceeds the working cap {cap}")
        self.level = level
        self.cap = cap

    def detail(self) -> dict:
        return {"level": self.level, "cap": self.cap}


class CodingMismatch(IdealisError):
    """A parameter file was produced under a different coding convention."""

    def __init__(self, expected: str, found: str):
        super().__init__(f"parameter coding {found!r} does not match {expected!r}")
        self.expected = expected
        self.found = found

    def detail(self) -> dict:
        return {"expected": self.expected, "found": self.found}
