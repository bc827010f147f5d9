"""Exception types raised by table validation and algebraic constructions."""

from __future__ import annotations


class GyrolabError(Exception):
    """Base class for all structured errors raised by this package."""


class NotLatinSquare(GyrolabError):
    """A row or column of a multiplication table is not a permutation."""

    def __init__(self, axis: str, index: int, cell: tuple[int, int], value: int):
        self.axis = axis
        self.index = index
        self.cell = cell
        self.value = value
        super().__init__(
            f"{axis} {index} is not a permutation: "
            f"cell {cell} repeats or misplaces value {value}"
        )


class NotAssociative(GyrolabError):
    """A multiplication table fails (a*b)*c == a*(b*c)."""

    def __init__(self, triple: tuple[int, int, int]):
        self.triple = triple
        super().__init__(f"associativity fails at triple {triple}")


class NoIdentity(GyrolabError):
    def __init__(self) -> None:
        super().__init__("table has no two-sided identity element")


class NotABijection(GyrolabError):
    """A permutation-valued input (generator, gyration, ...) is not bijective."""

    def __init__(self, what: str, index: int):
        self.what = what
        self.index = index
        super().__init__(f"{what} {index} is not a bijection")


class OrderCapExceeded(GyrolabError):
    """An enumeration, or a declared or constructed order, passed the cap.

    The message defaults to the closure's wording; order checks pass their
    own.
    """

    def __init__(self, cap: int, reached: int, message: str = ""):
        self.cap = cap
        self.reached = reached
        super().__init__(message or f"enumeration passed {reached} elements, cap is {cap}")


class InvariantViolated(GyrolabError):
    """A condition the package guarantees by construction does not hold."""

    def __init__(self, detail: str):
        self.detail = detail
        super().__init__(f"invariant violated: {detail}")


class NotACocycle(GyrolabError):
    """A factor set is not a normalized 2-cocycle; witness is a cell or a triple."""

    def __init__(self, detail: str, witness: tuple):
        self.detail = detail
        self.witness = witness
        super().__init__(f"factor set {detail} at {witness}")


class UnknownSpec(GyrolabError):
    def __init__(self, spec: str, detail: str = ""):
        self.spec = spec
        msg = f"unknown catalog spec {spec!r}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class NotASubgroup(GyrolabError):
    def __init__(self, witness: tuple):
        self.witness = witness
        super().__init__(f"subset is not a subgroup, witness {witness}")


class NotNormal(GyrolabError):
    """Subgroup not closed under conjugation; witness is (g, n)."""

    def __init__(self, witness: tuple[int, int]):
        self.witness = witness
        super().__init__(f"subgroup is not normal, conjugation witness {witness}")


class NotRightLoop(GyrolabError):
    """Some column of the table is not a permutation (right division undefined)."""

    def __init__(self, column: int):
        self.column = column
        super().__init__(f"column {column} is not a permutation")


class NotALoop(GyrolabError):
    def __init__(self, detail: str = "left division undefined"):
        super().__init__(detail)


class NotASubloop(GyrolabError):
    def __init__(self, witness: tuple):
        self.witness = witness
        super().__init__(f"subset is not a subloop, witness {witness}")


class NotWellDefined(GyrolabError):
    """Quotient products leave their coset; witness is a cell pair."""

    def __init__(self, witness: tuple):
        self.witness = witness
        super().__init__(f"quotient product not well defined, witness {witness}")


class NotCentral(GyrolabError):
    def __init__(self, witness: tuple[int, int]):
        self.witness = witness
        super().__init__(f"subgroup is not central, witness {witness}")


class ValueOutsideCenter(GyrolabError):
    """A factor-set value landed outside the chosen central subgroup."""

    def __init__(self, cell: tuple[int, ...], value: int):
        self.cell = cell
        self.value = value
        super().__init__(f"factor-set value {value} at cell {cell} is outside the center")


class WrongClass(GyrolabError):
    def __init__(self, needed: str, actual):
        self.needed = needed
        self.actual = actual
        super().__init__(f"group has nilpotency class {actual}, needed {needed}")


class ParseError(GyrolabError):
    """A group file could not be parsed; carries file and field context."""

    def __init__(self, path: str, detail: str):
        self.path = path
        self.detail = detail
        super().__init__(f"{path}: {detail}")
