"""One-bit Boolean functions and their XOR-into-target oracle unitaries."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .qstate import _const


def _bit(value, label: str) -> int:
    """`value` as the int 0 or 1, taken through operator.index."""
    try:
        bit = operator.index(value)
    except TypeError:
        bit = None  # 1.0 is not a bit, though it equals one
    if bit not in (0, 1):
        raise ValueError(f"{label} must be 0 or 1, got {value!r}")
    return bit


@dataclass(frozen=True)
class BoolFn:
    """Truth table of a function {0,1} -> {0,1}."""

    f0: int
    f1: int
    name: str | None = None

    def __post_init__(self) -> None:
        for label in ("f0", "f1"):  # stored as int
            object.__setattr__(self, label, _bit(getattr(self, label), label))

    def __call__(self, x: int) -> int:
        return self.f1 if _bit(x, "input") else self.f0

    def table_text(self) -> str:
        """Canonical truth-table syntax, e.g. "0:0,1:1"."""
        return f"0:{self.f0},1:{self.f1}"

    def label(self) -> str:
        return self.name if self.name else self.table_text()


B1 = BoolFn(0, 1, "B1")  # balanced: identity mapping
B2 = BoolFn(1, 0, "B2")  # balanced: negation
C1 = BoolFn(0, 0, "C1")  # constant 0
C2 = BoolFn(1, 1, "C2")  # constant 1
NAMED_FUNCTIONS = MappingProxyType({fn.name: fn for fn in (B1, B2, C1, C2)})


def is_balanced(fn: BoolFn) -> int:
    """1 when f(0) != f(1), else 0."""
    return fn.f0 ^ fn.f1


@dataclass(frozen=True)
class PromisePair:
    """Two functions promised to be both constant or both balanced."""

    f: BoolFn
    g: BoolFn

    def __post_init__(self) -> None:
        if is_balanced(self.f) != is_balanced(self.g):
            kinds = {0: "constant", 1: "balanced"}
            raise ValueError(
                "promise violated: "
                f"{self.f.label()} is {kinds[is_balanced(self.f)]} "
                f"but {self.g.label()} is {kinds[is_balanced(self.g)]}"
            )

    def label(self) -> str:
        return f"{self.f.label()},{self.g.label()}"


def same_at_zero(pair: PromisePair) -> int:
    """f(0) ^ g(0): 0 when the two functions agree, 1 when they differ.

    Under the promise this equals f(1) ^ g(1) as well.
    """
    return pair.f.f0 ^ pair.g.f0


# (f0, f1) -> identity rows: row x y of U_f reads input x (y ^ f(x))
_ORACLE_UNITARIES = {
    (f0, f1): _const(np.eye(4)[[f0, 1 - f0, 2 + f1, 3 - f1]])
    for f0 in (0, 1) for f1 in (0, 1)
}


def oracle_unitary(fn: BoolFn) -> np.ndarray:
    """4x4 permutation |x>|y> -> |x>|y ^ fn(x)>, input wire first: one shared
    read-only constant per truth table."""
    return _ORACLE_UNITARIES[fn.f0, fn.f1]


def all_promise_pairs() -> list[PromisePair]:
    """All 8 ordered pairs over the four named functions that satisfy the
    promise: 4 constant-constant plus 4 balanced-balanced."""
    order = (C1, C2, B1, B2)
    return [
        PromisePair(f, g)
        for f in order
        for g in order
        if is_balanced(f) == is_balanced(g)
    ]


def parse_oracle(text: str) -> BoolFn:
    """Parse a named oracle (B1, B2, C1, C2) or truth-table syntax "0:b,1:b"."""
    cleaned = text.strip()
    if cleaned in NAMED_FUNCTIONS:
        return NAMED_FUNCTIONS[cleaned]
    if cleaned and cleaned[0].isalpha():
        raise ValueError(
            f'unknown oracle name "{cleaned}" (known names: B1, B2, C1, C2)'
        )
    values: dict[int, int] = {}
    for token in cleaned.split(","):
        token = token.strip()
        parts = token.split(":")
        if len(parts) != 2:
            raise ValueError(f'bad oracle token "{token}": expected "input:value"')
        inp, val = parts
        if inp not in ("0", "1"):
            raise ValueError(f'bad oracle token "{token}": input must be 0 or 1')
        if val not in ("0", "1"):
            raise ValueError(f'bad oracle token "{token}": value must be 0 or 1')
        if int(inp) in values:
            raise ValueError(f'bad oracle token "{token}": input {inp} given twice')
        values[int(inp)] = int(val)
    if sorted(values) != [0, 1]:
        raise ValueError(f'oracle "{cleaned}" must define both inputs 0 and 1')
    return BoolFn(values[0], values[1])
