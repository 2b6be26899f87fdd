"""3-SAT instances in conjunctive normal form.

Covers the DIMACS interchange format, structural validation, seeded random
instance generation, and small brute-force oracles that ground-truth the
crossbar solver at desk scale.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .util import substream

MAX_BRUTE_FORCE_VARS = 24


class CnfError(ValueError):
    """Structurally invalid 3-SAT material."""


class DimacsError(CnfError):
    """Malformed DIMACS text; carries the offending line number."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


def int64_array(values, name: str, ndim: int, shape_rule: str) -> np.ndarray:
    """``values`` as a new int64 array of ``ndim`` dimensions, empty for any empty input.
    Other dtypes would truncate floats, parse strings and wrap uint64, so any
    but an integer dtype that casts safely to int64 raises CnfError headed by
    ``name``; a ragged nesting or another ``ndim`` raises it headed by ``shape_rule``."""
    try:
        arr = np.asarray(values)
    except ValueError:  # numpy refuses a ragged nesting
        raise CnfError(f"{shape_rule}, got a ragged list") from None
    if not arr.size:
        return np.zeros((0,) * ndim, dtype=np.int64)
    if not (arr.dtype.kind in "iu" and np.can_cast(arr.dtype, np.int64)):
        raise CnfError(f"{name} must be integers within int64, got dtype {arr.dtype}")
    if arr.ndim != ndim:
        raise CnfError(f"{shape_rule}, got shape {arr.shape}")
    return arr.astype(np.int64)


class Clause(NamedTuple):
    """One row of ``Cnf.lits`` as three signed Python ints."""

    a: int
    b: int
    c: int

    def to_ints(self) -> tuple[int, int, int]:
        return tuple(self)


@dataclass(frozen=True)
class Cnf:
    """A 3-SAT instance: ``num_vars`` variables and ``lits``, a read-only (m, 3)
    int64 array of signed literals, one clause per row, each row three
    distinct variables in 1..num_vars.  Equal and hashed alike when both fields
    are.  ``num_vars`` is a Python or numpy integer, kept as a Python int, and
    ``lits`` integers by ``int64_array``'s rule; anything else raises CnfError.

    A repeated variable is refused: a duplicated literal degenerates the clause
    toward 2-SAT and an opposed pair makes it a tautology, and neither shape
    maps onto the clause triangle of the reduction graph."""

    num_vars: int
    lits: np.ndarray

    def __post_init__(self) -> None:
        if isinstance(self.num_vars, bool) or not isinstance(self.num_vars, (int, np.integer)):
            raise CnfError(f"num_vars must be an integer, got {self.num_vars!r}")
        if self.num_vars < 1:
            raise CnfError(f"num_vars must be >= 1, got {self.num_vars}")
        rule = "clauses must have exactly 3 literals"
        lits = int64_array(self.lits, "literals", 2, rule)
        if len(lits) < 1:
            raise CnfError("a CNF needs at least one clause")
        if lits.shape[1] != 3:
            raise CnfError(f"{rule}, got shape {lits.shape}")
        var = np.abs(lits)
        low = var.min()
        if low == 0:
            raise CnfError("literal 0 is reserved as the clause terminator")
        ordered = np.sort(var, axis=1)
        repeats = ordered[:, 1:] == ordered[:, :-1]
        if repeats.any():
            ints = tuple(lits[repeats.any(axis=1).argmax()].tolist())
            raise CnfError(f"clause {ints} repeats a variable")
        # abs(-2**63) wraps to a negative int64, so test below 1 as well.
        if low < 1 or var.max() > self.num_vars:
            variable = abs(int(lits.flat[((var < 1) | (var > self.num_vars)).argmax()]))
            raise CnfError(f"variable {variable} out of range (num_vars={self.num_vars})")
        lits.flags.writeable = False
        object.__setattr__(self, "num_vars", int(self.num_vars))
        object.__setattr__(self, "lits", lits)

    @property
    def num_clauses(self) -> int:
        return len(self.lits)

    @cached_property
    def clauses(self) -> tuple[Clause, ...]:
        """The rows of ``lits`` as ``Clause`` tuples, which the benchmark's check reads."""
        return tuple(map(Clause._make, self.lits.tolist()))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Cnf) and self.num_vars == other.num_vars
                and np.array_equal(self.lits, other.lits))

    def __hash__(self) -> int:
        return hash((self.num_vars, self.lits.tobytes()))


@dataclass(frozen=True)
class Assignment:
    """One boolean per variable, index 1..n stored at positions 0..n-1."""

    values: tuple[bool, ...]

    @classmethod
    def from_index(cls, index: int, num_vars: int) -> "Assignment":
        """Decode an integer as bits, variable 1 at the least significant bit."""
        return cls(tuple(bool((index >> v) & 1) for v in range(num_vars)))


# A DIMACS integer; int() alone would also take "1_0" and non-ASCII digits.
_DECIMAL = re.compile(r"[+-]?[0-9]+")


def parse_dimacs(text: str) -> Cnf:
    """Parse DIMACS CNF text into a validated 3-SAT instance.

    Accepts ``c`` comment lines, a single ``p cnf <n> <m>`` header, and clauses
    of whitespace-separated integers terminated by ``0`` (clauses may span
    lines); every integer, header counts included, is ASCII ``[+-]?[0-9]+``.
    A ``%`` line ends the input, as in the SATLIB ``uf*`` files.  Clause order
    is preserved.  Every error names its line via :class:`DimacsError`.

    Text that opens with its header and then holds only clauses, each three
    literals and a ``0``, is read in one numpy pass; any other text, and any
    error, goes through the line-by-line parser.
    """
    head, _, body = text.partition("\n")
    parts = head.split()
    if (len(parts) == 4 and parts[:2] == ["p", "cnf"] and (parts[2] + parts[3]).isdigit()
            and text.isascii() and len(head.splitlines()) == 1 and "_" not in body):
        try:
            rows = np.array(body.split(), dtype=np.int64).reshape(-1, 4)
            # A 0 among a row's first three is a misaligned clause, which Cnf refuses.
            if not rows[:, 3].any() and len(rows) == int(parts[3]):
                return Cnf(int(parts[2]), rows[:, :3])
        except (ValueError, OverflowError):
            pass
    return _parse_lines(text)


def _parse_lines(text: str) -> Cnf:
    """``parse_dimacs`` line by line: the reference, naming each error's line."""
    num_vars: Optional[int] = None
    declared_clauses = 0
    clauses: list[list[int]] = []
    pending: list[int] = []
    pending_line = 0
    line_no = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("c"):
            continue
        if stripped.startswith("%"):
            break
        if stripped.startswith("p"):
            if num_vars is not None:
                raise DimacsError("duplicate problem header", line_no)
            parts = stripped.split()
            if len(parts) != 4 or parts[1] != "cnf" or not all(map(_DECIMAL.fullmatch, parts[2:])):
                raise DimacsError(f"malformed header {stripped!r}", line_no)
            num_vars, declared_clauses = int(parts[2]), int(parts[3])
            if num_vars < 1 or declared_clauses < 1:
                raise DimacsError("header counts must be positive", line_no)
            continue
        if num_vars is None:
            raise DimacsError("clause data before 'p cnf' header", line_no)
        for token in stripped.split():
            if not _DECIMAL.fullmatch(token):
                raise DimacsError(f"non-integer token {token!r}", line_no)
            value = int(token)
            if value == 0:
                if len(pending) != 3:
                    raise DimacsError(f"clause has {len(pending)} literals, expected 3", line_no)
                beyond = [abs(lit) for lit in pending if abs(lit) > num_vars]
                if beyond:
                    message = f"variable {beyond[0]} out of range (num_vars={num_vars})"
                    raise DimacsError(message, line_no)
                if len({abs(lit) for lit in pending}) != 3:
                    raise DimacsError(f"clause {tuple(pending)} repeats a variable", line_no)
                clauses.append(pending)
                pending = []
            else:
                if not pending:
                    pending_line = line_no
                pending.append(value)
    if pending:
        raise DimacsError("unterminated clause at end of input", pending_line)
    if num_vars is None:
        raise DimacsError("missing 'p cnf' header", max(line_no, 1))
    if len(clauses) != declared_clauses:
        raise DimacsError(
            f"header declares {declared_clauses} clauses, found {len(clauses)}",
            max(line_no, 1),
        )
    return Cnf(num_vars, clauses)


def emit_dimacs(cnf: Cnf) -> str:
    """Render a Cnf as DIMACS text, one ``0``-terminated clause per line."""
    lines = [f"p cnf {cnf.num_vars} {cnf.num_clauses}"]
    lines += [f"{a} {b} {c} 0" for a, b, c in cnf.lits.tolist()]
    return "\n".join(lines) + "\n"


def density(cnf: Cnf) -> Fraction:
    """Clause-to-variable ratio m/n as an exact rational."""
    return Fraction(cnf.num_clauses, cnf.num_vars)


def verify_assignment(cnf: Cnf, assignment: Assignment) -> bool:
    """True iff every clause has at least one true literal."""
    if len(assignment.values) != cnf.num_vars:
        raise CnfError(
            f"assignment covers {len(assignment.values)} variables, "
            f"instance has {cnf.num_vars}"
        )
    values = assignment.values
    return all(any(values[abs(lit) - 1] == (lit > 0) for lit in clause)
               for clause in cnf.lits.tolist())


def brute_force_sat(cnf: Cnf) -> Optional[Assignment]:
    """Exhaustively search for the lowest binary-encoded satisfying assignment.

    Assignments are enumerated as integers with variable 1 at the least
    significant bit; the first satisfying one is returned, or None if all 2^n
    fail.  Guarded to n <= 24.
    """
    n = cnf.num_vars
    if n > MAX_BRUTE_FORCE_VARS:
        raise CnfError(f"brute force is limited to n <= {MAX_BRUTE_FORCE_VARS}, got {n}")
    bits = 1 << (np.abs(cnf.lits) - 1)
    var_masks = bits.sum(axis=1).tolist()
    neg_patterns = (bits * (cnf.lits < 0)).sum(axis=1).tolist()
    total = 1 << n
    chunk = 1 << 16
    for start in range(0, total, chunk):
        ks = np.arange(start, min(start + chunk, total), dtype=np.int64)
        satisfied = np.ones(len(ks), dtype=bool)
        for mask, pattern in zip(var_masks, neg_patterns):
            # A clause fails exactly when all three literals are false.
            satisfied &= (ks & mask) != pattern
        hits = np.flatnonzero(satisfied)
        if hits.size:
            return Assignment.from_index(int(ks[hits[0]]), n)
    return None


def random_3sat(n: int, m: int, seed: int) -> Cnf:
    """Uniform random 3-SAT: m clauses of 3 distinct variables, random polarity.

    Deterministic per seed.  Tautologies and repeated variables are impossible
    by construction.
    """
    if n < 3:
        raise CnfError(f"random 3-SAT needs n >= 3, got {n}")
    if m < 1:
        raise CnfError(f"random 3-SAT needs m >= 1, got {m}")
    rng = substream(seed, 0x3547)
    clauses = []
    for _ in range(m):
        variables = rng.choice(n, size=3, replace=False) + 1
        clauses.append(np.where(rng.random(3) < 0.5, -variables, variables))
    return Cnf(n, clauses)
