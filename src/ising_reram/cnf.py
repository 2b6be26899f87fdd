"""3-SAT instances in conjunctive normal form.

Covers the DIMACS interchange format, structural validation, seeded random
instance generation, and small brute-force oracles that ground-truth the
crossbar solver at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

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


@dataclass(frozen=True)
class Literal:
    """A possibly negated propositional variable (1-based index)."""

    variable: int
    negated: bool = False

    def __post_init__(self) -> None:
        if self.variable < 1:
            raise CnfError(f"variable index must be >= 1, got {self.variable}")

    @classmethod
    def from_int(cls, lit: int) -> "Literal":
        if lit == 0:
            raise CnfError("literal 0 is reserved as the clause terminator")
        return cls(abs(lit), lit < 0)

    def to_int(self) -> int:
        return -self.variable if self.negated else self.variable

    def holds(self, value: bool) -> bool:
        """Truth of this literal when its variable takes ``value``."""
        return value != self.negated


@dataclass(frozen=True)
class Clause:
    """Exactly three literals over three distinct variables.

    Repeated variables are rejected outright: a duplicated literal degenerates
    the clause toward 2-SAT and an opposed pair makes it tautological, and
    neither shape maps onto the clause-triangle graph structure downstream.
    """

    literals: tuple[Literal, Literal, Literal]

    def __post_init__(self) -> None:
        if len(self.literals) != 3:
            raise CnfError(
                f"clause must have exactly 3 literals, got {len(self.literals)}"
            )
        variables = {lit.variable for lit in self.literals}
        if len(variables) != 3:
            ints = tuple(lit.to_int() for lit in self.literals)
            raise CnfError(f"clause {ints} repeats a variable")

    @classmethod
    def of(cls, *lits: int) -> "Clause":
        return cls(tuple(Literal.from_int(lit) for lit in lits))

    def to_ints(self) -> tuple[int, int, int]:
        return tuple(lit.to_int() for lit in self.literals)


@dataclass(frozen=True)
class Cnf:
    """A 3-SAT instance: ``num_vars`` variables, an ordered tuple of clauses."""

    num_vars: int
    clauses: tuple[Clause, ...]

    def __post_init__(self) -> None:
        if self.num_vars < 1:
            raise CnfError(f"num_vars must be >= 1, got {self.num_vars}")
        if len(self.clauses) < 1:
            raise CnfError("a CNF needs at least one clause")
        for clause in self.clauses:
            for lit in clause.literals:
                if lit.variable > self.num_vars:
                    raise CnfError(
                        f"variable {lit.variable} out of range (num_vars={self.num_vars})"
                    )

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


@dataclass(frozen=True)
class Assignment:
    """One boolean per variable, index 1..n stored at positions 0..n-1."""

    values: tuple[bool, ...]

    def value(self, variable: int) -> bool:
        return self.values[variable - 1]

    @classmethod
    def from_index(cls, index: int, num_vars: int) -> "Assignment":
        """Decode an integer as bits, variable 1 at the least significant bit."""
        return cls(tuple(bool((index >> v) & 1) for v in range(num_vars)))


def _clause_from_ints(lits: list[int], num_vars: int, line: int) -> Clause:
    if len(lits) != 3:
        raise DimacsError(f"clause has {len(lits)} literals, expected 3", line)
    for lit in lits:
        if abs(lit) > num_vars:
            raise DimacsError(
                f"variable {abs(lit)} out of range (num_vars={num_vars})", line
            )
    try:
        return Clause.of(*lits)
    except CnfError as exc:
        raise DimacsError(str(exc), line) from exc


def parse_dimacs(text: str) -> Cnf:
    """Parse DIMACS CNF text into a validated 3-SAT instance.

    Accepts ``c`` comment lines, a single ``p cnf <n> <m>`` header, and clauses
    as whitespace-separated signed integers terminated by ``0`` (clauses may
    span lines).  A line starting with ``%`` ends the input, as in the SATLIB
    ``uf*`` files.  Clause order is preserved.  All structural errors report
    the offending line number via :class:`DimacsError`.
    """
    num_vars: Optional[int] = None
    declared_clauses = 0
    clauses: list[Clause] = []
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
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f"malformed header {stripped!r}", line_no)
            try:
                num_vars, declared_clauses = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise DimacsError(f"malformed header {stripped!r}", line_no) from exc
            if num_vars < 1 or declared_clauses < 1:
                raise DimacsError("header counts must be positive", line_no)
            continue
        if num_vars is None:
            raise DimacsError("clause data before 'p cnf' header", line_no)
        for token in stripped.split():
            try:
                value = int(token)
            except ValueError as exc:
                raise DimacsError(f"non-integer token {token!r}", line_no) from exc
            if value == 0:
                clauses.append(_clause_from_ints(pending, num_vars, line_no))
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
    return Cnf(num_vars, tuple(clauses))


def emit_dimacs(cnf: Cnf) -> str:
    """Render a Cnf as DIMACS text, one ``0``-terminated clause per line."""
    lines = [f"p cnf {cnf.num_vars} {cnf.num_clauses}"]
    for clause in cnf.clauses:
        lines.append(" ".join(str(i) for i in clause.to_ints()) + " 0")
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
    return all(
        any(lit.holds(assignment.value(lit.variable)) for lit in clause.literals)
        for clause in cnf.clauses
    )


def brute_force_sat(cnf: Cnf) -> Optional[Assignment]:
    """Exhaustively search for the lowest binary-encoded satisfying assignment.

    Assignments are enumerated as integers with variable 1 at the least
    significant bit; the first satisfying one is returned, or None if all 2^n
    fail.  Guarded to n <= 24.
    """
    n = cnf.num_vars
    if n > MAX_BRUTE_FORCE_VARS:
        raise CnfError(f"brute force is limited to n <= {MAX_BRUTE_FORCE_VARS}, got {n}")
    var_masks = []
    neg_patterns = []
    for clause in cnf.clauses:
        mask = pattern = 0
        for lit in clause.literals:
            bit = 1 << (lit.variable - 1)
            mask |= bit
            if lit.negated:
                pattern |= bit
        var_masks.append(mask)
        neg_patterns.append(pattern)
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
        negated = rng.random(3) < 0.5
        clauses.append(
            Clause(tuple(Literal(int(v), bool(neg)) for v, neg in zip(variables, negated)))
        )
    return Cnf(n, tuple(clauses))
