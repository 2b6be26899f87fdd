from fractions import Fraction

import numpy as np
import pytest

import ising_reram.cnf as cnf_module

from ising_reram import (
    Assignment,
    Clause,
    Cnf,
    CnfError,
    DimacsError,
    brute_force_sat,
    density,
    emit_dimacs,
    parse_dimacs,
    random_3sat,
    verify_assignment,
)
from conftest import unsat_eight_clause


def test_parse_three_x():
    cnf = parse_dimacs("p cnf 3 2\n1 2 3 0\n-1 -2 -3 0")
    assert cnf.num_vars == 3
    assert cnf.num_clauses == 2
    assert cnf.clauses[0].to_ints() == (1, 2, 3)
    assert cnf.clauses[1].to_ints() == (-1, -2, -3)


def test_parse_zero_x():
    cnf = parse_dimacs("p cnf 6 2\n1 2 3 0\n4 5 -6 0")
    assert cnf.num_vars == 6
    assert cnf.num_clauses == 2


def test_parse_comments_and_multiline_clause():
    text = "c a comment\np cnf 4 2\nc another\n1 2\n3 0\n-1 -2 4 0\n"
    cnf = parse_dimacs(text)
    assert cnf.clauses[0].to_ints() == (1, 2, 3)


def test_parse_stops_at_satlib_end_marker():
    cnf = parse_dimacs("p cnf 3 1\n1 -2 3 0\n%\n0\n")
    assert [c.to_ints() for c in cnf.clauses] == [(1, -2, 3)]


def test_parse_wrong_arity_reports_line():
    with pytest.raises(DimacsError) as err:
        parse_dimacs("p cnf 3 1\n1 2 0")
    assert "2 literals" in str(err.value)
    assert err.value.line == 2


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("p cnf x 2\n1 2 3 0", "header"),
        ("1 2 3 0", "before 'p cnf' header"),
        ("p cnf 3 2\n1 2 3 0", "declares 2 clauses"),
        ("p cnf 2 1\n1 2 3 0", "out of range"),
        ("p cnf 3 1\n1 2 3", "unterminated"),
        ("p cnf 3 1\n1 1 2 0", "repeats"),
        ("p cnf 3 1\n1 -1 2 0", "repeats"),
        ("p cnf 3 2\n1 2 3 0\n%\n0\n-1 -2 -3 0\n", "declares 2 clauses"),
        ("p cnf 3 1\n1 2\n%\n3 0\n", "unterminated"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(DimacsError) as err:
        parse_dimacs(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "text,message,line",
    [
        ("p cnf 3 1\np cnf 3 1\n1 2 3 0\n", "duplicate problem header", 2),
        ("c x\np cnf 3\n1 2 3 0\n", "malformed header 'p cnf 3'", 2),
        ("p cnf 3 one\n1 2 3 0\n", "malformed header 'p cnf 3 one'", 1),
        ("p cnf 0 1\n", "header counts must be positive", 1),
        ("c x\np cnf 3 0\n", "header counts must be positive", 2),
        ("p cnf 3 1\n1 2 x 0\n", "non-integer token 'x'", 2),
        ("c only\n\n", "missing 'p cnf' header", 2),
        ("", "missing 'p cnf' header", 1),
        ("p cnf 3 1\n1 2 3 0 0\n", "clause has 0 literals, expected 3", 2),
        # DIMACS integers are ASCII decimal: int() alone reads "1_0" as 10 and "١" as 1.
        ("p cnf 10 1\n1_0 2 3 0\n", "non-integer token '1_0'", 2),
        ("p cnf 3 1\nc x\n\u0661 2 3 0\n", "non-integer token '\u0661'", 3),
        ("p cnf 1_0 1\n1 2 3 0\n", "malformed header 'p cnf 1_0 1'", 1),
        ("p cnf 3 \u0661\n1 2 3 0\n", "malformed header 'p cnf 3 \u0661'", 1),
    ],
)
def test_parse_error_messages_and_lines(text, message, line):
    with pytest.raises(DimacsError) as err:
        parse_dimacs(text)
    assert str(err.value) == f"line {line}: {message}"
    assert err.value.line == line


# Texts on both sides of the one-pass reader's limits: comments, CRLF, tabs,
# signs, leading zeros, -0, int64 overflow, the % marker, no final newline.
AGREEMENT_TEXTS = [
    "c a comment\n\np cnf 4 2\nc another\n1 2 3 0\n\n-1 -2 4 0\n",
    "p cnf 4 2\r\n1 2 3 0\r\n-1 -2 4 0\r\n",
    "p\tcnf 4 2\n1\t2 3\t0\n\t-1 -2 4 0\n",
    "p cnf 4 2\n1 2\n3 0 -1\n-2 4 0\n",
    "p cnf 4 2\n+1 2 3 0\n-1 -2 +4 +0\n",
    "p cnf 04 02\n01 2 3 0\n-1 -02 4 00\n",
    "p cnf 4 1\n1 2 3 -0\n",
    "p cnf 4 1\n1 2 -0 3 0\n",
    "p cnf 3 1\n99999999999999999999 2 3 0\n",
    "p cnf 3 1\n-9223372036854775808 2 3 0\n",
    "p cnf 3 1\n-99999999999999999999 2 3 0\n",
    "p cnf 3 1\n1 -2 3 0\n%\n0\n",
    "p cnf 3 2\n1 -2 3 0\n%\n-1 2 3 0\n",
    "p cnf 3 2\n1 2 3 0\n-1 -2 -3 0",
    "p cnf 3 2\n1 2 3 0\n-1 -2 -3",
    "p\x0ccnf 3 1\n1 2 3 0\n",
    "p cnf 3 1\x0b1 2 3 0\n",
    "p cnf 3 1\n1 2 3 0\x0bp cnf 3 1\n",
    "p cnf 3 1\n1 1 3 0\n",
    "p cnf 3 2\n1 2 3 0\n",
    "p cnf 2 1\n1 2 3 0\n",
    "p cnf 0 1\n1 2 3 0\n",
    "p cnf 3 0\n",
    "\ufeffp cnf 3 1\n1 2 3 0\n",
]


def _outcome(parse, text):
    try:
        return parse(text)
    except DimacsError as exc:
        return (str(exc), exc.line)


@pytest.mark.parametrize("text", AGREEMENT_TEXTS)
def test_one_pass_and_line_parsers_agree(text):
    assert _outcome(parse_dimacs, text) == _outcome(cnf_module._parse_lines, text)


def test_well_formed_text_takes_the_one_pass_reader(monkeypatch):
    def refuse(text):
        raise AssertionError("line-by-line parser called")

    texts = [emit_dimacs(random_3sat(50, 200, 1)), *AGREEMENT_TEXTS[1:7]]
    expected = [parse_dimacs(text) for text in texts]
    monkeypatch.setattr(cnf_module, "_parse_lines", refuse)
    assert [parse_dimacs(text) for text in texts] == expected


@pytest.mark.parametrize(
    "num_vars,lits,message",
    [
        (0, [(1, 2, 3)], "num_vars must be >= 1, got 0"),
        (3, [], "a CNF needs at least one clause"),
        (3, [(1, 2)], "clauses must have exactly 3 literals, got shape (1, 2)"),
        (3, [(1, 2, 3), (1, 0, 2)], "literal 0 is reserved as the clause terminator"),
        (3, [(1, 2, 3), (1, -1, 2), (2, 2, 3)], "clause (1, -1, 2) repeats a variable"),
        (3, [(1, 2, 3), (-1, 2, -4)], "variable 4 out of range (num_vars=3)"),
        (3, [(1, 2, -2**63)], "variable 9223372036854775808 out of range (num_vars=3)"),
        (3, [(1.7, 2, -3.9)], "literals must be integers within int64, got dtype float64"),
        (3, [("1", "2", "3")], "literals must be integers within int64, got dtype <U1"),
        (3, [(1, 2, 10**20)], "literals must be integers within int64, got dtype object"),
        (3, [(True, False, True)], "literals must be integers within int64, got dtype bool"),
        (3, np.array([[1, 2, 2**64 - 1]], dtype=np.uint64),
         "literals must be integers within int64, got dtype uint64"),
        (3, [[1, 2, 3], [1, 2]], "clauses must have exactly 3 literals, got a ragged list"),
        (3.0, [(1, 2, 3)], "num_vars must be an integer, got 3.0"),
        ("3", [(1, 2, 3)], "num_vars must be an integer, got '3'"),
        (None, [(1, 2, 3)], "num_vars must be an integer, got None"),
    ],
)
def test_cnf_validation_messages(num_vars, lits, message):
    with pytest.raises(CnfError) as err:
        Cnf(num_vars, lits)
    assert str(err.value) == message


def test_cnf_is_a_read_only_value():
    a, b = random_3sat(6, 5, 3), Cnf(6, random_3sat(6, 5, 3).lits.tolist())
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != Cnf(6, a.lits[::-1]) and a != Cnf(7, a.lits)
    assert Cnf(6, a.lits.astype(np.int8)) == a
    assert Cnf(np.int64(6), a.lits) == a and emit_dimacs(Cnf(np.int64(6), a.lits)) == emit_dimacs(a)
    numpy_int = Cnf(np.int64(6), a.lits)
    assert type(numpy_int.num_vars) is int and hash(numpy_int) == hash(a)
    assert a.lits.shape == (5, 3) and a.lits.dtype == np.int64
    with pytest.raises(ValueError):
        a.lits[0, 0] = 4
    assert [c.to_ints() for c in a.clauses] == [tuple(row) for row in a.lits.tolist()]


def test_tautology_and_repeat_rejected_at_construction():
    with pytest.raises(CnfError):
        Cnf(3, [(1, -1, 2)])
    with pytest.raises(CnfError):
        Cnf(3, [(2, 2, 3)])


def test_round_trip(three_x):
    assert parse_dimacs(emit_dimacs(three_x)) == three_x
    for seed in range(20):
        cnf = random_3sat(6, 5, seed)
        assert parse_dimacs(emit_dimacs(cnf)) == cnf


def test_emit_format(three_x):
    assert emit_dimacs(three_x) == "p cnf 3 2\n1 2 3 0\n-1 -2 -3 0\n"


def test_density(zero_x, three_x):
    assert density(zero_x) == Fraction(1, 3)
    assert density(three_x) == Fraction(2, 3)
    assert density(random_3sat(5, 5, 0)) == 1


def test_density_of_random_instances_fixed_by_parameters():
    assert all(density(random_3sat(8, 10, s)) == Fraction(10, 8) for s in range(100))


def test_brute_force_three_x(three_x):
    model = brute_force_sat(three_x)
    # All-false fails clause 1; the first satisfying assignment in binary
    # order is x1=T, x2=F, x3=F.
    assert model == Assignment((True, False, False))
    assert verify_assignment(three_x, model)


def test_brute_force_unsat():
    assert brute_force_sat(unsat_eight_clause()) is None


def test_brute_force_zero_x_all_true_variant(zero_x):
    model = brute_force_sat(zero_x)
    assert model is not None
    assert verify_assignment(zero_x, Assignment((True,) * 6))


def test_brute_force_guard():
    cnf = Cnf(25, [(1, 2, 25)])
    with pytest.raises(CnfError):
        brute_force_sat(cnf)


def test_brute_force_matches_exhaustive_rescan():
    # SAT answer is none exactly when no assignment verifies.
    for seed in range(30):
        cnf = random_3sat(4 + seed % 5, 3 + seed % 8, seed)
        n = cnf.num_vars
        any_model = any(
            verify_assignment(cnf, Assignment.from_index(k, n)) for k in range(1 << n)
        )
        assert (brute_force_sat(cnf) is not None) == any_model


def test_verify_assignment(three_x):
    assert verify_assignment(three_x, Assignment((True, False, False)))
    assert not verify_assignment(three_x, Assignment((True, True, True)))
    with pytest.raises(CnfError):
        verify_assignment(three_x, Assignment((True,)))


def test_random_3sat_determinism_and_structure():
    assert random_3sat(6, 2, 1) == random_3sat(6, 2, 1)
    assert random_3sat(6, 2, 1) != random_3sat(6, 2, 2)
    for seed in range(50):
        cnf = random_3sat(6, 2, seed)
        for clause in cnf.clauses:
            assert len({abs(lit) for lit in clause}) == 3


def test_random_3sat_guards():
    with pytest.raises(CnfError):
        random_3sat(2, 2, 0)
    with pytest.raises(CnfError):
        random_3sat(5, 0, 0)


def test_clauses_are_the_rows_of_lits():
    cnf = random_3sat(9, 12, 4)
    rows = [tuple(row) for row in cnf.lits.tolist()]
    assert all(isinstance(clause, Clause) for clause in cnf.clauses)
    assert list(cnf.clauses) == rows
    # RandomSat.check compares these values with the benchmark's int triples.
    for clause, row in zip(cnf.clauses, rows):
        ints = clause.to_ints()
        assert type(ints) is tuple and ints == row
        assert all(type(lit) is int for lit in ints)
