from fractions import Fraction

import pytest

from ising_reram import (
    Assignment,
    Clause,
    Cnf,
    CnfError,
    DimacsError,
    Literal,
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


def test_tautology_and_repeat_rejected_at_construction():
    with pytest.raises(CnfError):
        Clause.of(1, -1, 2)
    with pytest.raises(CnfError):
        Clause.of(2, 2, 3)


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
    cnf = Cnf(25, (Clause.of(1, 2, 25),))
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
            assert len({lit.variable for lit in clause.literals}) == 3


def test_random_3sat_guards():
    with pytest.raises(CnfError):
        random_3sat(2, 2, 0)
    with pytest.raises(CnfError):
        random_3sat(5, 0, 0)


def test_literal_helpers():
    lit = Literal.from_int(-6)
    assert lit == Literal(6, True)
    assert lit.to_int() == -6
    assert lit.holds(False) and not lit.holds(True)
    with pytest.raises(CnfError):
        Literal(0)
