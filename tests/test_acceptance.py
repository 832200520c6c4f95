"""End-to-end checks with pinned expectations and time budgets.

Each test drives one check from coxabs.verify, asserts it passed, and
enforces the runtime bound it is documented to meet.  Failure output
includes the per-item lines from the check so a regression points at
the exact group and involution that broke.

Each check's name and lines are pinned in tests/data/verify_golden.json.
To record the file again from the current code, run

    PYTHONPATH=src python tests/test_acceptance.py
"""

import json
import time
from pathlib import Path

import pytest

from coxabs.absorder import is_lattice_structural
from coxabs.cli import main
from coxabs.element import longest_element
from coxabs.rootsystem import RootSystem
from coxabs.verify import (
    ALL_CHECKS,
    FIELD_SEED,
    FIELD_TRIALS,
    check_classification_sweep,
    check_dyer_agreement,
    check_e7_e8_witnesses,
    check_factor_product_law,
    check_field_kernel,
    check_hurwitz_b2,
    check_interval_oracle,
    check_lattice_negatives,
    check_lattice_positives,
    check_order_laws,
    run_all,
)

GOLDEN = Path(__file__).parent / "data" / "verify_golden.json"
# a missing file fails every assert_check
EXPECTED_LINES = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def assert_check(result, budget_seconds):
    detail = "\n".join(result.lines)
    assert result.passed, f"{result.name} failed:\n{detail}"
    assert result.elapsed <= budget_seconds, (
        f"{result.name} took {result.elapsed:.1f}s, budget {budget_seconds}s"
    )
    assert result.name in EXPECTED_LINES, f"{result.name!r} is not pinned"
    assert result.lines == EXPECTED_LINES[result.name]


def test_checks_are_registered_once_in_print_order():
    names = [name for name, _, _ in ALL_CHECKS]
    assert len(set(names)) == len(names)
    assert names == list(EXPECTED_LINES)


def test_lattice_holds_for_all_listed_positive_types():
    # A1, even dihedrals through I2(10), B3..B5, D4, H3: all three
    # tests true and in agreement, within one minute
    assert_check(check_lattice_positives(), 60)


def test_lattice_fails_for_d6_f4_h4_with_reproduced_witnesses():
    result = check_lattice_negatives()
    assert_check(result, 300)
    # the structural route alone answers F4 and H4 in seconds
    for name in ("F4", "H4"):
        start = time.perf_counter()
        ok, witness = is_lattice_structural(
            longest_element(RootSystem.named(name))
        )
        elapsed = time.perf_counter() - start
        assert not ok and witness is not None
        assert elapsed < 10, f"structural test on {name} took {elapsed:.1f}s"


@pytest.mark.parametrize("name", ["E7", "D8"])
def test_e7_d8_w0_get_three_equal_verdicts_from_the_cli(capsys, name):
    # 10 208 and 17 040 elements; about 2 s each cold on a 2-vCPU VM
    start = time.perf_counter()
    code = main(["lattice", name, "--w0"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("NOT A LATTICE")
    assert "brute=False structural=False classification=False agree=True" in out
    assert elapsed < 10, f"lattice {name} --w0 took {elapsed:.1f}s"


def test_classify_e7_columns_agree(capsys):
    start = time.perf_counter()
    assert main(["classify", "E7"]) == 0
    elapsed = time.perf_counter() - start
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows and all(row[-3] == row[-2] == row[-1] for row in rows)
    assert rows[-1][-3:] == ["False"] * 3  # E7 w0
    assert elapsed < 10, f"classify E7 took {elapsed:.1f}s"


def test_e7_e8_witness_pairs_found_at_root_level():
    assert_check(check_e7_e8_witnesses(), 10)


def test_every_involution_gets_equal_verdicts_from_all_three_routes():
    # exhaustive over A1..A5, B2..B5, D4..D6, F4, H3, H4 and E6
    assert_check(check_classification_sweep(deep=True), 1800)


def test_deletion_oracle_matches_fixed_space_rank():
    # all of A3, B3, H3; all elements of length at most 10 in A4, B4,
    # D4, F4; equality is exact in every single case
    assert_check(check_dyer_agreement(), 300)


def test_order_structure_laws_hold_without_exception():
    # closure rank, reflection membership, commutation criterion,
    # direct-sum splitting, the three-way equivalence, the closure map
    # bijection, and pairwise commuting minimal words, on every small
    # group and all of H4
    assert_check(check_order_laws(deep=True), 600)


def test_interval_equals_cayley_oracle_everywhere():
    # identical element sets and identical cover sets, every involution
    # of the small groups plus the longest element of H4
    assert_check(check_interval_oracle(deep=True), 600)


def test_w0_b2_has_four_expressions_in_two_orbits():
    assert_check(check_hurwitz_b2(), 10)


def test_interval_sizes_multiply_over_closure_components():
    assert_check(check_factor_product_law(deep=True), 1800)


def test_field_kernel_randomized_axioms():
    result = check_field_kernel(trials=FIELD_TRIALS, seed=FIELD_SEED)
    assert_check(result, 60)
    assert f"{FIELD_TRIALS} trials, 0 failures" in result.lines[0]


if __name__ == "__main__":
    # deep, with the default field trials and seed: the calls above
    pinned = {r.name: r.lines for r in run_all(deep=True)}
    GOLDEN.write_text(json.dumps(pinned, indent=1) + "\n")
