"""The pure walk's step states and probabilities, pinned to the bit.

`tests/data/pure_walk_hex.json` holds `float.hex` of the real and imaginary
part of every amplitude of every recorded step state, and of every final
probability, that `algorithms.run` returned for the four Deutsch oracles and
all eight promise pairs of both pair circuits, before the walk learned to
carry a stack of oracle choices. A single run and a stacked walk over any
selection of oracles, in any order, must reproduce these bits exactly.

Re-record (only on purpose) with `python tests/test_pure_walk_bits.py`.
"""

import json
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairdeutsch import algorithms
from pairdeutsch.algorithms import DEUTSCH, ENTANGLED_PAIR, PRODUCT_PAIR
from pairdeutsch.oracles import NAMED_FUNCTIONS, all_promise_pairs

FIXTURE = Path(__file__).resolve().parent / "data" / "pure_walk_hex.json"


def walk_cases():
    """(name, algorithm, oracles) for every pinned circuit."""
    cases = [(f"{DEUTSCH}-{name}", DEUTSCH, fn) for name, fn in NAMED_FUNCTIONS.items()]
    for algorithm in (ENTANGLED_PAIR, PRODUCT_PAIR):
        for pair in all_promise_pairs():
            cases.append((f"{algorithm}-{pair.f.name}{pair.g.name}", algorithm, pair))
    return cases


def record_hex(record) -> dict:
    return {
        "steps": [[label, [[a.real.hex(), a.imag.hex()]
                           for a in state.amplitudes.tolist()]]
                  for label, state in record.step_states],
        "final": {k: v.hex() for k, v in record.final_distribution.items()},
    }


CASES = walk_cases()
BY_ALGORITHM = {alg: [(name, oracles) for name, a, oracles in CASES if a == alg]
                for alg in (DEUTSCH, ENTANGLED_PAIR, PRODUCT_PAIR)}
RECORDED = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}


def test_fixture_covers_every_case():
    assert sorted(RECORDED) == sorted(name for name, *_ in CASES)
    assert len(CASES) == 4 + 2 * 8


@pytest.mark.parametrize("name, algorithm, oracles", CASES,
                         ids=[name for name, *_ in CASES])
def test_single_run_is_bit_identical(name, algorithm, oracles):
    assert record_hex(algorithms.run(algorithm, oracles)) == RECORDED[name]


@pytest.mark.parametrize("algorithm", sorted(BY_ALGORITHM))
def test_stacked_walk_in_case_order_is_bit_identical(algorithm):
    names, oracles = zip(*BY_ALGORITHM[algorithm])
    records = algorithms.run_many(algorithm, list(oracles))
    assert [record_hex(r) for r in records] == [RECORDED[n] for n in names]


@pytest.mark.parametrize("algorithm", sorted(BY_ALGORITHM))
def test_every_two_member_walk_is_bit_identical(algorithm):
    wrong = []
    for (a, oracles_a), (b, oracles_b) in product(BY_ALGORITHM[algorithm], repeat=2):
        records = algorithms.run_many(algorithm, [oracles_a, oracles_b])
        if [record_hex(r) for r in records] != [RECORDED[a], RECORDED[b]]:
            wrong.append((a, b))
    assert wrong == []


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_stacked_walk_in_any_order_is_bit_identical(data):
    algorithm = data.draw(st.sampled_from(sorted(BY_ALGORITHM)))
    chosen = data.draw(st.lists(st.sampled_from(BY_ALGORITHM[algorithm]),
                                min_size=1, max_size=10))
    records = algorithms.run_many(algorithm, [oracles for _, oracles in chosen])
    assert [record_hex(r) for r in records] == [RECORDED[n] for n, _ in chosen]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(
        {name: record_hex(algorithms.run(algorithm, oracles))
         for name, algorithm, oracles in CASES},
        indent=1, sort_keys=True) + "\n")
