"""The noisy walk's probabilities, pinned to the bit.

`tests/data/noisy_walk_hex.json` holds `float.hex` of every probability that
`run_noisy_models` returned, before the density channels got their cached
plans, for: the four Deutsch oracles and all eight promise pairs of both
pair circuits under table2; one stack of four table2 scales; and two models
with random rates (listed below as `float.hex`). Any rewrite of the density
walk must reproduce these bits exactly, not merely to a tolerance.

Re-record (only on purpose) with `python tests/test_noisy_walk_bits.py`.
"""

import json
from pathlib import Path

import pytest

from pairdeutsch.algorithms import DEUTSCH, ENTANGLED_PAIR, PRODUCT_PAIR
from pairdeutsch.noise import NoiseModel, run_noisy_models
from pairdeutsch.oracles import B1, B2, C1, C2, all_promise_pairs

FIXTURE = Path(__file__).resolve().parent / "data" / "noisy_walk_hex.json"
SCALES = (0.0, 0.5, 1.0, 2.0)
RANDOM_RATES = (  # two models with rates in [0.25, 2) x table2, as float.hex
    {"single": ("0x1.86c4c5a2a7f0fp-9", "0x1.5d30c4c1d1a2bp-10",
                "0x1.d2f1a9fbe76c9p-9"),
     "readout": ("0x1.0624dd2f1a9fcp-5", "0x1.47ae147ae147bp-4",
                 "0x1.cac083126e979p-8"),
     "pairs": {"0,1": "0x1.0e5604189374cp-5", "1,2": "0x1.9ba5e353f7cedp-6",
               "0,2": "0x1.2d0e560418937p-5"}},
    {"single": ("0x1.4fdf3b645a1cbp-10", "0x1.1eb851eb851ecp-9",
                "0x1.6872b020c49bap-9"),
     "readout": ("0x1.6872b020c49bap-6", "0x1.9db22d0e56042p-5",
                 "0x1.2f1a9fbe76c8bp-7"),
     "pairs": {"0,1": "0x1.5c28f5c28f5c3p-6", "1,2": "0x1.d4fdf3b645a1dp-5",
               "0,2": "0x1.0624dd2f1a9fcp-6"}},
)


def random_model(rates: dict) -> NoiseModel:
    return NoiseModel(
        tuple(float.fromhex(v) for v in rates["single"]),
        {tuple(int(q) for q in k.split(",")): float.fromhex(v)
         for k, v in rates["pairs"].items()},
        tuple(float.fromhex(v) for v in rates["readout"]),
    )


def walk_cases():
    """(name, algorithm, oracles, models) for every pinned walk."""
    table2 = NoiseModel.table2()
    cases = [(f"deutsch-{fn.name}", DEUTSCH, fn, [table2]) for fn in (C1, C2, B1, B2)]
    for algorithm in (ENTANGLED_PAIR, PRODUCT_PAIR):
        for pair in all_promise_pairs():
            cases.append((f"{algorithm}-{pair.f.name}{pair.g.name}", algorithm, pair,
                          [table2]))
    b1b2 = next(p for p in all_promise_pairs() if (p.f, p.g) == (B1, B2))
    cases.append(("sweep-product-B1B2", PRODUCT_PAIR, b1b2,
                  [table2.scaled(s) for s in SCALES]))
    for i, (algorithm, rates) in enumerate(zip((ENTANGLED_PAIR, PRODUCT_PAIR),
                                               RANDOM_RATES)):
        cases.append((f"random-{i}-{algorithm}-B1B2", algorithm, b1b2,
                      [random_model(rates)]))
    return cases


def walk_hex(algorithm, oracles, models) -> list[dict[str, str]]:
    return [{k: v.hex() for k, v in dist.items()}
            for dist in run_noisy_models(algorithm, oracles, models)]


CASES = walk_cases()
RECORDED = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}


def test_fixture_covers_every_case():
    assert sorted(RECORDED) == sorted(name for name, *_ in CASES)
    assert len(CASES) == 4 + 2 * 8 + 1 + 2


@pytest.mark.parametrize("name, algorithm, oracles, models", CASES,
                         ids=[name for name, *_ in CASES])
def test_noisy_walk_is_bit_identical(name, algorithm, oracles, models):
    assert walk_hex(algorithm, oracles, models) == RECORDED[name]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps({name: walk_hex(*case) for name, *case in CASES},
                                  indent=1, sort_keys=True) + "\n")
