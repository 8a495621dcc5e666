import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pairdeutsch.noise
from pairdeutsch.algorithms import (
    ALGORITHMS,
    DEUTSCH,
    ENTANGLED_PAIR,
    PRODUCT_PAIR,
    circuit_ops,
    decode,
    run_entangled_pair,
)
from pairdeutsch.noise import (
    MAX_SHOTS,
    FidelityReport,
    NoiseModel,
    NotCovered,
    TABLE2_READOUT,
    TABLE2_SINGLE_QUBIT,
    TABLE2_TWO_QUBIT,
    apply_readout_confusion,
    bhattacharyya,
    depolarize,
    run_noisy,
    run_noisy_models,
    sample_shots,
    statistical_fidelity,
)
from pairdeutsch.oracles import (
    B1,
    B2,
    C1,
    C2,
    PromisePair,
    all_promise_pairs,
    is_balanced,
    same_at_zero,
)
from pairdeutsch.qstate import DensityMatrix
from reference_impls import (
    basis_state,
    depolarize_reference,
    noisy_walk_reference,
    random_density_matrix,
    readout_confusion_reference,
)


def test_table2_defaults():
    model = NoiseModel.table2()
    assert model.single_qubit_gate_error == (1.72e-3, 1.46e-3, 1.80e-3)
    assert model.readout_error == (4.20e-2, 7.00e-2, 1.40e-2)
    assert model.two_qubit_gate_error == {
        (0, 1): 3.17e-2,
        (1, 2): 2.87e-2,
        (0, 2): 2.67e-2,
    }


def test_noise_model_validation():
    with pytest.raises(ValueError, match="outside"):
        NoiseModel((0.5, -0.1, 0.0), dict(TABLE2_TWO_QUBIT), (0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="outside"):
        NoiseModel.table2().scaled(100.0)
    bad = (-1.0, float("nan"), float("inf"), float("-inf"), 10**400, True, np.True_,
           "2", 2j, None)
    for model in (NoiseModel.table2(), NoiseModel((0.0,), {}, (0.0,))):
        for factor in bad:
            with pytest.raises(ValueError) as info:
                model.scaled(factor)
            assert str(info.value) == (
                f"scale factor must be a finite nonnegative number, got {factor!r}")
    for factor in (2, np.float64(2.0), np.int64(2)):
        assert NoiseModel.table2().scaled(factor) == NoiseModel.table2().scaled(2.0)
    # scaled trusts the rates the constructor checked: it builds the model the
    # checked constructor builds from the same products
    table2 = NoiseModel.table2()
    for factor in (2, 0.5, np.float64(1.25), np.int64(3), Fraction(3, 2)):
        want = NoiseModel(
            tuple(r * factor for r in TABLE2_SINGLE_QUBIT),
            {pair: r * factor for pair, r in TABLE2_TWO_QUBIT.items()},
            tuple(r * factor for r in TABLE2_READOUT),
        )
        got = table2.scaled(factor)
        assert got == want and hash(got) == hash(want), factor
        assert got.to_config_text() == want.to_config_text()
        assert type(got.two_qubit_gate_error) is type(want.two_qubit_gate_error)
        rates = [*got.single_qubit_gate_error, *got.two_qubit_gate_error.values(),
                 *got.readout_error]
        assert all(type(r) is float for r in rates), factor
    # past 1 it names the first rate the checked constructor names: singles,
    # then pairs, then readouts
    for singles, pairs, readouts in (
        ((0.1, 0.6, 0.7), {(0, 1): 0.8}, (0.9, 0.1, 0.1)),
        ((0.1, 0.1, 0.1), {(1, 2): 0.3, (0, 1): 0.6}, (0.2, 0.9, 0.1)),
        ((0.1, 0.1, 0.1), {(0, 2): 0.1}, (0.2, 0.1, 0.55)),
    ):
        model = NoiseModel(singles, pairs, readouts)
        with pytest.raises(ValueError) as want:
            NoiseModel(tuple(r * 2 for r in singles),
                       {pair: r * 2 for pair, r in pairs.items()},
                       tuple(r * 2 for r in readouts))
        with pytest.raises(ValueError) as got:
            model.scaled(2)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("error rate 1.")
    with pytest.raises(ValueError,
                       match="^gate and readout rate lists must cover the same qubits$"):
        NoiseModel((0.1,), {}, ())


def test_noise_model_stores_every_rate_as_a_python_float():
    # numpy scalars would be written as "np.float64(...)", which no config reads
    model = NoiseModel.table2().scaled(np.float64(2.0))
    mixed = NoiseModel((np.float32(0.25), 1), {(1, 0): np.float64(0.5)}, (0, np.int64(1)))
    for m in (model, mixed):
        rates = [*m.single_qubit_gate_error, *m.two_qubit_gate_error.values(),
                 *m.readout_error]
        assert all(type(r) is float for r in rates)
        assert NoiseModel.from_config_text(m.to_config_text()) == m
    assert mixed == NoiseModel((0.25, 1.0), {(0, 1): 0.5}, (0.0, 1.0))
    for bad in (True, np.True_, "0.1", b"0.1"):
        for model_args in (((bad,), {}, (0.0,)), ((0.0,), {}, (bad,)),
                           ((0.0, 0.0), {(0, 1): bad}, (0.0, 0.0))):
            with pytest.raises(ValueError, match="^error rate .* is not a number$"):
                NoiseModel(*model_args)


def test_noise_model_rejects_a_pair_rate_in_both_directions():
    for rates in ({(0, 1): 0.1, (1, 0): 0.2}, {(1, 2): 0.1, (2, 1): 0.1}):
        with pytest.raises(ValueError, match="both directions"):
            NoiseModel((0.0, 0.0, 0.0), rates, (0.0, 0.0, 0.0))


@pytest.mark.parametrize("pair", [(0, 0), (2, 2), (0, 3), (7, 1), (-1, 0)],
                         ids=lambda pair: "q{}_q{}".format(*pair))
def test_noise_model_rejects_a_pair_no_gate_can_use(pair):
    with pytest.raises(ValueError) as info:
        NoiseModel((0.0, 0.0, 0.0), {(0, 1): 0.1, pair: 0.2}, (0.0, 0.0, 0.0))
    assert str(info.value) == f"pair {pair} must name two different qubits below 3"


@pytest.mark.parametrize("pair", [(True, 2), (0.0, 1.0), (0, np.True_), (1, 0.5), ("0", 1)],
                         ids=["bool", "floats", "np_bool", "float", "str"])
def test_noise_model_reads_pair_qubits_by_the_qubit_rule(pair):
    bad = next(q for q in pair if type(q) is not int)
    with pytest.raises(ValueError) as info:
        NoiseModel((0.01,) * 3, {pair: 0.02}, (0.01,) * 3)
    assert str(info.value) == f"qubit {bad!r} is not an integer index"


def test_noise_model_with_numpy_pair_keys_saves_and_loads_back(tmp_path):
    pairs = {(np.int64(1), np.int64(0)): 0.03, (np.int64(1), np.int64(2)): 0.02}
    model = NoiseModel((0.01,) * 3, pairs, (0.01,) * 3)
    assert all(type(q) is int for pair in model.two_qubit_gate_error for q in pair)
    assert model == NoiseModel((0.01,) * 3, {(0, 1): 0.03, (1, 2): 0.02}, (0.01,) * 3)
    model.save(tmp_path / "noise.cfg")
    loaded = NoiseModel.load(tmp_path / "noise.cfg")
    assert loaded == model and hash(loaded) == hash(model)


def test_noise_model_stores_each_pair_in_ascending_order():
    flipped = {(b, a): rate for (a, b), rate in reversed(TABLE2_TWO_QUBIT.items())}
    model = NoiseModel(TABLE2_SINGLE_QUBIT, flipped, TABLE2_READOUT)
    assert list(model.two_qubit_gate_error) == [(0, 1), (0, 2), (1, 2)]
    assert model == NoiseModel.table2() and hash(model) == hash(NoiseModel.table2())
    assert model.to_config_text() == NoiseModel.table2().to_config_text()
    text = NoiseModel.table2().to_config_text().replace("q1_q2", "q2_q1")
    assert "q1_q2" in NoiseModel.from_config_text(text).to_config_text()


def test_pair_rate_lookup():
    model = NoiseModel.table2()
    assert model.pair_gate_rate(0, 1) == 3.17e-2
    assert model.pair_gate_rate(1, 0) == 3.17e-2  # either order names the pair
    with pytest.raises(KeyError):
        NoiseModel((0.0,), {}, (0.0,)).pair_gate_rate(0, 1)


def test_gate_rates_follow_the_ops():
    reversed_pair = NoiseModel.from_config_text(
        NoiseModel.table2().to_config_text().replace(
            "two_qubit_gate_error_q1_q2 = 0.0287", "two_qubit_gate_error_q2_q1 = 0.5"
        )
    )
    for model, pairs in ((NoiseModel.table2(), TABLE2_TWO_QUBIT),
                         (reversed_pair, {**TABLE2_TWO_QUBIT, (1, 2): 0.5})):
        pair_rate = {frozenset(pair): rate for pair, rate in pairs.items()}
        for algorithm, entry in ALGORITHMS.items():
            targets = [on for _, on, _ in entry.gates]
            want = [TABLE2_SINGLE_QUBIT[on[0]] if len(on) == 1
                    else pair_rate[frozenset(on)] for on in targets]
            assert model.gate_rates(entry.num_qubits, targets) == want, algorithm
    # the qubit count is checked before any pair, whatever the targets
    entry = ALGORITHMS[ENTANGLED_PAIR]
    n, targets = entry.num_qubits, [on for _, on, _ in entry.gates]
    for model, message in (
        (NoiseModel(TABLE2_SINGLE_QUBIT[:2], {}, TABLE2_READOUT[:2]),
         "rates cover 2 qubit(s), the circuit uses 3"),
        (NoiseModel(TABLE2_SINGLE_QUBIT, {(1, 0): 0.1, (0, 2): 0.1}, TABLE2_READOUT),
         "no two-qubit error rate for pair (1, 2)"),
    ):
        with pytest.raises(NotCovered) as info:
            model.gate_rates(n, targets)
        assert str(info.value) == message


def test_config_round_trip_is_bit_exact(tmp_path):
    model = NoiseModel.table2()
    path = tmp_path / "noise.cfg"
    model.save(path)
    loaded = NoiseModel.load(path)
    assert loaded == model  # float equality, not approximate
    assert loaded.to_config_text() == model.to_config_text()


def test_noise_model_pair_rates_are_read_only():
    rates = dict(TABLE2_TWO_QUBIT)
    model = NoiseModel((0.0, 0.0, 0.0), rates, (0.0, 0.0, 0.0))
    with pytest.raises(TypeError):
        model.two_qubit_gate_error[(0, 1)] = 0.9
    rates[(0, 1)] = 0.9  # the caller's dict is copied, not shared
    assert model.pair_gate_rate(0, 1) == TABLE2_TWO_QUBIT[(0, 1)]


def test_noise_model_per_qubit_rates_are_tuples():
    single, readout = list(TABLE2_SINGLE_QUBIT), list(TABLE2_READOUT)
    model = NoiseModel(single, TABLE2_TWO_QUBIT, readout)
    for rates in (model.single_qubit_gate_error, model.readout_error):
        assert type(rates) is tuple
        with pytest.raises(TypeError):
            rates[0] = 1.5
    single[0] = readout[0] = 1.5  # the caller's lists are copied, not shared
    assert model.readout_error == tuple(TABLE2_READOUT)
    assert model == NoiseModel.table2() and hash(model) == hash(NoiseModel.table2())


def test_equal_noise_models_hash_equal(tmp_path):
    model = NoiseModel.table2()
    path = tmp_path / "noise.cfg"
    model.save(path)
    loaded = NoiseModel.load(path)
    reordered = NoiseModel(
        TABLE2_SINGLE_QUBIT, dict(reversed(TABLE2_TWO_QUBIT.items())), TABLE2_READOUT
    )
    for same in (NoiseModel.table2(), loaded, reordered):
        assert same == model
        assert hash(same) == hash(model)
    assert len({model, loaded, reordered, NoiseModel.table2().scaled(0.0)}) == 2


def test_table2_scaled_by_zero_has_every_rate_zero():
    model = NoiseModel.table2().scaled(0.0)
    rates = [*model.single_qubit_gate_error, *model.two_qubit_gate_error.values(),
             *model.readout_error]
    assert rates == [0.0] * 9


def test_config_parse_errors():
    with pytest.raises(ValueError, match="unknown key"):
        NoiseModel.from_config_text("coupling_error_q0 = 0.1\n")
    with pytest.raises(ValueError, match="not a number"):
        NoiseModel.from_config_text("single_qubit_gate_error_q0 = abc\n")
    with pytest.raises(ValueError, match="contiguously"):
        NoiseModel.from_config_text(
            "single_qubit_gate_error_q0 = 0.1\n"
            "single_qubit_gate_error_q2 = 0.1\n"
            "readout_error_q0 = 0.0\n"
        )
    with pytest.raises(ValueError, match="key = value"):
        NoiseModel.from_config_text("just some text\n")
    table2 = NoiseModel.table2().to_config_text()  # 9 lines
    for extra in (
        "single_qubit_gate_error_q1 = 0.5",
        "single_qubit_gate_error_q01 = 0.5",  # qubit 1 again
        "readout_error_q0 = 0.042",  # the same value is still a second rate
        "two_qubit_gate_error_q0_q1 = 0.5",
        "two_qubit_gate_error_q1_q0 = 0.5",  # the reversed pair
    ):
        key = extra.split()[0]
        with pytest.raises(ValueError, match=f'^line 10: "{key}" repeats a rate'):
            NoiseModel.from_config_text(table2 + extra + "\n")
    # the reversed key on its own is the pair's one rate
    reversed_only = table2.replace("two_qubit_gate_error_q0_q1", "two_qubit_gate_error_q1_q0")
    assert NoiseModel.from_config_text(reversed_only).pair_gate_rate(0, 1) == 3.17e-2


def test_config_ignores_comments_and_blanks():
    text = NoiseModel.table2().to_config_text()
    decorated = "# calibration snapshot\n\n" + text
    assert NoiseModel.from_config_text(decorated) == NoiseModel.table2()


def test_depolarize_identity_at_zero():
    rho = DensityMatrix.from_state(basis_state(2, 1))
    out = depolarize(rho, [0], 0.0)
    assert np.allclose(out.entries, rho.entries)


def test_depolarize_full_strength_single_qubit():
    rho = DensityMatrix.from_state(basis_state(1, 0))
    out = depolarize(rho, [0], 1.0)
    assert np.allclose(out.entries, np.eye(2) / 2)


def test_depolarize_half_strength():
    rho = DensityMatrix.from_state(basis_state(1, 0))
    out = depolarize(rho, [0], 0.5)
    assert np.allclose(out.entries, np.diag([0.75, 0.25]))


def test_depolarize_leaves_other_qubits_alone():
    rho = DensityMatrix.from_state(basis_state(2, 0))  # |00>
    out = depolarize(rho, [0], 1.0)
    expected = np.kron(np.eye(2) / 2, np.diag([1.0, 0.0]))
    assert np.allclose(out.entries, expected)


def test_depolarize_rejects_bad_probability():
    rho = DensityMatrix.from_state(basis_state(1, 0))
    with pytest.raises(ValueError, match="outside"):
        depolarize(rho, [0], 1.5)
    with pytest.raises(ValueError, match="outside"):
        depolarize(rho, [0], -0.1)


@pytest.mark.parametrize(
    "qubits, message",
    [
        ([0, 0], "repeated qubit in qubits=[0, 0]"),
        ([2, 0, 2], "repeated qubit in qubits=[2, 0, 2]"),
        ([0.7], "qubit 0.7 is not an integer index"),
        ([0, True], "qubit True is not an integer index"),
        ([np.True_], "qubit np.True_ is not an integer index"),
        ([np.float64(1.0)], "qubit np.float64(1.0) is not an integer index"),
        ([1, 3], "qubit 3 in qubits=[1, 3] is out of range for 3 qubit(s)"),
    ],
)
def test_depolarize_takes_each_qubit_once_as_an_index(qubits, message):
    rho = DensityMatrix(3, random_density_matrix(3, np.random.default_rng(5)))
    want = depolarize(rho, [0, 1], 0.1).entries  # caches the plan True would hit
    for _ in range(2):  # a failed plan is never cached
        with pytest.raises(ValueError) as info:
            depolarize(rho, qubits, 0.1)
        assert str(info.value) == message
    assert np.array_equal(depolarize(rho, np.array([0, 1]), 0.1).entries, want)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_depolarize_preserves_trace_and_positivity(seed):
    rng = np.random.default_rng(seed)
    rho = DensityMatrix(2, random_density_matrix(2, rng))
    p = float(rng.uniform(0, 1))
    targets = [0] if rng.integers(2) else [0, 1]
    out = depolarize(rho, targets, p)
    assert np.trace(out.entries).real == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.eigvalsh(out.entries).min() >= -1e-9


@pytest.mark.parametrize("seed", range(5))
def test_depolarize_matches_loop_reference_on_every_target_subset(seed):
    # every ordered target tuple on 1..4 qubits, all the qubits included, on
    # a stack of three matrices at a rate each
    rng = np.random.default_rng(seed)
    for n in range(1, 5):
        rho = DensityMatrix(n, [random_density_matrix(n, rng) for _ in range(3)])
        for k in range(1, n + 1):
            for targets in permutations(range(n), k):
                p = rng.uniform(0, 1, size=3)
                out = depolarize(rho, targets, p)
                for member, want, rate in zip(out.entries, rho.entries, p):
                    want = depolarize_reference(want, list(targets), float(rate))
                    assert np.abs(member - want).max() <= 1e-12, targets


@pytest.mark.parametrize("num_rates", [2, 4])
def test_readout_confusion_needs_one_rate_per_qubit(num_rates):
    probs = np.full(8, 1 / 8)
    with pytest.raises(ValueError, match="got 8"):
        apply_readout_confusion(probs, (0.1,) * num_rates)


def test_readout_confusion_pairs_a_stack_with_one_rate_row_per_vector():
    probs = np.full((4, 8), 1 / 8)
    for vectors, rates in ((probs, np.full((3, 3), 0.1)),  # 4 vectors, 3 rows
                           (probs[0], np.full((4, 3), 0.1))):  # one vector, 4 rows
        with pytest.raises(ValueError, match=f"a stack of {len(rates)} gates"):
            apply_readout_confusion(vectors, rates)
    assert apply_readout_confusion(probs[:0], np.zeros((0, 3))).shape == (0, 8)


def test_readout_confusion_rejects_rates_outside_the_unit_interval():
    for rate in (2.0, -0.1, float("nan")):  # as depolarize rejects them
        for probs, rates in ((np.array([1.0, 0.0]), [rate]),
                             (np.full((2, 4), 0.25), [[0.1, 0.1], [0.1, rate]])):
            with pytest.raises(ValueError) as info:
                apply_readout_confusion(probs, rates)
            assert str(info.value) == f"readout error rate {rate!r} outside [0, 1]"


def test_readout_confusion_rejects_a_stack_with_one_rate_row():
    with pytest.raises(ValueError, match="^a stack of 4 vectors needs one row of rates"):
        apply_readout_confusion(np.full((4, 8), 1 / 8), np.full(3, 0.1))


@pytest.mark.parametrize("seed", range(5))
def test_readout_confusion_matches_loop_reference_single_and_stacked(seed):
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(8), size=4)
    rates = rng.uniform(0.0, 0.5, size=(4, 3))
    stacked = apply_readout_confusion(probs, rates)
    assert stacked.shape == (4, 8)
    for p, e, out in zip(probs, rates, stacked):
        assert np.abs(out - readout_confusion_reference(p, e)).max() <= 1e-12
        assert np.array_equal(apply_readout_confusion(p, e), out)


def test_depolarize_takes_one_rate_per_member():
    rng = np.random.default_rng(8)
    stack = np.stack([random_density_matrix(3, rng) for _ in range(3)])
    rates = [0.0, 0.25, 1.0]
    out = depolarize(DensityMatrix(3, stack), [2, 0], rates)
    for member, p, got in zip(stack, rates, out.entries):
        want = depolarize(DensityMatrix(3, member), [2, 0], p).entries
        assert np.array_equal(got, want)
    assert np.array_equal(out.entries[0], stack[0])  # rate 0: unchanged
    with pytest.raises(ValueError, match="outside"):
        depolarize(DensityMatrix(3, stack), [0], [0.1, float("nan"), 0.2])


def test_depolarize_takes_one_rate_or_exactly_one_per_member():
    rng = np.random.default_rng(9)
    one = DensityMatrix(3, random_density_matrix(3, rng))
    stack = DensityMatrix(3, np.stack([random_density_matrix(3, rng) for _ in range(3)]))
    bad = ((one, [0.1]), (one, [[0.1]]), (stack, [[0.1]] * 3), (stack, [0.1]),
           (stack, [0.1, 0.2]), (stack, [0.1] * 4))
    for rho, rates in bad:
        with pytest.raises(ValueError) as exc:
            depolarize(rho, [0], rates)
        assert str(exc.value) == (
            f"depolarizing rates of shape {np.shape(rates)} do not fit density "
            f"matrices of shape {rho.entries.shape}: give one rate, or one per member")
    assert depolarize(one, [0], np.float64(0.1)).entries.shape == (8, 8)
    assert depolarize(stack, [0], 0.1).entries.shape == (3, 8, 8)
    assert depolarize(stack, [0], (0.1, 0.2, 0.3)).entries.shape == (3, 8, 8)


SWEEP_CIRCUITS = [
    *((alg, pair) for alg in (ENTANGLED_PAIR, PRODUCT_PAIR)
      for pair in all_promise_pairs()),
    *((DEUTSCH, fn) for fn in (C1, C2, B1, B2)),
]


@pytest.mark.parametrize(
    "algorithm, oracles",
    SWEEP_CIRCUITS,
    ids=[f"{alg}-{oracles.label()}" for alg, oracles in SWEEP_CIRCUITS],
)
def test_one_stacked_walk_equals_separate_walks(algorithm, oracles):
    models = [NoiseModel.table2().scaled(s) for s in (0, 0.5, 1, 2, 3, 5, 7, 10)]
    together = run_noisy_models(algorithm, oracles, models)
    assert len(together) == len(models)
    for model, dist in zip(models, together):
        alone = run_noisy(algorithm, oracles, model)
        assert dist.keys() == alone.keys()
        assert all(dist[k] == alone[k] for k in alone)  # bit for bit


def test_walk_without_gate_noise_reads_out_once_per_model():
    pairs = {p: 0.0 for p in TABLE2_TWO_QUBIT}
    models = [NoiseModel((0.0,) * 3, pairs, readout) for readout in
              [(0.0, 0.0, 0.0), (0.1, 0.2, 0.3), (0.5, 0.0, 0.25)]]
    pair = PromisePair(B1, B2)
    together = run_noisy_models(PRODUCT_PAIR, pair, models)
    assert together == [run_noisy(PRODUCT_PAIR, pair, m) for m in models]
    assert together[0] != together[1]


RATES = st.floats(0.0, 1.0)
NOISE_MODELS = st.builds(
    NoiseModel,
    st.tuples(RATES, RATES, RATES),
    st.fixed_dictionaries({pair: RATES for pair in TABLE2_TWO_QUBIT}),
    st.tuples(RATES, RATES, RATES),
)


@settings(max_examples=25, deadline=None)
@given(st.lists(NOISE_MODELS, min_size=1, max_size=3))
def test_noisy_walk_matches_the_pauli_transfer_reference(models):
    for algorithm, oracles in SWEEP_CIRCUITS:
        gates, n = circuit_ops(algorithm, oracles)
        targets = [on for _, on, _ in ALGORITHMS[algorithm].gates]
        for model, dist in zip(models, run_noisy_models(algorithm, oracles, models)):
            want = noisy_walk_reference(gates, targets, n, model)
            outcomes = [format(b, f"0{n}b") for b in range(2**n)]
            assert set(dist) <= set(outcomes)
            for outcome, p in zip(outcomes, want):
                assert abs(dist.get(outcome, 0.0) - p) <= 1e-12, (
                    algorithm, oracles.label(), model, outcome)


@pytest.mark.parametrize(
    "model, message",
    [
        (NoiseModel((1e-3,) * 3, {(0, 1): 0.03, (0, 2): 0.03}, (0.01,) * 3),
         r"no two-qubit error rate for pair \(1, 2\)"),
        (NoiseModel((1e-3,) * 2, {(0, 1): 0.03}, (0.01,) * 2),
         r"rates cover 2 qubit\(s\), the circuit uses 3"),
    ],
)
def test_walk_rejects_a_model_that_does_not_cover_the_circuit(model, message):
    pair = PromisePair(B1, B2)
    for models in ([model], [NoiseModel.table2(), model]):
        with pytest.raises(ValueError, match=message):
            run_noisy_models(ENTANGLED_PAIR, pair, models)
    with pytest.raises(ValueError, match=message):
        run_noisy(ENTANGLED_PAIR, pair, model)


def test_run_noisy_total_readout_scrambling_is_uniform():
    model = NoiseModel((0.0, 0.0, 0.0), {p: 0.0 for p in TABLE2_TWO_QUBIT},
                       (0.5, 0.5, 0.5))
    noisy = run_noisy(ENTANGLED_PAIR, PromisePair(B1, B1), model)
    assert noisy == pytest.approx({format(i, "03b"): 0.125 for i in range(8)},
                                  abs=1e-10)


def test_run_noisy_table2_band():
    noisy = run_noisy(ENTANGLED_PAIR, PromisePair(B1, B1), NoiseModel.table2())
    top2 = sorted(noisy, key=noisy.get, reverse=True)[:2]
    assert set(top2) == {"100", "111"}
    for outcome in top2:
        assert 0.35 < noisy[outcome] < 0.5


def test_run_noisy_argmax_decoding_stays_correct():
    model = NoiseModel.table2()
    for pair in all_promise_pairs():
        truth = (is_balanced(pair.f), same_at_zero(pair))
        for algorithm in (ENTANGLED_PAIR, PRODUCT_PAIR):
            dist = run_noisy(algorithm, pair, model)
            top = max(dist, key=dist.get)
            answer = decode(top)
            assert (answer.balanced, answer.different) == truth, (
                algorithm,
                pair.label(),
            )


def test_fidelity_degrades_monotonically_with_noise_scale():
    pair = PromisePair(B1, B1)
    ideal = run_entangled_pair(pair).final_distribution
    model = NoiseModel.table2()
    fidelities = [
        bhattacharyya(run_noisy(ENTANGLED_PAIR, pair, model.scaled(s)), ideal)
        for s in (0.0, 0.5, 1.0, 2.0)
    ]
    assert fidelities[0] == pytest.approx(1.0, abs=1e-10)
    for earlier, later in zip(fidelities, fidelities[1:]):
        assert later <= earlier + 1e-12


def test_sample_shots_point_mass():
    counts = sample_shots({"111": 1.0}, 100, seed=1)
    assert counts == {"111": 100}
    assert type(counts["111"]) is int


def test_sample_shots_binomial_bound():
    # 6-sigma band around 4096: sigma = sqrt(8192 * 0.25) = 45.25
    counts = sample_shots({"100": 0.5, "111": 0.5}, 8192, seed=42)
    sigma = np.sqrt(8192 * 0.25)
    for key in ("100", "111"):
        assert abs(counts[key] - 4096) <= 6 * sigma
    assert sum(counts.values()) == 8192


def test_sample_shots_is_reproducible():
    dist = {"100": 0.5, "111": 0.5}
    a = sample_shots(dist, 8192, seed=7)
    b = sample_shots(dist, 8192, seed=7)
    assert a == b
    assert json.dumps(a) == json.dumps(b)  # the same keys in the same order
    assert list(a) == sorted(a)
    c = sample_shots(dist, 8192, seed=8)
    assert c != a  # different seed, different draw (overwhelmingly)


def test_sample_shots_validation():
    with pytest.raises(ValueError, match="sums to"):
        sample_shots({"0": 0.7, "1": 0.7}, 10, seed=0)
    for shots in (0, -1, MAX_SHOTS + 1, 2**63):  # numpy overflows at 2**63
        with pytest.raises(ValueError) as info:
            sample_shots({"0": 1.0}, shots, seed=0)
        assert str(info.value) == f"shots must be in 1..{MAX_SHOTS}, got {shots}"
    # a shot count is an index other than a bool: numpy would draw 5 for 5.5
    for shots in (5.5, 5.0, "5", True, False):
        with pytest.raises(ValueError) as info:
            sample_shots({"0": 1.0}, shots, seed=0)
        assert str(info.value) == f"shots {shots!r} is not an integer index"
    assert sample_shots({"0": 1.0}, np.int64(5), seed=0) == {"0": 5}


def test_statistical_fidelity_checks_its_counts():
    fair = {"0": 0.5, "1": 0.5}
    total = f"not in 1..{MAX_SHOTS}"
    for counts, message in (
        ({}, f"counts total 0, {total}"),
        ({"0": 0, "1": 0}, f"counts total 0, {total}"),
        ({"0": 10**30}, f"counts total {10**30}, {total}"),  # numpy: lam too large
        ({"0": MAX_SHOTS, "1": 1}, f"counts total {MAX_SHOTS + 1}, {total}"),
        ({"0": -3, "1": 2}, "count -3 of '0' is not a nonnegative integer"),
        ({"0": 2.5, "1": 1.5}, "count 2.5 of '0' is not a nonnegative integer"),
        ({"0": 3.0}, "count 3.0 of '0' is not a nonnegative integer"),
        ({"0": True}, "count True of '0' is not a nonnegative integer"),
        ({"0": float("nan")}, "count nan of '0' is not a nonnegative integer"),
        ({"1": 2, "01": 5}, "count key '01' is not a 1-bit outcome"),
        ({"2": 1}, "count key '2' is not a 1-bit outcome"),
        ({0: 1}, "count key 0 is not a 1-bit outcome"),
    ):
        with pytest.raises(ValueError) as info:
            statistical_fidelity(counts, fair)
        assert str(info.value) == message
    # keys as wide as the reference's: a 1-bit count is no 3-bit outcome
    with pytest.raises(ValueError, match="count key '0' is not a 3-bit outcome"):
        statistical_fidelity({"0": 3}, {"000": 1.0})
    # and the reference's keys are outcomes of one width too, before any draw
    for p_th, message in (({"0": 0.5, "11": 0.5}, "p_th key '11' is not a 1-bit outcome"),
                          ({"0": 0.5, 1: 0.5}, "p_th key 1 is not a 1-bit outcome"),
                          ({7: 1.0}, "p_th key 7 is not an outcome bitstring")):
        with pytest.raises(ValueError) as info:
            statistical_fidelity({"0": 1}, p_th)
        assert str(info.value) == message
    with pytest.raises(ValueError, match="sums to"):  # the reference first
        statistical_fidelity({"0": -1}, {"0": 0.7, "1": 0.7})
    # numpy integers are counts, and give the same report as Python ints
    report = statistical_fidelity({"0": np.int64(3), "1": np.uint8(1)}, fair)
    assert report == statistical_fidelity({"0": 3, "1": 1}, fair)
    assert all(type(p) is float for p in report.p_exp.values())


def test_statistical_fidelity_checks_the_reference_before_its_draws():
    # a negative or NaN entry would reach the bootstrap's sqrt as a warning
    for p_th in ({"0": 1.5, "1": -0.5}, {"0": float("nan"), "1": 1.0}):
        with pytest.raises(ValueError, match="nonnegative entries"):
            statistical_fidelity({"0": 3, "1": 1}, p_th)
    with pytest.raises(ValueError, match="sums to"):
        statistical_fidelity({"0": 3, "1": 1}, {"0": 0.7, "1": 0.7})


def test_bhattacharyya_identical():
    p = {"100": 0.5, "111": 0.5}
    assert bhattacharyya(p, p) == pytest.approx(1.0, abs=1e-12)


def test_bhattacharyya_disjoint():
    assert bhattacharyya({"000": 1.0}, {"111": 1.0}) == 0.0


def test_bhattacharyya_half_overlap():
    got = bhattacharyya({"000": 0.5, "111": 0.5}, {"000": 1.0})
    assert got == pytest.approx(np.sqrt(0.5), abs=1e-12)


def test_bhattacharyya_rejects_non_distributions():
    fair = {"0": 0.5, "1": 0.5}
    for bad in ({"0": 4}, {"0": 0.5}, {"0": 1.5, "1": -0.5}, {},
                {"0": float("nan")}, {"0": float("nan"), "1": 1.0}):
        with pytest.raises(ValueError, match="sums to|nonnegative"):
            bhattacharyya(bad, fair)
        with pytest.raises(ValueError, match="sums to|nonnegative"):
            bhattacharyya(fair, bad)
    # within the 1e-9 tolerance sample_shots also uses
    assert bhattacharyya({"0": 1.0 + 5e-10}, {"0": 1.0}) == 1.0


def test_bhattacharyya_scores_only_outcomes_of_one_width():
    for p, q, message in (
        ({"0": 1.0}, {"000": 1.0}, "q key '000' is not a 1-bit outcome"),
        ({"000": 1.0}, {"0": 0.5, "1": 0.5}, "q key '0' is not a 3-bit outcome"),
        ({"0": 0.5, "11": 0.5}, {"0": 1.0}, "p key '11' is not a 1-bit outcome"),
        ({"02": 1.0}, {"00": 1.0}, "p key '02' is not a 2-bit outcome"),
        ({"": 1.0}, {"0": 1.0}, "p key '' is not an outcome bitstring"),
        ({0: 1.0}, {"0": 1.0}, "p key 0 is not an outcome bitstring"),
    ):
        with pytest.raises(ValueError) as info:
            bhattacharyya(p, q)
        assert str(info.value) == message
    assert bhattacharyya({"01": 1.0}, {"10": 1.0}) == 0.0  # disjoint, one width


BHATTACHARYYA_OF_TWO_RUNS = """
from pairdeutsch.algorithms import ENTANGLED_PAIR, PRODUCT_PAIR
from pairdeutsch.noise import NoiseModel, bhattacharyya, run_noisy
from pairdeutsch.oracles import B1, PromisePair
pair = PromisePair(B1, B1)
p = run_noisy(ENTANGLED_PAIR, pair, NoiseModel.table2())
q = run_noisy(PRODUCT_PAIR, pair, NoiseModel.table2().scaled(3))
print(bhattacharyya(p, q).hex())
"""


def test_bhattacharyya_does_not_depend_on_the_hash_seed():
    # eight shared outcomes: a sum in set order rounds differently per seed
    values = set()
    for seed in range(4):
        env = {**os.environ, "PYTHONHASHSEED": str(seed)}
        proc = subprocess.run([sys.executable, "-c", BHATTACHARYYA_OF_TWO_RUNS],
                              capture_output=True, text=True, env=env, check=True)
        values.add(proc.stdout.strip())
    assert len(values) == 1, values


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_bhattacharyya_symmetric_and_bounded(seed):
    rng = np.random.default_rng(seed)
    keys = [format(i, "03b") for i in range(8)]
    p = rng.dirichlet(np.ones(8))
    q = rng.dirichlet(np.ones(8))
    dp = dict(zip(keys, p))
    dq = dict(zip(keys, q))
    f = bhattacharyya(dp, dq)
    assert 0.0 <= f <= 1.0
    assert f == pytest.approx(bhattacharyya(dq, dp), abs=1e-12)
    # equality of distributions is the only way to reach 1
    if f > 1.0 - 1e-12:
        assert np.allclose(p, q, atol=1e-5)
    assert bhattacharyya(dp, dp) == pytest.approx(1.0, abs=1e-12)


def test_statistical_fidelity_exact_match():
    report = statistical_fidelity({"100": 50, "111": 50}, {"100": 0.5, "111": 0.5})
    assert report.fidelity == pytest.approx(1.0, abs=1e-12)
    assert report.p_exp == {"100": 0.5, "111": 0.5}


def test_statistical_fidelity_disjoint():
    report = statistical_fidelity({"000": 100}, {"111": 1.0})
    assert report.fidelity == 0.0


def test_statistical_fidelity_bootstrap_band_and_determinism():
    ideal = run_entangled_pair(PromisePair(B1, B1)).final_distribution
    counts = sample_shots(ideal, 8192, seed=11)
    a = statistical_fidelity(counts, ideal, seed=3)
    b = statistical_fidelity(counts, ideal, seed=3)
    assert a == b
    assert 0.0 < a.stderr < 0.02


def test_fidelity_report_computes_its_fidelity_from_its_distributions():
    p_exp, p_th = {"000": 0.25, "111": 0.75}, {"000": 0.5, "011": 0.2, "111": 0.3}
    report = FidelityReport(stderr=0.0, p_exp=p_exp, p_th=p_th)
    assert report.fidelity.hex() == bhattacharyya(p_exp, p_th).hex()
    with pytest.raises(TypeError):
        FidelityReport(fidelity=0.5, stderr=0.0, p_exp=p_exp, p_th=p_th)
    for bad in ({}, {"0": 0.5}, {"0": 1.5, "1": -0.5}):
        with pytest.raises(ValueError, match="sums to|nonnegative"):
            FidelityReport(stderr=0.0, p_exp=bad, p_th=p_th)
        with pytest.raises(ValueError, match="sums to|nonnegative"):
            FidelityReport(stderr=0.0, p_exp=p_exp, p_th=bad)
    with pytest.raises(ValueError, match="stderr must be nonnegative"):
        FidelityReport(stderr=-0.1, p_exp=p_exp, p_th=p_th)
    # the report keeps read-only copies, so its fidelity stays that of its own
    p_exp["000"], p_exp["111"] = 1.0, 0.0
    assert report.p_exp == {"000": 0.25, "111": 0.75}
    with pytest.raises(TypeError):
        report.p_th["000"] = 1.0
    assert report.fidelity == bhattacharyya(report.p_exp, report.p_th)


def test_statistical_fidelity_checks_its_inputs_once(monkeypatch):
    # its own checks cover the report's inputs, so the report is built
    # without bhattacharyya's second pass over them
    calls = []
    for name in ("bhattacharyya", "_checked_probabilities", "_outcome_width"):
        original = getattr(pairdeutsch.noise, name)

        def counting(*args, name=name, original=original):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(pairdeutsch.noise, name, counting)
    ideal = run_entangled_pair(PromisePair(B1, B1)).final_distribution
    counts = sample_shots(ideal, 512, seed=1)
    calls.clear()
    report = statistical_fidelity(counts, ideal, seed=2)
    assert calls == ["_checked_probabilities", "_outcome_width", "_outcome_width"]
    assert report.fidelity.hex() == bhattacharyya(report.p_exp, report.p_th).hex()
    assert report == FidelityReport(report.stderr, report.p_exp, report.p_th)
    with pytest.raises(TypeError):
        report.p_th["100"] = 1.0
