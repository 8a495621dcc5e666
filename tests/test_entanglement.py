import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairdeutsch.algorithms import run_deutsch, run_entangled_pair, run_product_pair
from pairdeutsch.entanglement import (
    FAMILIES,
    KET0_FAMILY,
    KET1_FAMILY,
    MINUS_FAMILY,
    PLUS_FAMILY,
    PRODUCT_TOL,
    QUANTITIES,
    audit_family_distinguishability,
    bloch_grid_params,
    cnot_product_condition,
    oracle_output_overlaps,
    random_product_params,
    schmidt_analyze,
    step_second_coefficients,
    trace_run_separability,
)
from pairdeutsch.oracles import (
    B1,
    B2,
    C1,
    C2,
    NAMED_FUNCTIONS,
    PromisePair,
    all_promise_pairs,
    oracle_unitary,
)
from pairdeutsch.qstate import StateVector, apply_gate, basis_state
from reference_impls import (
    bloch_grid_params_reference,
    cnot_product_condition_reference,
    decidable_quantities_reference,
    oracle_output_gram_reference,
    random_product_params_reference,
    random_state,
    random_unitary,
    schmidt_coefficients_reference,
    step_second_coefficients_reference,
    two_qubit_schmidt_reference,
)

SQ2 = 1 / np.sqrt(2)
OVERLAP_INDEX = {"C2": 0, "B1": 1, "B2": 2}  # columns of oracle_output_overlaps


def family_report(family, params):
    """The report of one family from the four-family audit of params."""
    return audit_family_distinguishability(params)[FAMILIES.index(family)]


def family_overlaps(family, params):
    """One family's (S, 3) block of the four-family overlaps of params."""
    return oracle_output_overlaps(params)[FAMILIES.index(family)]


def verdict_pairs(rows) -> list[tuple[bool, bool]]:
    """cnot_product_condition's two arrays as one (predicted, actual) per row."""
    predicted, actual = cnot_product_condition(rows)
    return list(zip(predicted.tolist(), actual.tolist()))


def bell_minus() -> StateVector:
    return StateVector(2, np.array([SQ2, 0, 0, -SQ2]))


def test_schmidt_bell_state():
    verdict = schmidt_analyze(bell_minus(), [0])
    assert verdict.schmidt_coefficients == pytest.approx((SQ2, SQ2), abs=1e-12)
    assert not verdict.is_product
    assert verdict.bipartition == ((0,), (1,))


def test_schmidt_product_state():
    plus = StateVector(1, np.array([SQ2, SQ2]))
    state = StateVector(2, np.kron(plus.amplitudes, basis_state(1, 0).amplitudes))
    verdict = schmidt_analyze(state, [0])
    assert verdict.schmidt_coefficients == pytest.approx((1.0, 0.0), abs=1e-12)
    assert verdict.is_product


def test_schmidt_ghz_two_vs_one():
    ghz = StateVector(3, np.array([SQ2, 0, 0, 0, 0, 0, 0, SQ2]))
    verdict = schmidt_analyze(ghz, [0, 1])
    assert verdict.schmidt_coefficients[:2] == pytest.approx((SQ2, SQ2), abs=1e-12)
    assert not verdict.is_product


def test_schmidt_rejects_trivial_bipartition():
    state = basis_state(2, 0)
    with pytest.raises(ValueError, match="proper subset"):
        schmidt_analyze(state, [])
    with pytest.raises(ValueError, match="proper subset"):
        schmidt_analyze(state, [0, 1])


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_schmidt_matches_reduced_density_eigenvalues(seed):
    rng = np.random.default_rng(seed)
    state = random_state(3, rng)
    left = sorted(rng.permutation(3)[: int(rng.integers(1, 3))])
    got = schmidt_analyze(state, left).schmidt_coefficients
    want = schmidt_coefficients_reference(state, left)
    assert np.allclose(got, want[: len(got)], atol=1e-9)
    assert np.sum(np.square(got)) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_schmidt_invariant_under_local_unitaries(seed):
    rng = np.random.default_rng(seed)
    state = random_state(3, rng)
    before = schmidt_analyze(state, [1]).schmidt_coefficients
    rotated = apply_gate(state, random_unitary(2, rng), [1])  # left side
    rotated = apply_gate(rotated, random_unitary(2, rng), [0])  # right side
    rotated = apply_gate(rotated, random_unitary(2, rng), [2])
    after = schmidt_analyze(rotated, [1]).schmidt_coefficients
    assert np.allclose(before, after, atol=1e-9)


def twenty_records() -> list:
    """The 8 entangled, 8 product and 4 Deutsch records one verify makes."""
    pairs = all_promise_pairs()
    return ([run_entangled_pair(p) for p in pairs] + [run_product_pair(p) for p in pairs]
            + [run_deutsch(fn) for fn in NAMED_FUNCTIONS.values()])


def test_step_second_coefficients_match_the_per_state_reference():
    records = twenty_records()
    assert len(records) == 20
    for record in records:
        got = step_second_coefficients([record])[0]
        want = step_second_coefficients_reference(record)
        assert got == want  # float ==: one batched Schmidt test, bit for bit
        assert all(type(second) is float for _, second in got)
        assert trace_run_separability(record) == [
            (label, second < PRODUCT_TOL) for label, second in want
        ]


def test_all_cuts_in_one_call_match_a_stacked_call_per_cut_by_hex():
    records = twenty_records()
    for group in [records[:16], records[16:], *([r] for r in records)]:
        states = [state for r in group for _, state in r.step_states]
        n = states[0].num_qubits
        stack = StateVector(n, np.stack([state.amplitudes for state in states]))
        per_cut = [schmidt_analyze(stack, [q]).schmidt_coefficients[:, 1]
                   for q in range(n)]
        want = [float(s).hex() for s in np.max(per_cut, axis=0)]
        got = [s.hex() for seconds in step_second_coefficients(group)
               for _, s in seconds]
        assert got == want


def test_many_record_form_matches_each_record_bit_for_bit(monkeypatch):
    pairs = all_promise_pairs()
    records = [run(p) for run in (run_entangled_pair, run_product_pair) for p in pairs]
    one_by_one = [step_second_coefficients([record])[0] for record in records]
    checks = []
    validate = StateVector.__post_init__
    monkeypatch.setattr(StateVector, "__post_init__",
                        lambda self: checks.append(len(self.amplitudes))
                        or validate(self))
    assert step_second_coefficients(records) == one_by_one  # float ==
    assert checks == []  # every step was checked when its record was made
    assert step_second_coefficients(reversed(records)) == one_by_one[::-1]
    assert step_second_coefficients([]) == []
    with pytest.raises(ValueError):  # a two-qubit record cannot join the stack
        step_second_coefficients([records[0], run_deutsch(C1)])


def test_step_second_coefficients_examples():
    entangled_init = run_entangled_pair(PromisePair(B1, B1)).step_states[0][1]
    steps = SimpleNamespace(step_states=(("010", basis_state(3, 2)),
                                         ("initialize", entangled_init)))
    got = step_second_coefficients([steps])[0]
    assert got == step_second_coefficients_reference(steps)
    assert got[0][1] < PRODUCT_TOL and np.isclose(got[1][1], SQ2)
    assert trace_run_separability(steps) == [("010", True), ("initialize", False)]
    one_qubit = SimpleNamespace(step_states=(("one", basis_state(1, 0)),))
    with pytest.raises(ValueError, match="proper subset"):
        step_second_coefficients([one_qubit])


def test_product_state_params_validation():
    nan = float("nan")
    for row, label in (
        ((1.0, 1.0, 1.0, 0.0), "alpha/beta"),
        ((1.0, 0.0, 0.5, 0.5), "gamma/delta"),
        ((nan, 0.0, 1.0, 0.0), "alpha/beta"),  # a NaN norm is not within 1e-10 of 1
        ((1.0, 0.0, nan, nan), "gamma/delta"),
    ):
        with pytest.raises(ValueError, match=f"{label} amplitudes not normalized"):
            cnot_product_condition([row])
        per_row = str(pytest.raises(ValueError, cnot_product_condition, [row]).value)
        if np.isnan(row).any():
            assert per_row.endswith("sum of squares nan")
        rows = np.array([(1.0, 0.0, 1.0, 0.0), row])  # the bad row second
        err = pytest.raises(ValueError, cnot_product_condition, rows)
        assert str(err.value) == per_row
        # every pair is checked, also the one a family fixes
        for audit in (oracle_output_overlaps, audit_family_distinguishability):
            assert str(pytest.raises(ValueError, audit, rows).value) == per_row


def test_rows_that_pass_the_row_check_pass_both_audits():
    # each pair's sum of squares may be ATOL/4 off 1, so that their product
    # state, which cnot_product_condition checks as a StateVector, is within
    # ATOL; a row off by more fails both audits with the pair's message
    for off, accepted in ((0.2e-10, True), (-0.2e-10, True),
                          (0.3e-10, False), (0.9e-10, False), (-0.9e-10, False)):
        s = np.sqrt(1 + off)
        for row in ([s, 0, s, 0], [s, 0, 1, 0], [1, 0, 0, s]):
            audits = (cnot_product_condition, oracle_output_overlaps,
                      audit_family_distinguishability)
            if accepted:
                for audit in audits:
                    audit([row])
                assert verdict_pairs([row]) == [(True, True)]
                continue
            label = "alpha/beta" if row[0] == s else "gamma/delta"
            message = f"{label} amplitudes not normalized: sum of squares {float(s)**2!r}"
            for audit in audits:
                assert str(pytest.raises(ValueError, audit, [row]).value) == message


def test_one_pass_overlaps_equal_the_per_family_loop():
    perms = [np.argmax(oracle_unitary(h), axis=1) for h in (C2, B1, B2)]
    factors = {KET0_FAMILY: ([1.0, 0.0], 0), KET1_FAMILY: ([0.0, 1.0], 0),
               PLUS_FAMILY: ([SQ2, SQ2], 1), MINUS_FAMILY: ([SQ2, -SQ2], 1)}
    for params in (bloch_grid_params(10), bloch_grid_params(51),
                   random_product_params(300, seed=5)):
        got = oracle_output_overlaps(params)
        for family, block in zip(FAMILIES, got):
            fixed, wire = factors[family]
            free = params[:, 2:] if wire == 0 else params[:, :2]
            fixed = np.array([fixed])
            ctrl, tgt = (fixed, free) if wire == 0 else (free, fixed)
            inputs = (ctrl[:, :, None] * tgt[:, None, :]).reshape(-1, 4)
            loop = np.abs(np.einsum("si,shi->sh", inputs.conj(), inputs[:, perms]))
            assert np.array_equal(block, loop), family


def test_oracle_output_overlaps_rejects_non_row_shapes():
    for shape in ((4,), (2, 3), (1, 8), (1, 2, 4)):
        with pytest.raises(ValueError, match="shape"):
            oracle_output_overlaps(np.zeros(shape))
        with pytest.raises(ValueError, match="shape"):  # no one-row variant
            cnot_product_condition(np.zeros(shape))


def test_cnot_condition_bell_creator():
    params = (SQ2, SQ2, 1.0, 0.0)
    assert verdict_pairs([params]) == [(False, False)]


def test_cnot_condition_plus_target():
    params = (SQ2, SQ2, SQ2, SQ2)
    assert verdict_pairs([params]) == [(True, True)]


def test_cnot_condition_basis_control():
    params = (1.0, 0.0, 0.6, 0.8)
    assert verdict_pairs([params]) == [(True, True)]


def test_cnot_condition_complex_phase_entangles():
    # gamma^2 - delta^2 uses complex squares: delta = i/sqrt2 gives 1, not 0
    params = (SQ2, SQ2, SQ2, 1j * SQ2)
    assert verdict_pairs([params]) == [(False, False)]


def test_cnot_condition_agrees_on_1000_random_samples():
    predicted, actual = cnot_product_condition(
        random_product_params(1000, seed=20240917)
    )
    assert np.flatnonzero(predicted != actual).tolist() == []


@pytest.mark.parametrize("seed", [0, 1, 7, 77, 20240917])
@pytest.mark.parametrize("count", [0, 1, 500])
def test_random_params_match_the_per_sample_loop(count, seed):
    got = random_product_params(count, seed)
    want = np.array(random_product_params_reference(count, seed))
    assert got.shape == want.reshape(-1, 4).shape == (count, 4)
    assert np.all(np.abs(got - want.reshape(-1, 4)) <= 1e-15)
    assert verdict_pairs(got) == verdict_pairs(want.reshape(-1, 4))


def test_cnot_condition_validates_two_states(monkeypatch):
    calls = []
    validate = StateVector.__post_init__

    def counting(self):
        calls.append(self.num_qubits)
        validate(self)

    monkeypatch.setattr(StateVector, "__post_init__", counting)
    for count in (1, 10, 1000):
        calls.clear()
        cnot_product_condition(random_product_params(count, seed=3))
        assert calls == [2, 2]  # the input product stack and the CNOT output


def test_cnot_condition_agrees_on_the_four_surviving_families():
    rng = np.random.default_rng(5)
    for family in FAMILIES:
        samples = random_product_params(25, seed=int(rng.integers(2**32)))
        predicted, actual = cnot_product_condition(
            [_family_params(family, params) for params in samples]
        )
        assert predicted.all() and actual.all(), family


@pytest.mark.parametrize(
    "rows",
    [
        *(random_product_params(5000, seed) for seed in (0, 1, 7, 20240917)),
        bloch_grid_params(51),
        [  # the four family representatives of the acceptance audit
            (1.0, 0.0, 0.6, 0.8j),
            (0.0, 1.0, 0.28, 0.96),
            (0.6, 0.8, SQ2, SQ2),
            (0.8, -0.6, SQ2, -SQ2),
        ],
        np.zeros((0, 4)),
    ],
    ids=["haar-0", "haar-1", "haar-7", "haar-20240917", "grid-51x52", "families", "empty"],
)
def test_cnot_condition_matches_the_per_row_reference(rows):
    predicted, actual = cnot_product_condition(rows)
    want = [cnot_product_condition_reference(row) for row in rows]
    assert predicted.tolist() == [p for p, _ in want]
    assert actual.tolist() == [a for _, a in want]
    for verdicts in (predicted, actual):
        assert verdicts.shape == (len(rows),) and verdicts.dtype == bool
        assert not verdicts.flags.writeable


def test_schmidt_analyze_on_a_stack_matches_each_member():
    rng = np.random.default_rng(12)
    members = [random_state(3, rng) for _ in range(6)] + [basis_state(3, 5)]
    stack = StateVector(3, np.stack([m.amplitudes for m in members]))
    for left in ([0], [1], [0, 2]):
        verdict = schmidt_analyze(stack, left)
        singles = [schmidt_analyze(m, left) for m in members]
        assert verdict.bipartition == singles[0].bipartition
        assert verdict.schmidt_coefficients.tolist() == [
            list(v.schmidt_coefficients) for v in singles
        ]
        assert verdict.is_product.tolist() == [v.is_product for v in singles]
        assert not verdict.schmidt_coefficients.flags.writeable
        assert not verdict.is_product.flags.writeable


def test_schmidt_analyze_of_one_state_is_a_read_only_stack_row():
    rng = np.random.default_rng(13)
    for state, left in ((bell_minus(), [0]), (random_state(3, rng), [1]),
                        (basis_state(3, 5), [0, 2])):
        single = schmidt_analyze(state, left)
        row = schmidt_analyze(StateVector(state.num_qubits, state.amplitudes[None]), left)
        assert single.schmidt_coefficients.shape == row.schmidt_coefficients.shape[1:]
        assert np.array_equal(single.schmidt_coefficients, row.schmidt_coefficients[0])
        assert single.is_product.shape == () and single.is_product.dtype == bool
        assert single.is_product == row.is_product[0]
        for field in (single.schmidt_coefficients, single.is_product):
            assert not field.flags.writeable


def _two_qubit_states(rng) -> tuple[list[StateVector], list[float | None]]:
    """Bell states (equal coefficients, so the closed form's root is 0), basis,
    product and Haar states, then states of known second coefficient near
    1e-9 behind random local unitaries: the states and those coefficients."""
    states = [bell_minus(), StateVector(2, np.array([SQ2, 0, 0, SQ2]))]
    states += [basis_state(2, k) for k in range(4)]
    states += [StateVector(2, np.kron(random_state(1, rng).amplitudes,
                                      random_state(1, rng).amplitudes))
               for _ in range(30)]
    states += [random_state(2, rng) for _ in range(60)]
    seconds = [None] * len(states)
    for second in 1e-9 * np.geomspace(0.1, 10, 30):
        state = StateVector(2, np.array([np.sqrt(1 - second**2), 0, 0, second]))
        for q in (0, 1):
            state = apply_gate(state, random_unitary(2, rng), [q])
        states.append(state)
        seconds.append(second)
    return states, seconds


def test_two_qubit_closed_form_matches_the_references():
    states, seconds = _two_qubit_states(np.random.default_rng(31))
    stack = StateVector(2, np.stack([s.amplitudes for s in states]))
    for left in ([0], [1]):
        verdict = schmidt_analyze(stack, left)
        assert verdict.schmidt_coefficients.shape == (len(states), 2)
        for state, second, row in zip(states, seconds, verdict.schmidt_coefficients):
            single = schmidt_analyze(state, left).schmidt_coefficients
            assert np.array_equal(single, row)  # one state takes its row's arithmetic
            want = two_qubit_schmidt_reference(state)
            assert np.max(np.abs(row - want)) <= 1e-12
            if second is not None:  # the reference is as accurate near 0
                assert abs(want[1] - second) <= 1e-12
            svd = np.linalg.svd(state.amplitudes.reshape(2, 2), compute_uv=False)
            assert np.max(np.abs(row - svd)) <= 1e-12
            if second is not None:
                assert abs(row[1] - second) <= 1e-12
        assert verdict.is_product.tolist() == [
            row[1] < PRODUCT_TOL for row in verdict.schmidt_coefficients
        ]


def _family_params(family: str, params) -> tuple:
    """Constrain a row to the family shape (same projection the audit uses)."""
    alpha, beta, gamma, delta = params
    if family == KET0_FAMILY:
        return (1.0, 0.0, gamma, delta)
    if family == KET1_FAMILY:
        return (0.0, 1.0, gamma, delta)
    if family == PLUS_FAMILY:
        return (alpha, beta, SQ2, SQ2)
    return (alpha, beta, SQ2, -SQ2)


def test_minus_family_decides_only_xor_at_equal_weights():
    params = np.array([(SQ2, SQ2, 1.0, 0.0)])
    report = family_report(MINUS_FAMILY, params)
    assert report.decidable == ("f0_xor_f1",)
    overlaps = family_overlaps(MINUS_FAMILY, params)[0]
    # C1 and C2 differ by C2; a constant and a balanced function by B1 or B2
    assert overlaps[OVERLAP_INDEX["C2"]] == pytest.approx(1.0, abs=1e-12)
    for h in ("B1", "B2"):
        assert overlaps[OVERLAP_INDEX[h]] == pytest.approx(0.0, abs=1e-12)


def test_plus_family_decides_nothing():
    params = np.array([(0.6, 0.8, 1.0, 0.0)])
    report = family_report(PLUS_FAMILY, params)
    assert report.decidable == ()
    overlaps = family_overlaps(PLUS_FAMILY, params)[0]
    assert overlaps == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)  # every difference


def test_ket0_family_decides_only_f0_at_basis_target():
    params = np.array([(1.0, 0.0, 1.0, 0.0)])
    report = family_report(KET0_FAMILY, params)
    assert report.decidable == ("f0",)


def test_grid_audit_never_decides_two_quantities():
    grid = bloch_grid_params(51)
    assert grid.shape == (51 * 52, 4)
    expected_unions = {
        KET0_FAMILY: ("f0",),
        KET1_FAMILY: ("f1",),
        PLUS_FAMILY: (),
        MINUS_FAMILY: ("f0_xor_f1",),
    }
    reports = audit_family_distinguishability(grid)
    assert tuple(report.family for report in reports) == FAMILIES
    for family, report in zip(FAMILIES, reports):
        assert report.at_most_one_decidable
        assert report.samples.shape == (len(grid), len(QUANTITIES))
        assert np.all(report.samples.sum(axis=1) <= 1)
        assert report.decidable == expected_unions[family]


def test_family_audit_samples_are_read_only():
    reports = audit_family_distinguishability(bloch_grid_params(3))
    base = reports[0].samples.base
    assert base is not None and base.shape == (len(FAMILIES), 12, len(QUANTITIES))
    for report in reports:  # one (4, S, 3) array, one read-only view per family
        assert report.samples.base is base
        with pytest.raises(ValueError, match="read-only"):
            report.samples[0, 0] = not report.samples[0, 0]
    with pytest.raises(ValueError, match="read-only"):
        base[0, 0, 0] = not base[0, 0, 0]


@pytest.mark.parametrize("t", [2, 3, 9, 10, 11, 51, 203, 256])
def test_bloch_grid_matches_the_per_point_loop(t):
    got = bloch_grid_params(t)
    want = np.array(bloch_grid_params_reference(t, t + 1), dtype=np.complex128)
    assert got.shape == want.shape == (t * (t + 1), 4)
    # float-hex identity: every real and imaginary part, sign of zero included
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_only_odd_grids_put_theta_half_pi_on_the_grid():
    for t, hits in ((9, True), (10, False), (11, True)):
        grid = bloch_grid_params(t)
        report = family_report(MINUS_FAMILY, grid)
        assert report.decidable == (("f0_xor_f1",) if hits else ()), t


def test_overlaps_and_verdicts_match_the_loop_reference():
    params = np.concatenate(
        [bloch_grid_params(51), random_product_params(500, seed=77)]
    )
    all_overlaps = oracle_output_overlaps(params)
    reports = audit_family_distinguishability(params)
    assert all_overlaps.shape == (len(FAMILIES), len(params), 3)
    for family, overlaps, report in zip(FAMILIES, all_overlaps, reports):
        want = oracle_output_gram_reference(family, params)
        # C1 is the identity, so its Gram row holds the overlaps with C2, B1, B2
        assert np.max(np.abs(overlaps - want[:, 0, 1:])) <= 1e-12, family
        assert report.family == family
        assert [
            tuple(q for q, d in zip(QUANTITIES, row) if d) for row in report.samples
        ] == [
            decidable_quantities_reference(g, PRODUCT_TOL) for g in want
        ], family


def test_grid_audit_of_four_families_is_fast():
    grid = bloch_grid_params(51)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        audit_family_distinguishability(grid)
        best = min(best, time.perf_counter() - start)
    assert best < 0.5, f"four family audits took {best:.3f} s"


def test_trace_run_separability():
    entangled = trace_run_separability(run_entangled_pair(PromisePair(B1, B1)))
    assert any(not product for _, product in entangled)

    for pair in all_promise_pairs():
        product_trace = trace_run_separability(run_product_pair(pair))
        assert all(product for _, product in product_trace), pair.label()

    deutsch_trace = trace_run_separability(run_deutsch(C1))
    assert all(product for _, product in deutsch_trace)
