import numpy as np
import pytest

from pairdeutsch.oracles import (
    B1,
    B2,
    C1,
    C2,
    BoolFn,
    PromisePair,
    all_promise_pairs,
    is_balanced,
    oracle_unitary,
    parse_oracle,
    same_at_zero,
)
from pairdeutsch.qstate import CNOT, X, apply_gate
from reference_impls import basis_state, oracle_gate_sequence

ALL_FNS = (C1, C2, B1, B2)


def test_named_truth_tables():
    assert (B1.f0, B1.f1) == (0, 1)
    assert (B2.f0, B2.f1) == (1, 0)
    assert (C1.f0, C1.f1) == (0, 0)
    assert (C2.f0, C2.f1) == (1, 1)


def test_boolfn_rejects_non_bits():
    with pytest.raises(ValueError):
        BoolFn(0, 2)
    with pytest.raises(ValueError):
        BoolFn(-1, 0)


def test_boolfn_stores_integer_bits_as_int_and_rejects_other_bits():
    for f0, f1 in ((True, False), (np.int64(1), np.uint8(0))):
        fn = BoolFn(f0, f1)
        assert (type(fn.f0), type(fn.f1)) == (int, int)
        assert (fn.table_text(), is_balanced(fn)) == ("0:1,1:0", 1)
        assert fn == BoolFn(1, 0) and hash(fn) == hash(BoolFn(1, 0))
    for bit in (1.0, 0.0, np.float64(1.0), "1", None):
        with pytest.raises(ValueError) as info:
            BoolFn(0, bit)
        assert str(info.value) == f"f1 must be 0 or 1, got {bit!r}"


def test_boolfn_call_takes_integer_bits_only():
    inputs = (0, 1, False, True, np.int64(1), np.uint8(0))
    assert [B1(x) for x in inputs] == [0, 1, 0, 1, 1, 0]
    assert [B2(x) for x in inputs] == [1, 0, 1, 0, 0, 1]
    for x in (1.0, 0.0, np.float64(1.0), "1", None, 2, -1):
        with pytest.raises(ValueError) as info:
            B1(x)
        assert str(info.value) == f"input must be 0 or 1, got {x!r}"


def test_is_balanced():
    assert is_balanced(B1) == 1
    assert is_balanced(B2) == 1
    assert is_balanced(C1) == 0
    assert is_balanced(C2) == 0


def test_same_at_zero():
    assert same_at_zero(PromisePair(B1, B1)) == 0
    assert same_at_zero(PromisePair(B1, B2)) == 1
    assert same_at_zero(PromisePair(C1, C2)) == 1
    assert same_at_zero(PromisePair(C2, C2)) == 0


def test_promise_pair_rejects_mismatch():
    with pytest.raises(ValueError, match="promise violated"):
        PromisePair(C1, B1)
    with pytest.raises(ValueError, match="promise violated"):
        PromisePair(B2, C2)


def test_oracle_matrices():
    assert np.array_equal(oracle_unitary(C1), np.eye(4))
    assert np.array_equal(oracle_unitary(B1), CNOT)
    assert np.array_equal(oracle_unitary(C2), np.kron(np.eye(2), X))


def test_b2_oracle_equals_x_after_cnot():
    assert np.allclose(oracle_unitary(B2), np.kron(np.eye(2), X) @ CNOT, atol=1e-12)


@pytest.mark.parametrize("fn", ALL_FNS, ids=lambda f: f.name)
def test_oracle_is_self_inverse(fn):
    u = oracle_unitary(fn)
    assert np.allclose(u @ u, np.eye(4), atol=1e-12)


@pytest.mark.parametrize("fn", ALL_FNS, ids=lambda f: f.name)
@pytest.mark.parametrize("x", (0, 1))
@pytest.mark.parametrize("y", (0, 1))
def test_oracle_reproduces_truth_table(fn, x, y):
    state = basis_state(2, (x << 1) | y)
    out = apply_gate(state, oracle_unitary(fn), (0, 1))
    expected_index = (x << 1) | (y ^ fn(x))
    assert out.amplitudes[expected_index] == 1.0


@pytest.mark.parametrize("fn", ALL_FNS, ids=lambda f: f.name)
def test_gate_sequence_composes_to_oracle(fn):
    composed = np.eye(4, dtype=complex)
    for _, gate, targets in oracle_gate_sequence(fn):
        full = gate if targets == (0, 1) else np.kron(np.eye(2), gate)
        composed = full @ composed
    assert np.allclose(composed, oracle_unitary(fn), atol=1e-12)


def test_all_promise_pairs_enumeration():
    pairs = all_promise_pairs()
    # independent oracle: brute-force filter over all 16 ordered pairs
    expected = sum(
        1
        for f in ALL_FNS
        for g in ALL_FNS
        if (f.f0 ^ f.f1) == (g.f0 ^ g.f1)
    )
    assert expected == 8
    assert len(pairs) == 8
    labels = {(p.f.name, p.g.name) for p in pairs}
    assert ("B1", "B2") in labels
    assert ("C1", "B1") not in labels
    assert all((f, g) not in labels for f in ("C1", "C2") for g in ("B1", "B2"))


def test_parse_named_oracles():
    for name, fn in (("B1", B1), ("B2", B2), ("C1", C1), ("C2", C2)):
        assert parse_oracle(name) is fn


def test_parse_truth_table():
    fn = parse_oracle("0:0,1:1")
    assert (fn.f0, fn.f1) == (B1.f0, B1.f1)
    fn = parse_oracle(" 1:0 , 0:1 ")  # order-insensitive, whitespace tolerated
    assert (fn.f0, fn.f1) == (1, 0)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("0:2,1:0", '"0:2"'),
        ("2:0,1:0", '"2:0"'),
        ("0:0", "both inputs"),
        ("0:0,0:1", "twice"),
        ("B3", "unknown oracle name"),
        ("0:0,1:1,1:0", "twice"),
        ("", "input:value"),
    ],
)
def test_parse_errors_identify_token(text, fragment):
    with pytest.raises(ValueError, match=None) as exc_info:
        parse_oracle(text)
    assert fragment in str(exc_info.value)


def test_table_text_round_trip():
    for fn in ALL_FNS:
        parsed = parse_oracle(fn.table_text())
        assert (parsed.f0, parsed.f1) == (fn.f0, fn.f1)
