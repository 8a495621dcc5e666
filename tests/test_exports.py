import pytest

import pairdeutsch
from pairdeutsch import entanglement, noise, oracles


def test_every_exported_name_resolves():
    missing = [name for name in pairdeutsch.__all__ if not hasattr(pairdeutsch, name)]
    assert missing == []
    assert len(set(pairdeutsch.__all__)) == len(pairdeutsch.__all__)


def test_module_tables_that_other_code_reads_are_read_only():
    # each write puts back the value it finds, so a table that takes it is unharmed
    with pytest.raises(TypeError):
        oracles.NAMED_FUNCTIONS["B1"] = oracles.B1
    with pytest.raises(TypeError):
        noise.TABLE2_TWO_QUBIT[(0, 1)] = noise.TABLE2_TWO_QUBIT[(0, 1)]
    for table in (entanglement._FIXED_AMPLITUDES, entanglement._FREE_COLUMNS,
                  entanglement._FLIPS):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = table[0]
