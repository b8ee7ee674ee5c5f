import numpy as np
import pytest

from lfyukawa.fock import (
    FockState,
    ModeConfig,
    QubitLayout,
    charges,
    enumerate_sector,
    k_of,
    q_of,
    sector_indices,
)

from oracles import charge_reference


def test_qubit_count_reference_registers():
    assert QubitLayout(ModeConfig.uniform(3, 3)).total_qubits == 12
    assert QubitLayout(ModeConfig.uniform(1, 1)).total_qubits == 3
    assert QubitLayout(ModeConfig.uniform(5, 3)).total_qubits == 20
    assert QubitLayout(ModeConfig(2, 3, 2, (7, 1))).total_qubits == 2 + 3 + 3 + 1


def test_modal_cap_must_fill_qubits():
    with pytest.raises(ValueError):
        ModeConfig(1, 1, 1, (2,))
    with pytest.raises(ValueError):
        ModeConfig(1, 1, 1, (0,))
    with pytest.raises(ValueError):
        ModeConfig(1, 1, 0, ())


def test_encode_reference_bitstrings():
    layout = QubitLayout(ModeConfig.uniform(3, 3))
    f2 = FockState((0, 1, 0), (0, 0, 0), (0, 0, 0))
    assert layout.format_bits(layout.encode(f2)) == "010 000 00 00 00"
    vac = FockState.vacuum(layout.config)
    assert layout.format_bits(layout.encode(vac)) == "000 000 00 00 00"
    three = FockState((0, 0, 0), (0, 0, 0), (3, 0, 0))
    assert layout.format_bits(layout.encode(three)) == "000 000 11 00 00"


def test_boson_occupancy_big_endian():
    layout = QubitLayout(ModeConfig(1, 1, 1, (7,)))
    one = FockState((0,), (0,), (1,))
    assert layout.format_bits(layout.encode(one)) == "0 0 001"


def test_encode_rejects_over_cap():
    layout = QubitLayout(ModeConfig.uniform(3, 3))
    with pytest.raises(ValueError):
        layout.encode(FockState((0, 0, 0), (0, 0, 0), (4, 0, 0)))


def test_decode_reference_state():
    layout = QubitLayout(ModeConfig.uniform(3, 3))
    state = layout.decode(layout.parse_bits("100 000 01 00 00"))
    assert state == FockState((1, 0, 0), (0, 0, 0), (1, 0, 0))
    assert layout.decode(0) == FockState.vacuum(layout.config)


def test_encode_decode_roundtrip_exhaustive():
    layout = QubitLayout(ModeConfig.uniform(3, 3))
    for index in range(1 << layout.total_qubits):
        assert layout.encode(layout.decode(index)) == index


def test_charges_reference_values():
    f2 = FockState((0, 1, 0), (0, 0, 0), (0, 0, 0))
    assert k_of(f2) == 2 and q_of(f2) == 1
    assert k_of(FockState.vacuum(ModeConfig.uniform(3, 3))) == 0
    f45 = FockState((0, 0, 0, 1, 1), (0,) * 5, (0,) * 5)
    assert k_of(f45) == 9 and q_of(f45) == 2
    trio = FockState((0, 1, 0), (0, 1, 0), (0, 1, 0))
    assert q_of(trio) == 0 and k_of(trio) == 6


def test_charges_additive_over_disjoint_union():
    a = FockState((1, 0, 0), (0, 0, 0), (0, 2, 0))
    b = FockState((0, 0, 1), (0, 1, 0), (1, 0, 0))
    union = FockState((1, 0, 1), (0, 1, 0), (1, 2, 0))
    assert k_of(union) == k_of(a) + k_of(b)
    assert q_of(union) == q_of(a) + q_of(b)


def test_sector_k2_q1_is_the_two_level_space():
    config = ModeConfig.uniform(3, 3)
    layout = QubitLayout(config)
    states = enumerate_sector(config, 2, 1)
    bits = [layout.format_bits(layout.encode(s)) for s in states]
    assert bits == ["010 000 00 00 00", "100 000 01 00 00"]


def test_sector_vacuum_only_at_origin():
    config = ModeConfig.uniform(4, 3)
    assert enumerate_sector(config, 0, 0) == [FockState.vacuum(config)]
    assert enumerate_sector(config, 0, 1) == []
    empty = sector_indices(config, 0, 1)
    assert empty.dtype == np.int64 and empty.shape == (0,)
    with pytest.raises(ValueError, match="non-negative"):
        sector_indices(config, -1, 0)


SCAN_CONFIGS = [
    ModeConfig.uniform(3, 3),
    ModeConfig(2, 2, 2, (3, 1)),
    ModeConfig.uniform(2, 7),
    ModeConfig(3, 1, 2, (1, 3)),
]


@pytest.mark.parametrize("config", SCAN_CONFIGS)
def test_charges_match_decoded_occupancies(config):
    layout = QubitLayout(config)
    k_ref, q_ref = charge_reference(layout)
    k_arr, q_arr = charges(layout, np.arange(1 << layout.total_qubits))
    assert k_arr.tolist() == k_ref.tolist() and q_arr.tolist() == q_ref.tolist()
    # any subset of indices, in any order, reads the same values
    picks = np.random.default_rng(0).permutation(1 << layout.total_qubits)[:50]
    k_sub, q_sub = charges(layout, picks)
    assert k_sub.tolist() == k_ref[picks].tolist() and q_sub.tolist() == q_ref[picks].tolist()


@pytest.mark.parametrize("config", SCAN_CONFIGS)
def test_sector_enumeration_matches_full_scan(config):
    layout = QubitLayout(config)
    k_arr, q_arr = charges(layout, np.arange(1 << layout.total_qubits))
    seen = 0
    for K in range(config.max_k + 1):
        for Q in range(-config.n_antifermion_modes, config.n_fermion_modes + 1):
            indices = sector_indices(config, K, Q)
            assert indices.dtype == np.int64
            assert indices.tolist() == np.flatnonzero((k_arr == K) & (q_arr == Q)).tolist()
            # enumerate_sector is the decoding of the same sorted basis
            assert enumerate_sector(config, K, Q) == [layout.decode(i) for i in indices.tolist()]
            seen += len(indices)
    assert seen == 1 << layout.total_qubits  # sectors partition the space


def test_sector_k9_q2_matches_scan_on_pp_register():
    config = ModeConfig.uniform(5, 3)
    layout = QubitLayout(config)
    k_arr, q_arr = charges(layout, np.arange(1 << layout.total_qubits))
    expect = np.flatnonzero((k_arr == 9) & (q_arr == 2))
    indices = sector_indices(config, 9, 2)
    assert indices.tolist() == expect.tolist() and len(indices) == 42
    assert [layout.encode(s) for s in enumerate_sector(config, 9, 2)] == expect.tolist()


def test_parse_bits_rejects_wrong_length():
    layout = QubitLayout(ModeConfig.uniform(3, 3))
    with pytest.raises(ValueError):
        layout.parse_bits("010 000")
