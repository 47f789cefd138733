"""The public surface: rightq.__all__ is the package's contract."""

import rightq

REMOVED = (
    "cross_inversions",
    "sorted_rearrangement",
    "validate_word",
    "reducible_pairs",
    "strong_qmm_check",
    "print_biword",
    "reduce_biword",
    "normal_form",
)


def test_every_exported_name_resolves_and_no_removed_one_is_exported():
    assert len(set(rightq.__all__)) == len(rightq.__all__)
    for name in rightq.__all__:
        assert getattr(rightq, name) is not None, name
    for name in REMOVED:
        assert name not in rightq.__all__
        assert not hasattr(rightq, name), name
