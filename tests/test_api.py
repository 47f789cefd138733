"""The public surface: rightq.__all__ is the package's contract."""

import dataclasses

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
    "random_strategy",
    "system_by_name",
)

# Members that no caller read, by the exported class that held them.
REMOVED_MEMBERS = (
    ("ReductionReport", "input"),
    ("ConfluenceReport", "r"),
    ("ConfluenceReport", "max_len"),
    ("ConfluenceReport", "seed"),
    ("Laurent", "__len__"),
    ("Biword", "sort_key"),
)


def test_every_exported_name_resolves_and_no_removed_one_is_exported():
    assert len(set(rightq.__all__)) == len(rightq.__all__)
    for name in rightq.__all__:
        assert getattr(rightq, name) is not None, name
    for name in REMOVED:
        assert name not in rightq.__all__
        assert not hasattr(rightq, name), name


def test_no_removed_member_is_back():
    for cls_name, member in REMOVED_MEMBERS:
        cls = getattr(rightq, cls_name)
        assert not hasattr(cls, member), (cls_name, member)
        if dataclasses.is_dataclass(cls):
            assert member not in {f.name for f in dataclasses.fields(cls)}
