import pytest

from treewalks.verify import verify_kc_monotone


class TestKcMonotone:
    def test_both_is_sorted_union_of_kinds(self):
        closed = verify_kc_monotone(7, 6, kind="closed")
        walks = verify_kc_monotone(7, 6, kind="all")
        both = verify_kc_monotone(7, 6, kind="both")
        union = sorted(closed.checks + walks.checks, key=lambda c: c.instance)
        assert both.checks == union
        assert both.scope == {"max_n": 7, "max_len": 6, "kind": "both"}
        assert both.ok

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            verify_kc_monotone(4, 2, kind="open")
