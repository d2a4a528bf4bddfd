"""One size guard behind one knob: every capped library function takes
cap: int | None, admits a size equal to its cap, refuses cap + 1 with
ResourceLimit before any work, and runs at any size with cap=None."""

from __future__ import annotations

import pytest

from dyckframes import ResourceLimit, catalan, count_motzkin
from dyckframes import counting, frames, paths, verify

CAP = 3


# Each entry runs the function at a size under a cap, and gives the
# result expected at that size.
CAPPED = {
    "enumerate_dyck": (
        lambda size, cap: sum(1 for _ in paths.enumerate_dyck(size, cap=cap)),
        catalan,
    ),
    "enumerate_motzkin": (
        lambda size, cap: sum(1 for _ in paths.enumerate_motzkin(size, cap=cap)),
        count_motzkin,
    ),
    "enumerate_frames": (
        lambda size, cap: sum(1 for _ in frames.enumerate_frames(size, cap=cap)),
        lambda size: 2 ** (size - 1),
    ),
    "run_verification": (
        lambda size, cap: verify.run_verification(size, cap=cap).ok,
        lambda size: True,
    ),
}


@pytest.mark.parametrize("name", CAPPED)
def test_one_knob_admits_the_cap_and_refuses_past_it_before_work(name, monkeypatch):
    run, expected = CAPPED[name]
    work = []  # the first step of every capped route: a walk or a foot table
    for module, attr in ((paths, "_paths"), (frames, "_frames"), (counting, "feet_table")):
        original = getattr(module, attr)
        monkeypatch.setattr(
            module, attr, lambda *a, _f=original, _n=attr, **kw: work.append(_n) or _f(*a, **kw)
        )
    assert run(CAP, CAP) == expected(CAP)
    assert work
    work.clear()
    with pytest.raises(ResourceLimit, match=f": [a-z_-]+ {CAP + 1} exceeds the cap of {CAP}$"):
        run(CAP + 1, CAP)
    assert work == []
    assert run(CAP + 1, None) == expected(CAP + 1)
