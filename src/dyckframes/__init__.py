"""Frame equivalence on Dyck paths with exact path counting.

A frame records how many lattice nodes of a Dyck path sit at each level;
paths with equal frames form an equivalence class.  The package decides
which integer sequences arise as frames, sizes each class exactly, and
derives Dyck and Motzkin counting formulas (plain and colored) from the
frame decomposition, all cross-checked against brute-force enumeration.
"""

from .counting import (
    ColorSpec,
    FootTable,
    binomial,
    binomial_identity_check,
    catalan,
    count_colored_dyck,
    count_colored_motzkin,
    count_k_motzkin,
    count_motzkin,
    feet_level0,
    feet_table,
    frame_cardinality,
    weak_compositions,
)
from .errors import (
    DyckFramesError,
    MalformedPath,
    NotAdmissible,
    NotDyck,
    NotLifted,
    ResourceLimit,
    Underflow,
)
from .frames import (
    FRAME_ENUMERATION_CAP,
    Frame,
    NULL_FRAME,
    RawSequence,
    canonical_representative,
    consequences_hold,
    ensure_frame,
    enumerate_frames,
    extend_frame,
    frame_length,
    frame_of,
    glue_frames,
    is_admissible_closed,
    is_admissible_trace,
    left_progenitor,
    lift_frame,
    parse_frame_text,
    right_progenitor,
    trim,
    unextend,
    unlift,
    up_steps_per_level,
)
from .paths import (
    DYCK_ENUMERATION_CAP,
    MOTZKIN_ENUMERATION_CAP,
    NULL_PATH,
    Path,
    enumerate_dyck,
    enumerate_motzkin,
    foot_count,
    glue,
    level_sequence,
    lift,
    parse_path,
)

__version__ = "0.1.0"

# Every public name imported above; the submodules are reached by their own names.
__all__ = sorted(
    name
    for name in globals()
    if not name.startswith("_") and name not in {"counting", "errors", "frames", "paths"}
)
