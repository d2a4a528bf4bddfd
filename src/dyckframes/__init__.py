"""Frame equivalence on Dyck paths with exact path counting.

A frame records how many lattice nodes of a Dyck path sit at each level;
paths with equal frames form an equivalence class.  The package decides
which integer sequences arise as frames, sizes each class exactly, and
derives Dyck and Motzkin counting formulas (plain and colored) from the
frame decomposition, all cross-checked against brute-force enumeration.

The frames and paths modules are lazy: each one is in sys.modules and
is an attribute here from the start, but its code runs only when one of
its attributes is first read.  The counts and the foot table need
neither, so those commands never compile them.
"""


def _lazy(name: str):
    """Register the submodule name as a module whose code runs on first use."""
    import sys
    from importlib.util import LazyLoader, find_spec, module_from_spec

    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = sys.modules[spec.name] = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


paths = _lazy("paths")
frames = _lazy("frames")

# After the lazy modules, so that counting's `from . import frames` binds one.
from . import counting, errors

__version__ = "0.1.0"

# Each public name and the module it lives in, where __getattr__ reads it.
_HOMES = {
    "counting": (
        "ColorSpec",
        "FootTable",
        "binomial",
        "binomial_identity_check",
        "catalan",
        "count_colored_dyck",
        "count_colored_motzkin",
        "count_k_motzkin",
        "count_motzkin",
        "feet_level0",
        "feet_table",
        "frame_cardinality",
        "weak_compositions",
    ),
    "errors": (
        "DyckFramesError",
        "MalformedPath",
        "NotAdmissible",
        "NotDyck",
        "NotLifted",
        "ResourceLimit",
        "Underflow",
    ),
    "frames": (
        "FRAME_ENUMERATION_CAP",
        "Frame",
        "NULL_FRAME",
        "RawSequence",
        "canonical_representative",
        "consequences_hold",
        "ensure_frame",
        "enumerate_frames",
        "extend_frame",
        "frame_length",
        "frame_of",
        "glue_frames",
        "is_admissible_closed",
        "is_admissible_trace",
        "left_progenitor",
        "lift_frame",
        "parse_frame_text",
        "right_progenitor",
        "trim",
        "unextend",
        "unlift",
        "up_steps_per_level",
    ),
    "paths": (
        "DYCK_ENUMERATION_CAP",
        "MOTZKIN_ENUMERATION_CAP",
        "NULL_PATH",
        "Path",
        "enumerate_dyck",
        "enumerate_motzkin",
        "foot_count",
        "glue",
        "level_sequence",
        "lift",
        "parse_path",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Read a public name from its module, loading a lazy one on first use."""
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
