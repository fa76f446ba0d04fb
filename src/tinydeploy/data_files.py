"""Access to bundled JSON assets (hardware profiles, link budgets).

Path-like arguments across the CLI and pipeline accept `builtin:<name>`
references resolving into the package's data directory, e.g.
`builtin:profile_desk_calibrated`.
"""
from __future__ import annotations

from importlib import resources
from pathlib import Path

from .downlink import LinkBudget
from .hardware import HardwareProfile

BUILTIN_PREFIX = "builtin:"


def data_path(name: str) -> Path:
    if not name.endswith(".json"):
        name += ".json"
    path = Path(str(resources.files("tinydeploy") / "data" / name))
    if not path.exists():
        available = sorted(p.stem for p in path.parent.glob("*.json"))
        raise FileNotFoundError(f"no builtin data file {name!r}; available: {available}")
    return path


def resolve_path(ref: str | Path) -> Path:
    ref = str(ref)
    if ref.startswith(BUILTIN_PREFIX):
        return data_path(ref[len(BUILTIN_PREFIX):])
    return Path(ref)


def _load(what: str, ref: str | Path, load):
    """`load` of the file `ref` names; a missing file raises
    FileNotFoundError naming `what` and `ref`."""
    try:
        return load(resolve_path(ref))
    except FileNotFoundError as exc:
        raise FileNotFoundError(f"{what} {ref}: {exc.strerror or exc}") from None


def load_profile(ref: str | Path) -> HardwareProfile:
    return _load("hardware profile", ref, HardwareProfile.load)


def load_link_budget(ref: str | Path) -> LinkBudget:
    return _load("link budget", ref, LinkBudget.load)
