"""The names the benchmark's layer tracer wraps must exist in the library.

`perfbench/layertrace.py` rebinds functions by owner and attribute name; a
refactor that deletes or renames one of them would only show as a crash of
the traced benchmark run, so these tests resolve every target up front.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layertrace  # noqa: E402

from qmpaths import verify  # noqa: E402


def _targets():
    return layertrace.TIMED + layertrace.COUNTED


def test_every_timed_and_counted_target_is_callable():
    for owner, attr, name in _targets():
        assert callable(getattr(owner, attr, None)), f"{name}: {owner!r}.{attr}"


def test_every_lru_cache_reports_cache_info():
    for name, fn in layertrace.LRU_CACHES.items():
        assert fn.cache_info() is not None, name


def _bindings():
    """Every name in a qmpaths module, every suite-table entry and every
    tracer target, mapped to the object it is bound to."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if modname == "qmpaths" or modname.startswith("qmpaths."):
            out.update(((modname, key), val) for key, val in vars(mod).items())
    out.update((("SUITES", key), val) for key, val in verify.SUITES.items())
    for owner, attr, name in _targets():
        out[(name, attr)] = getattr(owner, attr)
    return out


def test_install_then_uninstall_restores_the_originals():
    before = _bindings()
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        during = _bindings()
        assert all(during[key] is not before[key] for key in
                   ((name, attr) for _, attr, name in _targets()))
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
