"""The package's one compiled object: cache key and shared loading."""

import pytest

from repro import native
from repro.sim import batchcore


def test_cache_slot_is_keyed_by_every_source(tmp_path, monkeypatch):
    first, second = tmp_path / "first.c", tmp_path / "second.c"
    first.write_text("int first;\n")
    second.write_text("int second;\n")
    monkeypatch.setattr(native, "SOURCES", (first, second))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    slot = native.library_path()
    assert slot.parent == tmp_path / "cache" / "repro" / "native"
    assert native.library_path() == slot
    second.write_text("int second_edited;\n")
    edited = native.library_path()
    assert edited != slot
    first.write_text("int first_edited;\n")
    assert native.library_path() not in (slot, edited)


def test_cache_slot_is_keyed_by_the_build_flags(monkeypatch):
    slot = native.library_path()
    assert "-ffp-contract=off" in native.CFLAGS
    monkeypatch.setattr(native, "CFLAGS", native.CFLAGS + ("-DPROBE",))
    flagged = native.library_path()
    assert flagged != slot
    monkeypatch.setattr(native, "LIBS", ())
    assert native.library_path() not in (slot, flagged)


def test_every_package_source_is_compiled():
    for source in native.SOURCES:
        assert source.is_file(), source
    names = {source.name for source in native.SOURCES}
    assert names == {"_batchcore.c", "_swapcore.c"}


@pytest.mark.skipif(
    native.load() is None, reason=f"compiled kernels unavailable: {native.load_failure()}"
)
def test_simulator_core_and_swap_pricer_share_one_object():
    loaded = native.load()
    assert batchcore.load() is loaded
    _, lib = loaded
    assert lib.bc_create is not None
    assert lib.sc_swap_delta is not None
