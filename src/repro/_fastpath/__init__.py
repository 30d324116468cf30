"""Build-on-first-import loader for the compiled hot-path kernels.

``load()`` returns the compiled kernel module (built from
``fastpath.c``) or ``None`` when the fast path is unavailable --
because ``REPRO_NO_COMPILED=1`` is set, no C compiler is present, the
build fails, or the built module fails the smoke test.  The caller
(:mod:`repro.core.flatstate`) treats ``None`` as "stay pure Python", so
importing the package never raises.

A fallback nobody asked for is never silent: unless
``REPRO_NO_COMPILED=1`` requested it, ``load()`` says so once on stderr
(the pure kernels are 2-3x slower), and :data:`LOAD_ERROR` is what
``repro serve`` reports as ``kernel.reason``.

The extension is compiled with the system C compiler into
``_build/`` next to this file and cached there under a name that
carries a content hash of ``fastpath.c``, so a checkout that was copied
(``cp -r``, rsync, a container ``COPY`` -- anything that scrambles
mtimes) can never load a shared object built from other source.  There
is deliberately no setuptools machinery: one translation unit, one
compiler invocation, works from a plain source checkout.
"""

from __future__ import annotations

import glob
import hashlib
import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
from typing import Optional

_PKG_DIR = os.path.dirname(os.path.abspath(__file__))
_SOURCE = os.path.join(_PKG_DIR, "fastpath.c")
_BUILD_DIR = os.path.join(_PKG_DIR, "_build")

#: Why the last ``load()`` returned None (for diagnostics / bench JSON).
LOAD_ERROR: Optional[str] = None

#: The kernels :mod:`repro.core.flatstate` rebinds to the compiled module.
KERNELS = (
    "serve_commit", "serve_step", "activate", "activate_step",
    "activate_ls", "passivate_ls", "ls_descend", "elig_insert",
    "elig_remove", "elig_update", "elig_requeue", "elig_query",
)


def _so_path() -> str:
    with open(_SOURCE, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()[:12]
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    return os.path.join(_BUILD_DIR, f"fastpath_c-{digest}{suffix}")


def _compiler() -> Optional[str]:
    cc = sysconfig.get_config_var("CC")
    if cc:
        candidate = cc.split()[0]
        if shutil.which(candidate):
            return candidate
    for candidate in ("cc", "gcc", "clang"):
        if shutil.which(candidate):
            return candidate
    return None


def build(force: bool = False) -> str:
    """Compile ``fastpath.c`` (unless this exact source already was) and
    return the shared-object path.

    Raises on any failure; :func:`load` turns that into a ``None``.
    """
    so = _so_path()
    if not force and os.path.exists(so):
        return so
    cc = _compiler()
    if cc is None:
        raise RuntimeError("no C compiler found")
    include = sysconfig.get_path("include")
    os.makedirs(_BUILD_DIR, exist_ok=True)
    tmp = so + ".tmp"
    cmd = [cc, "-O2", "-fPIC", "-shared", f"-I{include}", _SOURCE, "-o", tmp]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"compile failed: {proc.stderr.strip()[:2000]}")
    os.replace(tmp, so)  # atomic: parallel builders race benignly
    for stale in glob.glob(os.path.join(_BUILD_DIR, "fastpath_c*")):
        if stale != so and not stale.endswith(".tmp"):
            try:
                os.unlink(stale)  # builds of other source, never loadable again
            except OSError:
                pass
    return so


def _smoke_test(mod) -> None:
    """One activation/serve round-trip against the pure kernels."""
    from repro.core import flatstate

    state = flatstate.FlatState(4)

    class _Stub:
        state = None
        slot = -1

    root = state.alloc(_Stub())
    leaf = state.alloc(_Stub())
    state.parent[leaf] = root
    state.ls_m1[leaf] = 100.0
    state.ls_d[leaf] = 0.0
    state.ls_m2[leaf] = 100.0
    state.ls_on[leaf] = 1
    mod.activate_ls(state, leaf, flatstate.VT_MEAN)
    assert state.nactive[root] == 1 and state.ls_active[leaf] == 1
    mod.serve_commit(state, leaf, 100.0, True, False, False, 0.0)
    assert state.nactive[root] == 0 and state.total_work[leaf] == 100.0
    assert abs(state.vt[leaf] - 1.0) < 1e-12
    mod.elig_insert(state, leaf, 0.5, 1.0)
    assert mod.elig_query(state, 0.25) == -1
    assert mod.elig_query(state, 0.75) == leaf
    mod.elig_update(state, leaf, 2.0, 3.0)
    mod.elig_remove(state, leaf)
    assert state.efut_pos[leaf] == -1 and state.erdy_pos[leaf] == -1
    # Fused kernels: requeue a due request in place, then one serve_step
    # and one activate_step round trip (each reactivates before serving).
    mod.elig_insert(state, leaf, 0.5, 1.0)
    assert mod.elig_query(state, 0.75) == leaf
    mod.elig_requeue(state, leaf, 0.6, 2.0, 0.75)
    assert state.erdy_pos[leaf] != -1 and state.req_d[leaf] == 2.0
    mod.elig_remove(state, leaf)
    mod.activate_ls(state, leaf, flatstate.VT_MEAN)
    mod.serve_step(state, leaf, 100.0, True, False, False, 0.0, 0.75)
    assert state.total_work[leaf] == 200.0 and state.nactive[root] == 0
    state.rt_m1[leaf] = state.rt_m2[leaf] = 200.0
    state.es_m1[leaf] = state.es_m2[leaf] = 200.0
    state.rt_on[leaf] = 1
    mod.activate_step(state, leaf, 1.0, True, 50.0, flatstate.VT_MEAN)
    assert state.erdy_pos[leaf] != -1 or state.efut_pos[leaf] != -1
    mod.elig_remove(state, leaf)


def load():
    """Return the compiled kernel module, or ``None`` to stay pure."""
    global LOAD_ERROR
    if os.environ.get("REPRO_NO_COMPILED") == "1":
        LOAD_ERROR = "disabled via REPRO_NO_COMPILED=1"
        return None
    try:
        so = build()
        spec = importlib.util.spec_from_file_location("repro._fastpath.fastpath_c", so)
        if spec is None or spec.loader is None:
            raise ImportError(f"cannot load {so}")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        missing = [name for name in KERNELS if not hasattr(mod, name)]
        if missing:
            raise ImportError(f"{so} lacks kernels {missing}")
        _smoke_test(mod)
    except Exception as exc:  # noqa: BLE001 - any failure means "pure"
        LOAD_ERROR = f"{type(exc).__name__}: {exc}"
        print(
            "repro: compiled fast path unavailable, running the pure-Python "
            f"kernels (2-3x slower): {LOAD_ERROR}",
            file=sys.stderr,
        )
        return None
    LOAD_ERROR = None
    return mod
