"""Where a result came from: machine, libraries, threads, commit and source size."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys
from pathlib import Path

LAYERS = ("core", "models", "risk", "solver", "bench", "cli")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_info() -> dict:
    """BLAS library numpy was built with, and the threads each loaded
    OpenBLAS reports in effect (numpy and scipy each bundle one)."""
    import numpy
    import scipy
    info = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["library"] = "unknown"
    threads = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in glob.glob(str(libdir / "*openblas*.so*")):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads[pkg.__name__] = int(fn())
                    break
    info["threads"] = threads
    info["env"] = {k: os.environ.get(k) for k in
                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return info


def git_commit(root: Path) -> str:
    """Commit of a git checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines(root: Path) -> dict:
    """Non-blank, non-comment lines of each module under src/riskbudget."""
    counts = {}
    for path in sorted((root / "src" / "riskbudget").glob("*.py")):
        lines = [ln.strip() for ln in path.read_text().splitlines()]
        counts[path.stem] = sum(1 for ln in lines if ln and not ln.startswith("#"))
    out = {f"src_lines.{m}": float(counts.get(m, 0)) for m in LAYERS}
    out["src_lines.total"] = float(sum(counts.values()))
    return out


def provenance(root: Path, seeds: dict) -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "commit": git_commit(root),
        "seeds": seeds,
        "argv": sys.argv[1:],
        **src_lines(root),
    }
