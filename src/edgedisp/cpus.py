"""How edgedisp uses the CPUs it runs on.

``one_blas_thread`` runs numpy's bundled OpenBLAS on one thread while
edgedisp computes, so that results do not depend on the machine's thread
count: a GEMM split over threads sums in another order. It restores the
caller's count on exit.

``Child`` runs a function in a child process forked at the call. The fork
is a snapshot of this process, so nothing is shipped to the child, and
the caller goes on while the child works.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import pickle
import signal
import warnings


@functools.lru_cache(maxsize=None)
def _openblas():
    """The get and set thread-count functions of numpy's bundled OpenBLAS,
    or None, with one warning, where numpy links a BLAS without them."""
    try:
        from numpy._core import _multiarray_umath
        # a symbol lookup in a library also searches the libraries it loads
        lib = ctypes.CDLL(_multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        put = lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError) as exc:
        warnings.warn(f"cannot set the BLAS thread count ({exc}); results may depend "
                      "on it", RuntimeWarning)
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


@contextlib.contextmanager
def one_blas_thread():
    """OpenBLAS on one thread inside the block; usable as a decorator."""
    blas = _openblas()
    if blas is None:
        yield
        return
    get, put = blas
    count = get()
    put(1)
    try:
        yield
    finally:
        put(count)


def _spare_cpu() -> bool:
    """Whether a forked child can run beside this process on a CPU of its own.
    Sharing one CPU, a forked validation made ``trainer.train`` slower than
    one run inline: 6-15% on perfbench's train-64, in two sets of 10
    alternating runs."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


class Child:
    """``fn()`` run in a child process forked now, or inline at once.

    ``join`` returns its result, or raises its exception as the same type.
    ``close`` kills and reaps the child; call it on every exit path. The
    child leaves only through ``os._exit``: it runs no exit handler and
    flushes none of the files it shares with this process. Without
    ``os.fork`` or a second CPU, ``fn`` runs inline in ``__init__``,
    ``forked`` is False, and its side effects reach this process.
    """

    def __init__(self, fn):
        self.forked, self.pid = _spare_cpu(), None
        if not self.forked:
            self._result = fn()
            return
        r, w = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
            raise
        if self.pid == 0:
            status = 1
            try:
                os.close(r)
                try:
                    out = (True, fn())
                except BaseException as exc:
                    out = (False, exc)
                with os.fdopen(w, "wb") as pipe:
                    pickle.dump(out, pipe)
                status = 0
            finally:
                os._exit(status)
        os.close(w)
        self._pipe = os.fdopen(r, "rb")

    def join(self):
        if not self.forked:
            return self._result
        pid = self.pid
        try:
            blob = self._pipe.read()
        finally:
            status = self.close()
        try:
            ok, value = pickle.loads(blob)
        except Exception as exc:
            raise ChildProcessError(f"child {pid} ended with wait status {status} "
                                    f"and no readable report ({exc!r})") from None
        if not ok:
            raise value
        return value

    def close(self):
        """Reap the child, killing it first, and return its wait status.
        Once its report is read the child only exits, so the kill then
        loses nothing."""
        if self.pid is None:
            return None
        pid, self.pid = self.pid, None
        self._pipe.close()
        os.kill(pid, signal.SIGKILL)
        return os.waitpid(pid, 0)[1]
