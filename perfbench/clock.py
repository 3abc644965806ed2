"""Run timing normalised by a reference kernel interleaved with the work.

On the 2-vCPU machine this benchmark was defined on, the CPU runs at
one of two speeds for seconds at a time (``catalog(6)`` took 21 ms in
some 2-second windows and 41 ms in others, and a whole 30-second run
could sit in the slow state), so raw medians moved 15-30 % from run to
run with no change to the program.  A fixed kernel that does not call
chgeo, but does a slice of each kind of work the workloads spend time
in (dense d^3 contractions, a batched linear march, short-vector
algebra, small decompositions), runs after every timed part of every
op, for ``SHARE`` of the part's time and at least once.  Each wall time
of the run is multiplied by ``REF_S`` over the kernel's mean time in
the run, ``REF_S`` being its time on an uncontended core of that
machine: the result reads as seconds on that machine at full speed,
and a slowdown of the whole machine cancels.  One factor per run works
better than one per part: a single kernel run varies by about 20 %, the
mean of a run's hundreds does not.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

REF_S = 0.0042  # the kernel's time on an uncontended core of the defining machine
SHARE = 0.05  # kernel time after a part, as a share of the part's time

_RNG = np.random.default_rng(0)
_T24 = _RNG.standard_normal((24, 24, 24))
_T32 = _RNG.standard_normal((32, 32, 32))
_V32 = _RNG.standard_normal((16, 32))
_FIELDS = _RNG.standard_normal((6, 200))
_VECTORS = _RNG.standard_normal((150, 6))
_J6 = np.kron(np.eye(3), np.array([[0.0, -1.0], [1.0, 0.0]]))
_AXIS = np.eye(6)[1]
_BLOCK = _RNG.standard_normal((19, 11))


def reference_kernel() -> float:
    """Fixed work outside chgeo, one slice of each kind the workloads spend time in.

    The returned value only keeps the work from being skipped.
    """
    acc = 0.0
    # dense connection contractions, as in the group model's orbit loops
    for i in range(16):
        acc += float(np.einsum("i,j,ijk->k", _V32[i], _V32[i - 1], _T32)[0])
        acc += float(np.einsum("i,j,ijk->k", _V32[i, :24], _V32[i - 2, :24], _T24)[0])
    # a batched linear march, as in the fourth-order oracle
    z, zp = _FIELDS.copy(), _FIELDS.copy()
    for _ in range(30):
        acc_z = 0.25 * (z + 3.0 * np.multiply.outer(_AXIS, np.tensordot(_AXIS, z, axes=(0, 0))))
        z, zp = z + 1e-3 * zp, zp + 1e-3 * acc_z
    acc += float(z[0, 0])
    # closed-form curvature on short vectors
    for x, y in zip(_VECTORS, _VECTORS[1:]):
        jx, jy = _J6 @ x, _J6 @ y
        acc += float((-0.25 * ((y @ x) * x - (x @ x) * y + (jy @ x) * jx - 2.0 * (jx @ y) * jx))[0])
    # small decompositions and scalar closed forms, as in the transversal map
    for i in range(15):
        m = _BLOCK + i * 1e-3
        gram = m.T @ m
        acc += float(np.linalg.svd(m, compute_uv=False)[0])
        acc += float(np.linalg.pinv(gram, rcond=1e-12)[0, 0])
        acc += float(np.linalg.eigvalsh(gram[:5, :5])[0])
        acc += sum(math.cosh(0.1 * k) - 2.0 * math.sinh(0.05 * k) for k in range(20))
    return acc


def reference_seconds() -> float:
    started = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - started


class Stopwatch:
    """Times the named parts of each op and runs the kernel after each one.

    ``start`` begins an op; calling the stopwatch runs one part and adds
    its wall seconds to ``parts[name]``.  Kernel runs interleave with the
    work through the whole run, in proportion to it, so ``factor``
    (``REF_S`` over their mean) turns the run's wall seconds into
    normalised ones.
    """

    def __init__(self):
        self.refs: list[float] = []
        self.parts: dict[str, float] = {}
        self.tick()

    def tick(self, seconds: float = 0.0) -> None:
        """Kernel runs until they took ``seconds``, and at least one."""
        spent = 0.0
        while True:
            self.refs.append(reference_seconds())
            spent += self.refs[-1]
            if spent >= seconds:
                return

    def start(self) -> None:
        self.parts = {}

    def __call__(self, name, fn, *args, **kwargs):
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started
            self.parts[name] = self.parts.get(name, 0.0) + elapsed
            self.tick(SHARE * elapsed)

    @property
    def seconds(self) -> float:
        """Wall seconds of the op so far."""
        return sum(self.parts.values())

    @property
    def factor(self) -> float:
        return REF_S / statistics.fmean(self.refs)
