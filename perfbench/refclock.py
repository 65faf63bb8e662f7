"""Reference clock: every timed interval of the benchmark is read against a
fixed loop timed right next to it.

The measuring machine is a share of a busy host, and its speed changes by
tens of percent within seconds.  A call's wall time divided by the loop's
time measured just before and just after it cancels most of that change.
Multiplied by ``REF_S`` it reads as seconds on the baseline machine when
quiet.  The loop is benchmark code and never changes, so a faster program
shows as a smaller share of it.

The loop mixes the three kinds of work cl33 does, because a busy host slows
each by a different amount: interpreter arithmetic, products of 64-element
numpy arrays reduced with ``bincount``, and dict and float formatting work.

This module imports nothing at load time (numpy only in ``tick``), so
that ``import cl33`` can be timed before the loop is read.
"""

#: Seconds the loop takes on the baseline machine (a 2-vCPU Intel Xeon VM
#: at 2.0 GHz, Python 3.11, numpy 2.4) when the host is quiet.
REF_S = 1.3e-3

_arrays = []


def loop(np):
    if not _arrays:
        i = np.arange(64)
        _arrays.extend([np.linspace(-1.0, 1.0, 64), np.linspace(2.0, 0.5, 64),
                        np.where((i[:, None] & i[None, :]) % 3 == 0, 1.0, -1.0),
                        (i[:, None] ^ i[None, :]).ravel()])
    x, y, signs, flat = _arrays
    s = 0
    for i in range(8000):
        s += i * i
    for _ in range(40):
        np.bincount(flat, weights=((x[:, None] * y[None, :]) * signs).ravel(), minlength=64)
    d = {}
    for i in range(1000):
        d[i % 97] = f"{i * 0.5:.17g}"
    return s, d


def tick(clock):
    """Seconds one run of the loop takes, read on ``clock``."""
    import numpy as np

    t = clock()
    loop(np)
    return clock() - t


def scaled(seconds, ref_before, ref_after):
    """``seconds`` on the baseline machine, from the reference loop's times
    just before and just after the interval."""
    return seconds * 2.0 * REF_S / (ref_before + ref_after)
