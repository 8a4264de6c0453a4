"""A fixed reference computation that gauges the machine's speed.

On a shared host the speed of one core drifts by a third and more over
minutes, as other tenants load the same physical core: on a 2-vCPU
virtual Xeon at 2.0 GHz the same code read anywhere from 5.5 to 9.2
graphs ops per second.  The benchmark times `kernel` next to every op
and scales each time by NOMINAL_S over the kernel's median time in the
same pass, so a time reads as it would on a machine where the kernel
takes NOMINAL_S.  The kernel reacts to that load somewhat more than the
package does, so scaling narrows the drift (there, quartile spreads of
0.2-0.4 fell to 0.02-0.09) without removing it.

Start-up reacts to the load differently, so set-up times are scaled by
`module_load` instead: it runs a fixed module body the way an import
does (unmarshal, then dataclasses and an argparse parser), which tracked
the package's import about three times closer than `kernel` did.

The kernel is pure Python over the standard library and the package
never calls it, so a change to the package cannot move it.  It mixes
what the package's hot paths do: dense polynomial arithmetic with
Fractions in objects with slots, Euclid's gcd, and Gauss-Jordan
elimination over Q.
"""

from __future__ import annotations

import marshal
import time
from fractions import Fraction

NOMINAL_S = 0.002
SETUP_NOMINAL_S = 0.010


class _Poly:
    __slots__ = ("c",)

    def __init__(self, coeffs):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.c = tuple(c)

    def __mul__(self, other):
        out = [Fraction(0)] * max(0, len(self.c) + len(other.c) - 1)
        for i, a in enumerate(self.c):
            for j, b in enumerate(other.c):
                out[i + j] += a * b
        return _Poly(out)

    def __sub__(self, other):
        n = max(len(self.c), len(other.c))
        pad = lambda c, k: c[k] if k < len(c) else 0  # noqa: E731
        return _Poly(pad(self.c, k) - pad(other.c, k) for k in range(n))

    def rem(self, other):
        r = list(self.c)
        d, lc = len(other.c) - 1, other.c[-1]
        while r and len(r) - 1 >= d:
            q = r[-1] / lc
            k = len(r) - 1 - d
            for i, b in enumerate(other.c):
                r[k + i] -= q * b
            while r and r[-1] == 0:
                r.pop()
        return _Poly(r)

    def gcd(self, other):
        a, b = self, other
        while b.c:
            a, b = b, a.rem(b)
        return a


def _rref(rows):
    rows = [list(r) for r in rows]
    r = 0
    for c in range(len(rows[0])):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return rows


def kernel():
    a = _Poly(Fraction(k * k - 3, k + 1) for k in range(5))
    b = _Poly(Fraction(2 * k - 5, k + 2) for k in range(4))
    g = (a * b - b).gcd(a * a - b)
    m = _rref([[Fraction((i * 7 + j * 3) % 11 - 5, j + 1) for j in range(7)] for i in range(6)])
    return g.c, m


_MODULE = (
    "import argparse, dataclasses\n"
    "from fractions import Fraction\n"
    "from typing import Optional\n"
    + "".join(
        f"@dataclasses.dataclass(frozen=True)\n"
        f"class D{i}:\n"
        f"    a: int\n"
        f"    b: tuple = ()\n"
        f"    c: Optional[Fraction] = None\n"
        f"    def f(self, x):\n"
        f"        return self.a + x\n"
        for i in range(12)
    )
    + "p = argparse.ArgumentParser(prog='x')\n"
    "sub = p.add_subparsers(dest='cmd', required=True)\n"
    "for name in 'abcdef':\n"
    "    sp = sub.add_parser(name, help='help ' + name)\n"
    "    sp.add_argument('file')\n"
    "    sp.add_argument('--kind', choices=('x', 'y'))\n"
    "    sp.add_argument('--machine', action='store_true')\n"
)
_MODULE_CODE = marshal.dumps(compile(_MODULE, "<reference module>", "exec"))


def module_load() -> float:
    """Seconds to unmarshal and run the fixed module body once."""
    t0 = time.perf_counter()
    exec(marshal.loads(_MODULE_CODE), {"__name__": "__main__"})
    return time.perf_counter() - t0
