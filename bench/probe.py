"""Set-up probe: import heckeseries and construct (and so validate) every
symmetry named on the command line, computing no dimension.

    python3 bench/probe.py std:r=3,q=2 super:1,1,q=1/2 file:PATH ...

Prints the imported package's path so the caller can check it ran the
checkout's sources.
"""

import sys
from fractions import Fraction

import heckeseries
from heckeseries import rmatrix


def build(spec: str):
    kind, _, rest = spec.partition(":")
    if kind == "file":
        return rmatrix.load_symmetry_file(rest)
    fields = rest.split(",")
    if kind == "std":
        kv = dict(f.split("=", 1) for f in fields)
        return rmatrix.build_standard(int(kv["r"]), Fraction(kv["q"]))
    if kind == "super":
        r0, r1, q = fields
        return rmatrix.build_super(int(r0), int(r1), Fraction(q.removeprefix("q=")))
    raise ValueError(f"unknown symmetry kind in {spec!r}")


if __name__ == "__main__":
    for spec in sys.argv[1:]:
        build(spec)
    print(heckeseries.__file__)
