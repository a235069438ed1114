"""Emit DOT diagrams of the two saturated chains witnessing how
noncatenary the parameterized family is.

For 1 < m < n, take a = n - m + 1 and b = m - 1 in

    T = Q[[x, y1..ya, z1..zb]] / ((x) cap (y1..ya)).

From the minimal prime (x) the avoidance chain to the maximal ideal has
length n; from (y1..ya) it has length m. Any local domain completing to
T inherits saturated chains of both lengths from (0) to its maximal
ideal, so the gap n - m is realized downstairs.

Writes chains_<m>_<n>.dot files; render with `dot -Tsvg`.
"""

import pathlib
import sys

from noncat import (
    FamilySpec,
    MonomialIdeal,
    MonomialPrime,
    chain_dot,
    construct_chain,
    instantiate,
    verify_chain,
)

pairs = [(2, 3), (3, 5)] if len(sys.argv) < 3 \
    else [(int(sys.argv[1]), int(sys.argv[2]))]

for m, n in pairs:
    ring, _ = instantiate(FamilySpec("prop41", (m, n)))
    a = n - m + 1
    mono = MonomialIdeal.from_polynomials(ring.context, ring.generators)

    long_chain = construct_chain(mono, MonomialPrime.of(ring.context, "x"))
    short_chain = construct_chain(
        mono,
        MonomialPrime.of(ring.context, *[f"y{i}" for i in range(1, a + 1)]))
    assert (len(long_chain) - 1, len(short_chain) - 1) == (n, m)
    assert verify_chain(mono, long_chain) == []
    assert verify_chain(mono, short_chain) == []

    out = pathlib.Path(f"chains_{m}_{n}.dot")
    out.write_text(chain_dot(mono, [long_chain, short_chain]) + "\n")
    print(f"(m,n)=({m},{n}):")
    for chain in (long_chain, short_chain):
        print("  ", " < ".join(p.render(ring.context) for p in chain))
    print(f"  wrote {out}")
