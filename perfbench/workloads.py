"""Seeded inputs for the benchmark's workloads.

Each workload is a fixed ladder of `liftedmap map` instances. The seed only
draws the parts that vary: a power-of-two scale of each instance's weights
(see spin_glass_torus for why only that); the same seed always gives
byte-identical files. The input texts are generated here, not taken from
the repository's `models/` directory, so that a change to the shipped
examples cannot change what the benchmark measures.

Run as a script, this is the benchmark's set-up step: it imports `liftedmap`
(as the measured process does), writes one workload's files to a directory
and prints the seconds from its first statement to the files on disk.

    python3 perfbench/workloads.py --workload ground --seed 1 --dir DIR
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # the set-up clock starts before every other import

import argparse  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# The MLN that ships as models/lovers_smokers.mln.
LOVERS_SMOKERS = (
    ("predicate Male/1", "predicate Female/1", "predicate Smokes/1", "predicate Loves/2"),
    (
        (100.0, "Male(x) <=> !Female(x)"),
        (2.0, "Male(x) ^ Smokes(x)"),
        (2.0, "Female(x) ^ !Smokes(x)"),
        (0.5, "x != y ^ Male(x) ^ Female(y) ^ Loves(x, y)"),
        (0.5, "x != y ^ Loves(x, y) => (Smokes(x) <=> Smokes(y))"),
        (-100.0, "x != y ^ y != z ^ z != x ^ Loves(x, y) ^ Loves(y, z) ^ Loves(x, z)"),
    ),
)

EQUALITY = "1.0 0.0 0.0 1.0"
FRUCHT_LCF = (-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2)

GROUND_LOCAL = ("--space", "ground", "--polytope", "local")
GROUND_CYCLE = ("--space", "ground", "--polytope", "cycle")
LIFTED_RENAMING = ("--space", "lifted", "--method", "renaming", "--polytope", "cycle")
LIFTED_SEARCH = ("--space", "lifted", "--method", "search", "--polytope", "cycle")


@dataclass(frozen=True)
class Instance:
    """One `liftedmap map` call: its input file, its text and its flags."""

    name: str
    text: str
    flags: tuple
    domain_size: int = None

    def flag(self, name: str) -> str:
        """The value given to one of `flags`, e.g. flag("--space")."""
        return self.flags[self.flags.index(name) + 1]

    @property
    def filename(self) -> str:
        return self.name + (".mln" if self.domain_size is not None else ".fgm")

    def argv(self, directory: str) -> list:
        args = ["map", os.path.join(directory, self.filename)]
        if self.domain_size is not None:
            args += ["--domain-size", str(self.domain_size)]
        return args + list(self.flags)


def seeded_scale(rng) -> float:
    """A power of two from 1/4 to 8, the only way the seed reweights."""
    return 2.0 ** rng.randint(-2, 3)


def mln_text(scale: float = 1.0) -> str:
    """lovers_smokers with every weight multiplied by `scale`.

    Per-formula reweightings change the cutting-plane path (6 to 9 cuts at
    d=8..20) and with it the pass time; a power-of-two scale does not (see
    spin_glass_torus).
    """
    lines = list(LOVERS_SMOKERS[0]) + [""]
    for weight, formula in LOVERS_SMOKERS[1]:
        lines.append("%r %s" % (weight * scale, formula))
    return "\n".join(lines) + "\n"


def fgm_text(num_vars: int, weighted_edges) -> str:
    """Pairwise agreement model: one EQUALITY feature per edge, tied by weight."""
    weights = sorted({w for _, w in weighted_edges})
    tie = {w: k for k, w in enumerate(weights)}
    out = ["fgm 1", "vars %d" % num_vars, "tieclasses %d" % len(weights)]
    out += ["theta %d %r" % (k, w) for k, w in enumerate(weights)]
    for (u, v), w in sorted(weighted_edges):
        out.append("factor %d 2 %d %d %s" % (tie[w], min(u, v), max(u, v), EQUALITY))
    return "\n".join(out) + "\n"


def _edges(pairs):
    return sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})


def complete(n: int, weight: float) -> str:
    return fgm_text(n, [(e, weight) for e in _edges((i, j) for i in range(n) for j in range(n))])


def cycle(n: int, weight: float) -> str:
    return fgm_text(n, [(e, weight) for e in _edges((i, (i + 1) % n) for i in range(n))])


def frucht() -> str:
    """Cubic graph with a trivial automorphism group."""
    pairs = [(i, (i + 1) % 12) for i in range(12)]
    pairs += [(i, (i + FRUCHT_LCF[i]) % 12) for i in range(12)]
    return fgm_text(12, [(e, 1.0) for e in _edges(pairs)])


def spin_glass_torus(side: int, pattern: str, scale: float) -> str:
    """side x side torus with +-scale agreement couplings.

    The sign pattern is a fixed draw named by `pattern`; only the magnitude
    varies. The cutting-plane path (5 to 23 cuts, 0.3 to 2.0 s per 4x4
    torus) changes chaotically with the couplings, even under a common
    rescaling by a factor that is not a power of two, so seeded sign
    patterns would make the pass time mostly a function of the seed. A
    power-of-two scale changes every weight and objective but leaves each
    floating-point step of the solve exact, hence the same path.
    """
    signs = random.Random("torus:%s" % pattern)
    pairs = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            pairs.append((v, r * side + (c + 1) % side))
            pairs.append((v, ((r + 1) % side) * side + c))
    return fgm_text(
        side * side, [(e, scale * signs.choice((-1.0, 1.0))) for e in _edges(pairs)]
    )


def circulant(n: int, pattern: str, weight: float) -> str:
    """Connected n-vertex circulant with 2 or 3 distinct jumps below n/2.

    The jumps are a fixed draw named by `pattern`: seeded jumps made the
    call take 0.3 to 0.7 s (1 to 6 cuts). Connected means the jumps
    generate Z_n. A disconnected circulant has a wreath-product group
    (order up to 10^20 at n=120) and a search several times longer;
    connected ones have the dihedral group of order 2n, or a little more
    when a multiplier maps the jump set to itself.
    """
    rng = random.Random("circulant:%s" % pattern)
    while True:
        jumps = rng.sample(range(1, n // 2), rng.choice((2, 3)))
        if math.gcd(n, *jumps) == 1:
            break
    pairs = [(i, (i + j) % n) for i in range(n) for j in jumps]
    return fgm_text(n, [(e, weight) for e in _edges(pairs)])


def instances(workload: str, seed: int) -> list:
    """The workload's instance ladder, with inputs drawn from the seed.

    Each workload joins two ladders that stress different layers of one
    side (ground or lifted). On a shared host the CPU speed can drift by
    10-40% over tens of seconds, so two long runs per seed give steadier
    medians than four short ones.
    """
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "ground":
        return [
            # one large cold simplex solve each (396 vars x 522 rows)
            Instance("ls_d3", mln_text(), GROUND_LOCAL, 3),
            Instance("ls_d3_rw", mln_text(seeded_scale(rng)), GROUND_LOCAL, 3),
            # many small cold re-solves of a growing LP, plus separation
            Instance("k7", complete(7, -1.0), GROUND_CYCLE),
            Instance("torus4_a", spin_glass_torus(4, "a", seeded_scale(rng)), GROUND_CYCLE),
            Instance("torus4_b", spin_glass_torus(4, "b", seeded_scale(rng)), GROUND_CYCLE),
            Instance("frucht", frucht(), GROUND_CYCLE),
        ]
    if workload == "lifted":
        # renaming orbits: grounding and lifting grow as d^3, the LP stays 79 cells
        ladder = [
            Instance("ls_d%d_rw" % d, mln_text(seeded_scale(rng)), LIFTED_RENAMING, d)
            for d in (8, 14, 20)
        ]
        # automorphism search: refinement, search, generator checks, stabilizers
        return ladder + [
            Instance("ls_d5", mln_text(), LIFTED_SEARCH, 5),
            Instance("cycle200", cycle(200, -1.0), LIFTED_SEARCH),
            Instance("circulant120", circulant(120, "a", -seeded_scale(rng)), LIFTED_SEARCH),
            Instance("frucht", frucht(), LIFTED_SEARCH),
        ]
    raise ValueError("unknown workload %r" % workload)


WORKLOADS = ("ground", "lifted")


def write_inputs(workload: str, seed: int, directory: str) -> list:
    """Write the workload's input files; returns its instances."""
    os.makedirs(directory, exist_ok=True)
    ladder = instances(workload, seed)
    for inst in ladder:
        with open(os.path.join(directory, inst.filename), "w", encoding="utf-8") as fh:
            fh.write(inst.text)
    return ladder


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    args = p.parse_args(argv)
    sys.path.insert(0, SRC)
    import liftedmap.cli  # set-up pays the import, as a user does

    if not liftedmap.cli.__file__.startswith(SRC + os.sep):
        sys.exit("liftedmap was imported from outside %s" % SRC)
    write_inputs(args.workload, args.seed, args.dir)
    print(repr(time.perf_counter() - T0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
