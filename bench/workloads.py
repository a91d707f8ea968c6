"""Seeded instances, expected values and operation lists for each workload.

Every input is made here from the workload seed and written to an instance
file; phstab only ever sees those files, through ``cli.run_command``.  The
expected values the gate compares against (sup norm, number of distinct
crossing times, exact distances) are computed by this module with its own
integer arithmetic, not by phstab.

Each workload draws a fixed number of candidates from a seeded stream and
keeps the ones whose estimated cost is closest to a fixed target, so that
different seeds give different instances of about the same cost and set-up
does the same amount of work for every seed.  For a verify the estimate is
(crossings + extra) * n^2, since each of the crossings + 1 intervals scans
all simplex pairs; for a bottleneck pair it is the simplex count n.
"""

from __future__ import annotations

import dataclasses
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

WORKLOADS = ("verify-dense", "verify-perturbed", "bottleneck-ladder")

# verify-dense: many crossings on small complexes
DENSE_SHAPE = {"num_vertices": 10, "fill_prob": 0.5, "max_dimension": 2}
DENSE_N = (38, 49)
DENSE_CROSSINGS = (150, 300)
DENSE_COST = 300_000  # target for (C + 1) * n^2
DENSE_CANDIDATES = 120
DENSE_INSTANCES = 4

# verify-perturbed: f1 = f0 + eps * (g + order-preserving offsets)
PERTURBED_VERTICES = (17, 18, 19)
PERTURBED_SHAPE = {"fill_prob": 0.5, "max_dimension": 2}
PERTURBED_EPS = (Fraction(1, 256), Fraction(1, 512), Fraction(1, 1024))
PERTURBED_N = (150, 270)
PERTURBED_CROSSINGS = (0, 20)
PERTURBED_COST = 300_000  # target for (C + 2) * n^2, the verify cost
PERTURBED_CANDIDATES = 24
PERTURBED_INSTANCES = 6

# bottleneck-ladder: isolated vertices shifted by 1/2, plus generated pairs
LADDER_POINTS = (100, 200, 300)
LADDER_SHIFT = Fraction(1, 2)
LADDER_PAIRS = 2
LADDER_PAIR_N = 200  # target n: the matcher's cost follows the diagram size
LADDER_PAIR_CANDIDATES = 8
# The matcher recurses once per augmenting-path step; at this size it
# raises RecursionError.  Run apart from the timed list (see run.py).
DEFECT_POINTS = 1000


@dataclass
class Op:
    """One CLI invocation and what its output must satisfy."""

    name: str
    argv: tuple
    kind: str  # "verify" or "distance" (a bottleneck command)
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    ops: list  # the timed list, run in whole passes
    probe: list  # known-defect operations, run only by the traced run
    instances: list  # provenance, one dict per instance file


class SetupError(RuntimeError):
    pass


# -- exact helpers (independent of phstab) -----------------------------

def sup_norm(v0, v1) -> Fraction:
    return max((abs(a - b) for a, b in zip(v0, v1)), default=Fraction(0))


def crossing_count(v0, v1) -> int:
    """Number of distinct t in (0, 1) where some pair of lines meets.

    Both value lists must be pairwise distinct, so every pair gap is
    non-zero at t = 0 and t = 1 and the pair crosses iff the signs differ.
    """
    scale = lcm(*(x.denominator for x in (*v0, *v1)))
    a = [x.numerator * (scale // x.denominator) for x in v0]
    b = [x.numerator * (scale // x.denominator) for x in v1]
    times = set()
    n = len(a)
    for i in range(n):
        ai, bi = a[i], b[i]
        for j in range(i + 1, n):
            d0 = ai - a[j]
            d1 = bi - b[j]
            if (d0 > 0) != (d1 > 0):
                times.add(Fraction(d0, d0 - d1))
    return len(times)


def _distinct(values) -> bool:
    return len(set(values)) == len(values)


def _fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def write_instance(path, simplices, *columns) -> None:
    lines = []
    for k, simplex in enumerate(simplices):
        verts = " ".join(str(v) for v in simplex)
        vals = " ".join(_fmt(col[k]) for col in columns)
        lines.append(f"{verts} : {vals}\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


# -- candidate streams ----------------------------------------------------

def _generate(cfg):
    from phstab.generate import generate_instance

    inst = generate_instance(cfg)
    simplices = [s.vertices for s in inst.complex.simplices]
    return simplices, list(inst.functions[0].values), list(inst.functions[1].values)


def _config(**kwargs):
    from phstab.generate import GeneratorConfig

    return GeneratorConfig(**kwargs)


def _closest(found, count, target, what):
    """The ``count`` candidates nearest the target cost, in stream order."""
    if len(found) < count:
        raise SetupError(f"found {len(found)} of {count} {what} instances")
    ranked = sorted(range(len(found)), key=lambda k: (abs(found[k][0] - target), k))
    return [found[k][1] for k in sorted(ranked[:count])]


def _dense_instances(rng, count):
    found = []
    for _ in range(DENSE_CANDIDATES):
        cfg = _config(seed=rng.randrange(2**31), **DENSE_SHAPE)
        simplices, v0, v1 = _generate(cfg)
        n = len(simplices)
        if not DENSE_N[0] <= n <= DENSE_N[1]:
            continue
        crossings = crossing_count(v0, v1)
        if not DENSE_CROSSINGS[0] <= crossings <= DENSE_CROSSINGS[1]:
            continue
        cost = (crossings + 1) * n * n
        found.append((cost, (cfg, None, simplices, v0, v1, crossings)))
    return _closest(found, count, DENSE_COST, "verify-dense")


def _perturbed_instances(rng, count, candidates, cost_of, target):
    """Candidates with f1 = f0 + eps * (g + offsets), g a second random
    filtration.  Each candidate takes the eps whose estimated cost
    ``cost_of(n, C)`` is nearest ``target``; the ``count`` nearest are kept."""
    found = []
    for _ in range(candidates):
        cfg = _config(
            seed=rng.randrange(2**31),
            num_vertices=rng.choice(PERTURBED_VERTICES),
            **PERTURBED_SHAPE,
        )
        simplices, v0, g = _generate(cfg)
        n = len(simplices)
        if not PERTURBED_N[0] <= n <= PERTURBED_N[1]:
            continue
        # offsets increase along f0's order, so f0 + eps * offsets keeps
        # f0's order and monotonicity; eps * g makes the crossings
        rank = sorted(range(n), key=v0.__getitem__)
        offset = [Fraction(0)] * n
        for r, i in enumerate(rank):
            offset[i] = Fraction(r + 1, n)
        best = None
        for eps in PERTURBED_EPS:
            v1 = [a + eps * (b + o) for a, b, o in zip(v0, g, offset)]
            if not _distinct(v1):
                continue
            crossings = crossing_count(v0, v1)
            if not PERTURBED_CROSSINGS[0] <= crossings <= PERTURBED_CROSSINGS[1]:
                continue
            cost = cost_of(n, crossings)
            if best is None or abs(cost - target) < abs(best[0] - target):
                best = (cost, (cfg, eps, simplices, v0, v1, crossings))
        if best is not None:
            found.append(best)
    return _closest(found, count, target, "verify-perturbed")


def _provenance(path, cfg, eps, simplices, crossings):
    return {
        "file": os.path.basename(path),
        "config": dataclasses.asdict(cfg),
        "eps": None if eps is None else _fmt(eps),
        "simplices": len(simplices),
        "crossings": crossings,
    }


def _verify_ops(tag, instances, workdir, record):
    ops = []
    for k, (cfg, eps, simplices, v0, v1, crossings) in enumerate(instances):
        path = os.path.join(workdir, f"{tag}-{k}.txt")
        write_instance(path, simplices, v0, v1)
        record.append(_provenance(path, cfg, eps, simplices, crossings))
        ops.append(
            Op(
                f"{tag}-{k}",
                ("verify", path, "--machine"),
                "verify",
                {"sup_norm": sup_norm(v0, v1), "crossings": crossings},
            )
        )
    return ops


def _shift_ops(rng, points, workdir, record):
    """Two files of isolated vertices, the second shifted by exactly 1/2.

    All diagram points are essential and in dimension 0, and matching them
    in sorted order moves each by exactly 1/2, so both distances are 1/2.
    """
    ops = []
    values = [Fraction(v, 4) for v in rng.sample(range(4 * points), points)]
    simplices = [(i,) for i in range(points)]
    a = os.path.join(workdir, f"shift{points}-a.txt")
    b = os.path.join(workdir, f"shift{points}-b.txt")
    write_instance(a, simplices, values)
    write_instance(b, simplices, [v + LADDER_SHIFT for v in values])
    record.append(
        {
            "file": os.path.basename(a) + " " + os.path.basename(b),
            "points": points,
            "values": f"distinct quarter-integers in [0, {points})",
            "shift": _fmt(LADDER_SHIFT),
        }
    )
    for variant, extra in (("bijection", ()), ("diagonal", ("--diagonal",))):
        ops.append(
            Op(
                f"shift{points}-{variant}",
                ("bottleneck", a, b) + extra,
                "distance",
                {"distance": LADDER_SHIFT},
            )
        )
    return ops


def _pair_ops(instances, workdir, record):
    ops = []
    for k, (cfg, eps, simplices, v0, v1, crossings) in enumerate(instances):
        path = os.path.join(workdir, f"pair-{k}.txt")
        write_instance(path, simplices, v0, v1)
        record.append(_provenance(path, cfg, eps, simplices, crossings))
        bound = sup_norm(v0, v1)
        ops.append(
            Op(f"pair{k}-bijection", ("bottleneck", path), "distance", {"sup_norm": bound})
        )
        ops.append(
            Op(
                f"pair{k}-diagonal",
                ("bottleneck", path, "--diagonal"),
                "distance",
                {"sup_norm": bound, "at_most": f"pair{k}-bijection"},
            )
        )
    return ops


def build(name: str, seed: int, workdir: str) -> Workload:
    """Make the workload's instance files and its operation list."""
    rng = random.Random(f"{name}:{seed}")
    os.makedirs(workdir, exist_ok=True)
    record: list = []
    probe: list = []
    if name == "verify-dense":
        ops = _verify_ops("dense", _dense_instances(rng, DENSE_INSTANCES), workdir, record)
    elif name == "verify-perturbed":
        found = _perturbed_instances(
            rng,
            PERTURBED_INSTANCES,
            PERTURBED_CANDIDATES,
            lambda n, c: (c + 2) * n * n,
            PERTURBED_COST,
        )
        ops = _verify_ops("perturbed", found, workdir, record)
    elif name == "bottleneck-ladder":
        ops = []
        for points in LADDER_POINTS:
            ops += _shift_ops(rng, points, workdir, record)
        found = _perturbed_instances(
            rng, LADDER_PAIRS, LADDER_PAIR_CANDIDATES, lambda n, c: n, LADDER_PAIR_N
        )
        ops += _pair_ops(found, workdir, record)
        probe = _shift_ops(rng, DEFECT_POINTS, workdir, record)
    else:
        raise SetupError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    # Re-run the first operation at the end of every pass, so the
    # byte-identical-output check always has a repeat to compare.
    first = ops[0]
    ops.append(dataclasses.replace(first, name=first.name + "-repeat"))
    return Workload(ops, probe, record)
