"""A mutation catalogue: small edits of ``src/`` that named tests must kill.

Each entry is (file, exact old text, new text, test node ids).  For each,
the runner copies ``src/`` to a temporary directory, replaces the old text
in the copy, and runs the node ids with pytest, ``PYTHONPATH`` set to the
copy.  Every named test must then fail.  The catalogue fails (exit 1) if
an old text does not occur exactly once in its file, if pytest does not
run a named test, or if a named test passes under its mutant.  Standard
library and pytest only; run it from anywhere:

    python tests/mutants.py
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CATALOGUE = [
    # diagram_from_pivots reads each death from the birth simplex
    (
        "src/phstab/persistence.py",
        "tuple(None if pv.death is None else nums[pv.death] for pv in pairs)",
        "tuple(None if pv.death is None else nums[pv.birth] for pv in pairs)",
        [
            "tests/test_acceptance.py::test_2_interval_certificates_stay_within_their_share",
            "tests/test_acceptance.py::test_carried_certificates_equal_the_from_scratch_reference",
        ],
    ),
    # re-identification at a crossing gives each point the last unused
    # equal point instead of the first
    (
        "src/phstab/stability.py",
        "step.append(bucket.pop())",
        "step.append(bucket.pop(0))",
        [
            "tests/test_acceptance.py::test_local_reidentification_equals_the_bucket_twin",
            "tests/test_cli.py::test_verify_machine_of_two_swapping_vertices_is_pinned",
        ],
    ),
]

# The three mid-size reference cases, which carry one vineyard across
# hundreds of crossings.
MID_SIZE = [
    "tests/test_acceptance.py::test_carried_certificates_equal_the_reference_at_mid_size"
    + case
    for case in ("[1-12-0.5-78-672]", "[2-14-0.4-60-468]", "[3-16-0.35-66-655]")
]

# Vineyard.transpose, one mutant per branch: each drops that branch's column
# operations or its pivot hand-over.
CATALOGUE += [
    ("src/phstab/persistence.py", old, new, MID_SIZE)
    for old, new in [
        # both give birth: V loses its entry at (a, b)
        (
            "            if a_in_vb:\n                V[b] ^= V[a]\n            k, l",
            "            k, l",
        ),
        # both give birth, a essential: b's death passes to a
        (
            "low[l], owner[a], owner[b] = a, l, None",
            "pass",
        ),
        # both give birth, k before l: l takes k's column
        (
            "                    R[l] ^= R[k]\n                    V[l] ^= V[k]\n",
            "                    pass\n",
        ),
        # both give birth, l before k: k takes l's column
        (
            "                    R[k] ^= R[l]\n                    V[k] ^= V[l]\n",
            "",
        ),
        # both die: b takes a's column
        (
            "                R[b] ^= R[a]\n                V[b] ^= V[a]\n                if",
            "                if",
        ),
        # both die, low of a after low of b: a takes b's column
        (
            "                    R[a] ^= R[b]\n                    V[a] ^= V[b]\n",
            "",
        ),
        # a dies, b gives birth: the two column additions
        (
            "                R[b] ^= R[a]\n                V[b] ^= V[a]\n"
            "                R[a] ^= R[b]\n                V[a] ^= V[b]\n",
            "",
        ),
        # a gives birth, b dies: V loses its entry at (a, b)
        (
            "        elif a_in_vb:  # a gives birth, b dies\n            V[b] ^= V[a]",
            "        elif a_in_vb:  # a gives birth, b dies\n            pass",
        ),
    ]
]

# matching_cost, the int cost that verify re-checks its matchings with
CATALOGUE += [
    # a matched pair costs its birth gap alone
    (
        "src/phstab/bottleneck.py",
        "cost = max(abs(b0 - b1), abs(d0 - d1))",
        "cost = abs(b0 - b1)",
        [
            "tests/test_bottleneck.py::test_matching_cost_pins_its_messages_and_equals_the_fraction_twin",
            "tests/test_acceptance.py::test_int_recheck_equals_the_fraction_twin_on_the_corpus",
        ],
    ),
    # a matching that leaves a point out is not rejected
    (
        "src/phstab/bottleneck.py",
        "if len(used0) != len(dims0) or len(used1) != len(dims1):",
        "if False:",
        [
            "tests/test_bottleneck.py::test_matching_cost_pins_its_messages_and_equals_the_fraction_twin",
        ],
    ),
]

_OUTCOME = re.compile(r"(PASSED|FAILED|ERROR) (\S+)")


def survivors(file: str, old: str, new: str, tests: list) -> list:
    """What keeps one mutant alive, as text; empty if every test kills it."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp, "src")
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = Path(tmp, file)
        text = path.read_text()
        if text.count(old) != 1:
            return [f"old text occurs {text.count(old)} times in {file}"]
        path.write_text(text.replace(old, new))
        env = {**os.environ, "PYTHONPATH": str(src)}
        # pyproject's pythonpath would put the checkout's src/ first
        cmd = [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider"]
        cmd += ["-o", "pythonpath=", *tests]
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    outcomes: dict = {}
    for line in done.stdout.splitlines():
        m = _OUTCOME.match(line)
        if m:
            outcomes.setdefault(m[2], set()).add(m[1])
    out = []
    for test in tests:
        got = outcomes.get(test)
        if not got:
            out.append(f"{test} did not run")
        elif got == {"PASSED"}:
            out.append(f"{test} passed")
    return out


def main() -> int:
    failed = 0
    for file, old, new, tests in CATALOGUE:
        start = time.perf_counter()
        problems = survivors(file, old, new, tests)
        took = time.perf_counter() - start
        verdict = "SURVIVED" if problems else "killed"
        print(f"{verdict} ({took:.1f} s): {file}: {old!r} -> {new!r}")
        for line in problems or tests:
            print(f"    {line}")
        failed += bool(problems)
    print(f"{len(CATALOGUE) - failed} of {len(CATALOGUE)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
