"""Check that the command line writes the same bytes at REF as in the working tree.

    python tools/same_outputs.py REF

Exports REF's ``src`` with ``git archive`` into a temporary directory, writes
one fixed CSV and one fixed LIBSVM training file from a seeded NumPy draw,
plus a balanced and an unbalanced CSV with more than one 64-row distance
block per class, and runs the same twenty-three commands (score, train,
predict, select and diagnose)
against REF's package and against the working tree's ``src``. Each side runs
in its own directory with relative paths, so messages compare too. Every
output file, exit code, stdout and stderr is compared; the selector timings
that ``select`` prints to stderr are left out. For a JSON or CSV file whose
bytes differ, it also prints the largest relative difference over the numbers
at the same place on both sides, or "structure differs" when anything else
(a key, a length, a string) does. Prints each difference and exits 1 if there
is any, else 0. Needs only git and the package's own dependencies.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

COMMANDS = [
    "score --data train.csv --gammas 0.1,1,10 --out score_csv",
    "score --data train.svm --format libsvm --gammas 0.1,1,10 --out score_svm",
    # Laplacian kernels score from the square-rooted distances
    "score --data train.csv --families laplacian,gaussian --gammas 0.1,1 --out score_mixed",
    # most kernel values underflow, so exp gathers the arguments that do not
    "score --data train.csv --gammas 100,1000,10000 --out score_gather",
    # several Laplacian kernels share one square root; gamma = 1e6 gathers
    "score --data train.csv --families laplacian --gammas 0.1,1,1000000 --out score_laplacian",
    # more than 64 rows per class: each sum is added up over several distance
    # blocks; gamma = 100 gathers
    "score --data balanced.csv --families gaussian,laplacian,gaussian --gammas 0.5,0.5,100 --out score_balanced",
    "score --data unbalanced.csv --families gaussian,laplacian,gaussian --gammas 0.5,0.5,100 --out score_unbalanced",
    "train --data train.csv --gammas 0.1,1 --draws 64 --epochs 30 --out full.json",
    # a wide ball and a weak penalty: the active set changes between epochs
    "train --data train.csv --gammas 0.1,1 --draws 64 --epochs 60 --R 300 --lam 0.001 --out hinge.json",
    "train --data train.csv --gammas 0.01,0.1,1,10 --draws 32 --epochs 10 --batch-size 16 --out mini.json",
    # a model without a standardization record: predict scores the rows as they are
    "train --data train.csv --gammas 0.1,1 --draws 64 --epochs 30 --no-standardize --out raw.json",
    "predict --model full.json --data train.svm --format libsvm --out full_pred.csv",
    "predict --model mini.json --data train.csv --out mini_pred.csv",
    "predict --model raw.json --data train.csv --out raw_pred.csv",
    "select --data train.csv --gammas 0.01,0.1,1,10 --folds 3 --draws 32 --epochs 10 --out select_data",
    "select --synthetic two-gaussian --synthetic-n 120 --gammas 0.1,1,10 --folds 3 --draws 32 --epochs 10 --out select_syn",
    "diagnose --data train.csv --gammas 0.5,2 --draws 64,256 --trials 2 --pairs 20 --out diag_sweep",
    "diagnose --synthetic two-gaussian --synthetic-n 80 --families laplacian --gammas 0.5,2 --draws 128 --trials 2 --out diag_laplacian",
    # trial banks 5 and 6: the concentration rows follow --seed
    "diagnose --data train.csv --families gaussian,laplacian,gaussian --gammas 0.5,2,8 --draws 32,128 --trials 2 --seed 5 --pairs 10 --out diag_mixed",
    # 60 rows above mD = 16: each kernel block is a single panel narrower than n
    "diagnose --data train.csv --gammas 0.5,2 --draws 8 --trials 2 --pairs 5 --out diag_tall",
    # n = 300 spans three 128-row strips of G, and D = 300 and 600 span two and three column panels
    "diagnose --synthetic two-gaussian --synthetic-n 300 --gammas 0.5,2 --draws 300,600 --trials 2 --pairs 10 --out diag_strips",
    # n = 129 is one full 128-row strip of G and a one-row strip
    "diagnose --synthetic two-gaussian --synthetic-n 129 --gammas 0.5,2 --draws 64,300 --trials 2 --pairs 10 --out diag_edge",
    # one kernel whose blocks are each a single panel: G is one panel's Gram added into zeros
    "diagnose --data train.csv --gammas 0.5 --draws 64,256 --trials 2 --pairs 10 --out diag_one_panel",
]

# `select` reports how long each selector took; wall time is not an output
TIMINGS = re.compile(r" \(cv [0-9.]+s, mmd [0-9.]+s\)")


def _csv(X: np.ndarray, y: np.ndarray) -> str:
    header = ",".join(f"f{j + 1}" for j in range(X.shape[1])) + ",label"
    return "\n".join([header] + [",".join(map(repr, row.tolist())) + f",{label}" for row, label in zip(X, y)]) + "\n"


def write_inputs(directory: Path) -> None:
    """A 60-row, 3-column two-class problem, as CSV and as LIBSVM; then 100/100 and 150/90 rows as CSV."""
    rng = np.random.default_rng(20190101)
    X = rng.normal(size=(60, 3)) + np.repeat([[1.0], [-1.0]], 30, axis=0)
    y = np.repeat([1, -1], 30)
    svm = [f"{label} " + " ".join(f"{j + 1}:{v!r}" for j, v in enumerate(row.tolist())) for row, label in zip(X, y)]
    (directory / "train.csv").write_text(_csv(X, y))
    (directory / "train.svm").write_text("\n".join(svm) + "\n")
    for name, n_pos, n_neg in (("balanced.csv", 100, 100), ("unbalanced.csv", 150, 90)):
        y = np.repeat([1, -1], [n_pos, n_neg])
        X = rng.normal(size=(n_pos + n_neg, 3)) + 0.5 * y[:, None]
        (directory / name).write_text(_csv(X, y))


def _fields(path: Path):
    """A JSON document's or CSV table's leaves in order, numbers as floats.

    Keys, strings and the length of every list and row come as they are, so
    two files of the same structure give equal non-numeric fields.
    """

    def leaves(doc):
        if isinstance(doc, dict):
            yield ("{", len(doc))
            for key, value in doc.items():
                yield key
                yield from leaves(value)
        elif isinstance(doc, list):
            yield ("[", len(doc))
            for value in doc:
                yield from leaves(value)
        else:
            yield float(doc) if type(doc) in (int, float) else doc

    def cell(text):
        try:
            return float(text)
        except ValueError:
            return text

    text = path.read_text()
    if path.suffix == ".json":
        yield from leaves(json.loads(text))
    else:
        for row in csv.reader(io.StringIO(text)):
            yield ("row", len(row))
            yield from map(cell, row)


def _relative(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def largest_move(old: Path, new: Path) -> str:
    """The largest relative difference between two JSON or CSV files' numbers."""
    try:
        pairs = list(zip(_fields(old), _fields(new), strict=True))
    except ValueError:  # unequal field counts, or a file that does not parse
        return "structure differs"
    if any(type(a) is not type(b) or (type(a) is not float and a != b) for a, b in pairs):
        return "structure differs"
    moves = [_relative(a, b) for a, b in pairs if type(a) is float]
    return f"largest relative difference {max(moves, default=0.0):.2e}"


def run_side(src: Path, directory: Path) -> list[tuple[int, str, str]]:
    """Run every command with ``src`` on the path; (exit code, stdout, stderr) each."""
    directory.mkdir()
    write_inputs(directory)
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    results = []
    for command in COMMANDS:
        done = subprocess.run([sys.executable, "-m", "kernelmix.cli", *command.split()],
                              cwd=directory, env=env, capture_output=True, text=True)
        results.append((done.returncode, done.stdout, TIMINGS.sub("", done.stderr)))
    return results


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    ref = argv[0]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "archive", "--format=tar", ref, "src"], cwd=ROOT, capture_output=True)
        if archive.returncode != 0:
            print(archive.stderr.decode().strip(), file=sys.stderr)
            return 2
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp / "ref", filter="data")
        ref_runs = run_side(tmp / "ref" / "src", tmp / "ref_run")
        new_runs = run_side(ROOT / "src", tmp / "new_run")

        differences = []
        for command, old, new in zip(COMMANDS, ref_runs, new_runs):
            for what, a, b in zip(("exit code", "stdout", "stderr"), old, new):
                if a != b:
                    differences.append(f"{what} of `{command}`: {a!r} at {ref}, {b!r} here")
        old_files = {p.name for p in (tmp / "ref_run").iterdir()}
        new_files = {p.name for p in (tmp / "new_run").iterdir()}
        for name in sorted(old_files ^ new_files):
            differences.append(f"{name}: written {'only at ' + ref if name in old_files else 'only here'}")
        for name in sorted(old_files & new_files):
            ref_file, new_file = tmp / "ref_run" / name, tmp / "new_run" / name
            if ref_file.read_bytes() != new_file.read_bytes():
                moved = f"; {largest_move(ref_file, new_file)}" if ref_file.suffix in (".json", ".csv") else ""
                differences.append(f"{name}: bytes differ{moved}")

    for line in differences:
        print(line)
    print(f"{len(COMMANDS)} commands, {len(old_files | new_files)} files: "
          f"{len(differences) or 'no'} difference{'' if len(differences) == 1 else 's'} against {ref}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
