"""Do two source trees write the same output bytes?

    python tools/samebytes.py BASE [HEAD] [--bank NAME ...]

Exports the git revision BASE (and HEAD, when given; otherwise the working
tree of this checkout is used) and runs one fixed matrix of pplr commands
under each tree, with one BLAS thread. The banks are the small
``criterion10`` bank, the default bank, one bank per perfbench workload and
``tie-heavy``, a noise-free bank whose duplicate rows tie at top-k
cut-offs. For every bank it writes the bank with ``pplr simgen``, then
runs ``cluster``, ``agree``, ``refine``, ``eval``, ``train`` and
``pipeline`` (plain, ``--constant-alpha 0.7``, ``--mode baseline`` and
``--lambda-cam 0``, which builds no camera proxies),
and ``cluster``, ``agree``, ``refine`` and ``eval`` once more without
``--out``, saving what they print to stdout. It compares the SHA-256 of
every file written, bank, outputs, saved stdout and models, and prints
each file that differs with its two digests.

Exit status: 0 when every file and every command exit code match, 1 when
something differs, 2 when a revision cannot be exported.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _perfbench_bank(synth: dict, pipeline: dict) -> dict:
    """A bank of perfbench/run.py at benchmark seed 1, with the pipeline
    settings of its workload."""
    return {
        "synth": {"cluster_spread": 0.7, "seed": 1, **synth},
        "dbscan": {"eps": 0.5},
        "pipeline": {"seed": 1, **pipeline},
    }


# Each bank: the config that both simgen and every command read. The
# pipeline settings bound the training work.
BANKS = {
    "criterion10": {
        "synth": {
            "n_identities": 8, "samples_per_identity": 12, "dim": 16, "n_cameras": 3,
            "cluster_spread": 0.5, "occlusion_fraction": 0.1, "camera_shift": 0.3, "seed": 2,
        },
        "dbscan": {"eps": 0.4},
        "pipeline": {
            "epochs": 3, "iters_per_epoch": 5, "batch_p": 4, "batch_k": 2, "proj_dim": 8,
            "k_agreement": 6, "seed": 1,
        },
    },
    "default": {"pipeline": {"epochs": 3}},
    "train-n600": _perfbench_bank({}, {"epochs": 1, "iters_per_epoch": 200}),
    "cluster-n2400": _perfbench_bank({"n_identities": 120}, {"epochs": 1, "iters_per_epoch": 5}),
    "cli-labels-n1800": _perfbench_bank(
        {"n_identities": 90, "n_parts": 6, "occlusion_fraction": [0.2] * 5 + [1.0]},
        {"epochs": 1, "iters_per_epoch": 50},
    ),
    # No noise: 80 distinct rows of 240 (one per identity and camera), so
    # ranked rows tie at their k-th value. With k_agreement 1, the third
    # copy of a row has two equal rows of smaller index ahead of its own,
    # which pushes its own index out of the first k + 1.
    "tie-heavy": {
        "synth": {"n_identities": 20, "samples_per_identity": 12, "cluster_spread": 0.0, "seed": 3},
        "pipeline": {"epochs": 2, "iters_per_epoch": 10, "k_agreement": 1, "seed": 1},
    },
}

# (output stem, subcommand, extra flags); train and pipeline also write a model.
COMMANDS = [
    ("cluster", "cluster", []),
    ("agree", "agree", []),
    ("refine", "refine", []),
    ("eval", "eval", []),
    ("train", "train", []),
    ("pipeline", "pipeline", []),
    ("pipeline-constant-alpha", "pipeline", ["--constant-alpha", "0.7"]),
    ("pipeline-baseline", "pipeline", ["--mode", "baseline"]),
    ("pipeline-no-cam", "pipeline", ["--lambda-cam", "0"]),
]

# Commands that also run without --out; their stdout is saved as <command>-stdout.jsonl.
STDOUT_COMMANDS = ("cluster", "agree", "refine", "eval")

# Runs a list of [pplr argv, stdout path or null] pairs in one interpreter
# and prints their exit codes.
_RUNNER = """
import contextlib, json, sys
from pplr.cli import main

def run(argv, stdout_path):
    if stdout_path is None:
        return main(argv)
    with open(stdout_path, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        return main(argv)

print(json.dumps([run(argv, stdout_path) for argv, stdout_path in json.loads(sys.argv[1])]))
"""


def write_configs(config_dir: Path, banks) -> None:
    config_dir.mkdir(parents=True)
    for name in banks:
        (config_dir / f"{name}.json").write_text(json.dumps(BANKS[name]), "utf-8")


def matrix(config_dir: Path, out: Path, banks) -> list:
    """(label, argv, stdout path or None) of every command of the matrix,
    writing under ``out``."""
    runs = []
    for name in banks:
        bank_out = out / name
        bank_out.mkdir(parents=True)
        config = config_dir / f"{name}.json"
        bank = bank_out / "bank.pplb"
        simgen = ["simgen", "--config", str(config), "--out", str(bank)]
        runs.append((f"{name}/simgen", simgen, None))
        for stem, command, flags in COMMANDS:
            argv = [command, "--config", str(config), "--bank", str(bank),
                    "--out", str(bank_out / f"{stem}.jsonl"), *flags]
            if command in ("train", "pipeline"):
                argv += ["--model-out", str(bank_out / f"{stem}.pplm")]
            runs.append((f"{name}/{stem}", argv, None))
        for command in STDOUT_COMMANDS:
            argv = [command, "--config", str(config), "--bank", str(bank)]
            stdout = str(bank_out / f"{command}-stdout.jsonl")
            runs.append((f"{name}/{command}-stdout", argv, stdout))
    return runs


def export(rev: str, dest: Path) -> Path:
    """Extract the committed tree of ``rev`` into ``dest``."""
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev], capture_output=True
    )
    if proc.returncode != 0:
        print(f"samebytes: cannot export {rev!r}: {proc.stderr.decode().strip()}", file=sys.stderr)
        raise SystemExit(2)
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def start(tree: Path, runs: list, cwd: Path) -> subprocess.Popen:
    """Run ``runs``, [argv, stdout path or None] pairs, with the pplr of
    ``tree`` in one child process."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return subprocess.Popen(
        [sys.executable, "-c", _RUNNER, json.dumps(runs)], env=env, cwd=cwd,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def digests(root: Path) -> dict:
    """SHA-256 of every file under ``root``, keyed by relative path."""
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def compare(a: dict, b: dict) -> list:
    """(relative path, base digest, head digest) of every file whose
    digests in ``a`` and ``b`` differ; a missing file has the digest None."""
    return [(p, a.get(p), b.get(p)) for p in sorted(a.keys() | b.keys()) if a.get(p) != b.get(p)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git revision to compare against")
    parser.add_argument("head", nargs="?", help="git revision (default: the working tree)")
    parser.add_argument("--bank", action="append", choices=sorted(BANKS),
                        help="run only these banks (repeatable; default: all)")
    args = parser.parse_args(argv)
    banks = args.bank or list(BANKS)

    with tempfile.TemporaryDirectory(prefix="samebytes-") as tmp:
        tmp = Path(tmp)
        trees = {"base": export(args.base, tmp / "base-src")}
        trees["head"] = ROOT if args.head is None else export(args.head, tmp / "head-src")
        write_configs(tmp / "configs", banks)
        runs = {side: matrix(tmp / "configs", tmp / side, banks) for side in trees}
        procs = {
            side: start(tree, [[argv, stdout] for _, argv, stdout in runs[side]], tmp / side)
            for side, tree in trees.items()
        }
        outputs = {side: proc.communicate() for side, proc in procs.items()}
        for side, proc in procs.items():
            if proc.returncode != 0:
                print(f"{side}: the command runner failed:\n{outputs[side][1]}", file=sys.stderr)
                return 1
        codes = {side: json.loads(out.strip().splitlines()[-1]) for side, (out, _) in outputs.items()}
        head_digests = digests(tmp / "head")
        differ = compare(digests(tmp / "base"), head_digests)

    labels = [label for label, _, _ in runs["head"]]
    codes_differ = False
    for label, base_code, head_code in zip(labels, codes["base"], codes["head"]):
        if base_code != head_code:
            print(f"exit code differs: {label}: base {base_code}, head {head_code}")
            codes_differ = True
        elif base_code != 0:
            print(f"note: {label} exited {base_code} under both trees")
    for path, base_digest, head_digest in differ:
        print(f"differs: {path}\n  base {base_digest}\n  head {head_digest}")
    print(f"{len(head_digests)} files compared over {len(banks)} banks; {len(differ)} differ")
    return 1 if codes_differ or differ else 0


if __name__ == "__main__":
    sys.exit(main())
