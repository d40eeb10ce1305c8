"""Do two source trees write the same output bytes?

    python tools/samebytes.py BASE [HEAD] [--bank NAME ...]

Exports the git revision BASE (and HEAD, when given; otherwise the working
tree of this checkout is used) and runs one fixed matrix of pplr commands
under each tree, with one BLAS thread. The banks are the small
``criterion10`` bank, the default bank, one bank per perfbench workload,
``tie-heavy``, a noise-free bank whose duplicate rows tie at top-k
cut-offs, and ``n300``, 25 identities of 12 samples (N = 300, not a
multiple of 8, where a whole-matrix Gram product and 32-row slabs differ
in the last bit). For every bank it writes the bank with ``pplr simgen``,
then runs ``cluster``, ``agree``, ``refine``, ``eval``, ``train`` and
``pipeline`` (plain, ``--constant-alpha 0.7``, ``--mode baseline`` and
``--lambda-cam 0``, which builds no camera proxies),
and ``cluster``, ``agree``, ``refine`` and ``eval`` once more without
``--out``, saving what they print to stdout. Once per tree it also runs
``ERROR_RUNS``, commands that fail on a bad config file, flag or bank,
saving what they print to stderr. It compares every exit code and the
SHA-256 of every file written, bank, outputs, saved stdout and stderr and
models, and prints each file that differs with its two digests.

A second leg reruns the ``cluster``, ``agree`` and ``eval`` commands of
the head tree at two BLAS threads on the head's banks, and compares their
exit codes and output files with the head's own one-thread ones.
``train`` and ``pipeline`` are left out: some of their loss values still
round differently at two threads.

Exit status: 0 when every file and every command exit code match in both
legs, 1 when something differs, 2 when a revision cannot be exported.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import struct
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
    # N = 300 = 8 * 37 + 4: every other bank's N is a multiple of 8.
    "n300": {
        "synth": {"n_identities": 25, "samples_per_identity": 12, "seed": 4},
        "pipeline": {"epochs": 2, "iters_per_epoch": 10, "seed": 1},
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

# Commands that the second leg reruns at two BLAS threads.
THREADED_COMMANDS = ("cluster", "agree", "eval")

# Where the failing commands find their inputs: they run from a tree's
# output directory, which lies beside configs/, so the paths in their
# messages are the same for both trees.
ERROR_INPUTS = "../configs/errors"

# Failing commands: (name, config file text or None, argv).
ERROR_RUNS = [
    ("unknown-key", '{"refinement": {"betta": 0.5}}', ["simgen"]),
    ("type-mismatch", '{"dbscan": {"min_samples": 2.5}}', ["cluster"]),
    ("config-nan", '{"refinement": {"beta": NaN}}', ["refine"]),
    ("constraint", '{"refinement": {"beta": 1.5}}', ["train"]),
    ("invalid-json", "{not json", ["pipeline"]),
    ("beta-2", None, ["agree", "--beta", "2"]),
    ("lr-nan", None, ["train", "--lr", "nan"]),
    ("seed-negative", None, ["simgen", "--seed", "-1"]),
    ("missing-bank", None, ["cluster", "--bank", f"{ERROR_INPUTS}/missing.pplb"]),
    ("truncated-bank", None, ["eval", "--bank", f"{ERROR_INPUTS}/truncated.pplb"]),
]

# A version-1 bank header for 4 samples of dimension 2 with one part
# space, and 8 of the 64 payload bytes it promises.
TRUNCATED_BANK = struct.pack("<4sIIIHH", b"PPLB", 1, 4, 2, 1, 0) + bytes(8)

# Runs a list of [pplr argv, stdout path or null, stderr path or null]
# triples in one interpreter and prints their exit codes.
_RUNNER = """
import contextlib, json, sys
from pplr.cli import main

def run(argv, stdout_path, stderr_path):
    with contextlib.ExitStack() as stack:
        for path, redirect in ((stdout_path, contextlib.redirect_stdout),
                               (stderr_path, contextlib.redirect_stderr)):
            if path is not None:
                fh = stack.enter_context(open(path, "w", encoding="utf-8"))
                stack.enter_context(redirect(fh))
        return main(argv)

print(json.dumps([run(*triple) for triple in json.loads(sys.argv[1])]))
"""


def write_configs(config_dir: Path, banks) -> None:
    """The config of every bank, and the inputs of ``ERROR_RUNS`` in its
    errors/ directory."""
    (config_dir / "errors").mkdir(parents=True)
    for name in banks:
        (config_dir / f"{name}.json").write_text(json.dumps(BANKS[name]), "utf-8")
    for name, text, _ in ERROR_RUNS:
        if text is not None:
            (config_dir / "errors" / f"{name}.json").write_text(text, "utf-8")
    (config_dir / "errors" / "truncated.pplb").write_bytes(TRUNCATED_BANK)


def matrix(config_dir: Path, out: Path, banks) -> list:
    """(label, argv, stdout path or None, stderr path or None) of every
    command of the matrix, writing under ``out``."""
    (out / "errors").mkdir(parents=True)
    runs = [
        (f"errors/{name}",
         [*argv, *(["--config", f"{ERROR_INPUTS}/{name}.json"] if text is not None else [])],
         None, str(out / "errors" / f"{name}.stderr"))
        for name, text, argv in ERROR_RUNS
    ]
    for name in banks:
        bank_out = out / name
        bank_out.mkdir(parents=True)
        config = config_dir / f"{name}.json"
        bank = bank_out / "bank.pplb"
        simgen = ["simgen", "--config", str(config), "--out", str(bank)]
        runs.append((f"{name}/simgen", simgen, None, None))
        for stem, command, flags in COMMANDS:
            argv = [command, "--config", str(config), "--bank", str(bank),
                    "--out", str(bank_out / f"{stem}.jsonl"), *flags]
            if command in ("train", "pipeline"):
                argv += ["--model-out", str(bank_out / f"{stem}.pplm")]
            runs.append((f"{name}/{stem}", argv, None, None))
        for command in STDOUT_COMMANDS:
            argv = [command, "--config", str(config), "--bank", str(bank)]
            stdout = str(bank_out / f"{command}-stdout.jsonl")
            runs.append((f"{name}/{command}-stdout", argv, stdout, None))
    return runs


def threaded_matrix(config_dir: Path, head: Path, out: Path, banks) -> list:
    """(label, argv, None, None) of every ``THREADED_COMMANDS`` run on the
    banks that the head wrote under ``head``, writing under ``out``."""
    runs = []
    for name in banks:
        (out / name).mkdir(parents=True)
        for command in THREADED_COMMANDS:
            argv = [command, "--config", str(config_dir / f"{name}.json"),
                    "--bank", str(head / name / "bank.pplb"),
                    "--out", str(out / name / f"{command}.jsonl")]
            runs.append((f"{name}/{command}", argv, None, None))
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


def start(tree: Path, runs: list, cwd: Path, threads: int = 1) -> subprocess.Popen:
    """Run ``runs``, [argv, stdout path or None, stderr path or None]
    triples, with the pplr of ``tree`` and ``threads`` BLAS threads in one
    child process."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return subprocess.Popen(
        [sys.executable, "-c", _RUNNER, json.dumps(runs)], env=env, cwd=cwd,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def finish(side: str, proc: subprocess.Popen):
    """The exit codes of the commands that ``proc`` ran, or None, with its
    stderr printed, when the runner itself failed."""
    out, err = proc.communicate()
    if proc.returncode != 0:
        print(f"{side}: the command runner failed:\n{err}", file=sys.stderr)
        return None
    return json.loads(out.strip().splitlines()[-1])


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
            side: start(tree, [list(run[1:]) for run in runs[side]], tmp / side)
            for side, tree in trees.items()
        }
        codes = {side: finish(side, proc) for side, proc in procs.items()}
        if None in codes.values():
            return 1
        # The second leg reads the banks that the head has written.
        runs["threads"] = threaded_matrix(tmp / "configs", tmp / "head", tmp / "threads", banks)
        codes["threads"] = finish("head at 2 BLAS threads", start(
            trees["head"], [list(run[1:]) for run in runs["threads"]], tmp / "threads", threads=2
        ))
        if codes["threads"] is None:
            return 1
        head_digests = digests(tmp / "head")
        differ = compare(digests(tmp / "base"), head_digests)
        threaded_digests = digests(tmp / "threads")
        threaded_differ = compare(
            {path: head_digests.get(path) for path in threaded_digests}, threaded_digests
        )

    labels = [run[0] for run in runs["head"]]
    codes_differ = False
    for label, base_code, head_code in zip(labels, codes["base"], codes["head"]):
        if base_code != head_code:
            print(f"exit code differs: {label}: base {base_code}, head {head_code}")
            codes_differ = True
        elif base_code != 0:
            print(f"note: {label} exited {base_code} under both trees")
    head_codes = dict(zip(labels, codes["head"]))
    for (label, *_), code in zip(runs["threads"], codes["threads"]):
        if code != head_codes[label]:
            print(f"exit code differs at 2 BLAS threads: {label}: 1 thread "
                  f"{head_codes[label]}, 2 threads {code}")
            codes_differ = True
    for path, base_digest, head_digest in differ:
        print(f"differs: {path}\n  base {base_digest}\n  head {head_digest}")
    for path, one, two in threaded_differ:
        print(f"differs at 2 BLAS threads: {path}\n  1 thread  {one}\n  2 threads {two}")
    print(f"{len(head_digests)} files compared over {len(banks)} banks; {len(differ)} differ")
    print(f"{len(threaded_digests)} files compared at 2 BLAS threads; "
          f"{len(threaded_differ)} differ")
    return 1 if codes_differ or differ or threaded_differ else 0


if __name__ == "__main__":
    sys.exit(main())
