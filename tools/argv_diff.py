"""Compare the CLI of the working tree with that of a parent commit, argv by argv.

    python3 tools/argv_diff.py PARENT

PARENT (any commit name git accepts) is checked out into a temporary git
worktree, removed again at the end.  Each argv below runs in a fresh
``python3 -m trident.cli`` on both trees, with stdin closed and the tree's
own ``src`` on PYTHONPATH:

* every ``$ trident`` line of each tests/data/*.txt file (a transcript);
* ``tables``, and ``verify`` in pretty and in JSON;
* the cli workload argv of seeds 0-5 with their environments, read from
  perfbench/workloads.py of the working tree.

Each argv whose exit code, stdout sha256 or stderr sha256 differs is
printed with what differs; the exit status is 1 if any does, else 0.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(6)
PROMPT = "$ trident "


def argv_list() -> list[tuple[list[str], dict]]:
    """(argv, extra environment) of each run, each distinct pair once, in order."""
    runs = []
    for path in sorted((ROOT / "tests" / "data").glob("*.txt")):
        for line in path.read_text().splitlines():
            if line.startswith(PROMPT):
                runs.append((line[len(PROMPT):].split(), {}))
    runs += [(["tables"], {}), (["verify"], {}), (["verify", "--format", "json"], {})]
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    for seed in SEEDS:
        runs += [(req["argv"], req.get("env", {})) for req in workloads.generate("cli", seed)]
    unique = {(tuple(argv), tuple(sorted(env.items()))): (argv, env) for argv, env in runs}
    return list(unique.values())


def outcome(tree: Path, argv: list[str], env: dict) -> tuple[int, str, str]:
    """(exit code, stdout sha256, stderr sha256) of one fresh CLI process in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **env)
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        code = subprocess.call([sys.executable, "-m", "trident.cli", *argv], cwd=tree, env=env,
                               stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        digests = []
        for stream in (out, err):
            stream.seek(0)
            digest = hashlib.sha256()
            for chunk in iter(lambda: stream.read(1 << 20), b""):
                digest.update(chunk)
            digests.append(digest.hexdigest())
    return code, *digests


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        sys.exit(__doc__.split("\n\n")[1])
    runs = argv_list()
    with tempfile.TemporaryDirectory() as scratch:
        parent = Path(scratch) / "parent"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--quiet", "--detach",
                        str(parent), argv[0]], check=True)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                results = pool.map(lambda run: (outcome(parent, *run), outcome(ROOT, *run)),
                                   runs)
                differing = 0
                for (args, env), (before, after) in zip(runs, results):
                    what = [label for label, b, a in zip(("exit", "stdout", "stderr"),
                                                         before, after) if b != a]
                    if what:
                        differing += 1
                        setting = "".join(f"{k}={v} " for k, v in env.items())
                        print(f"{setting}trident {' '.join(args)}: {', '.join(what)} differ"
                              f" (exit {before[0]} -> {after[0]})", flush=True)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(parent)],
                           check=True)
    print(f"{differing} of {len(runs)} argv differ from {argv[0]}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
