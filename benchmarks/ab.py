"""Paired A/B runs of ``perfbench/run.py``: a base checkout against the working tree.

Run from the repository root::

    python benchmarks/ab.py --workload study_sweep --pairs 10 --seed 1 --claim goodput_per_s

Pair ``i`` runs ``perfbench/run.py --workload W --seed <seed + i> --seconds S
--trace 0`` once in each tree, where ``S`` is ``BENCHMARK.json``'s
``run_seconds``, and the side that runs first flips every pair.  The base is
a git revision (default ``HEAD``), extracted with ``git archive`` into a
temporary directory (``TMPDIR`` places it) and removed on exit; nothing is
registered in the repository, so an interrupted run leaves no stale
worktree.  Each run is appended as one JSON line to
``benchmarks/results/history.jsonl``, with its run length and perfbench's
provenance line (host, numpy, BLAS and its thread variables, seed).

The summary gives, for each end-to-end metric of ``BENCHMARK.json``, each
side's median [quartiles], the pairs the change won (ties count for neither
side), the ratio of the medians, and a verdict:

* ``gain`` (the ``--claim`` metric only): the change won at least nine tenths
  of the pairs and its median beats the base's by more than the base's
  interquartile range; a claim that falls short reads ``not shown``;
* ``regressed``: the change's median is worse than the base's by more than
  the metric's ``BENCHMARK.json`` bound;
* ``unresolved``: the base's own spread (interquartile range over median) is
  wider than the bound, and not every change run beats every base run;
* ``within bound`` otherwise.

The exit code is 0 when every run read ``correct`` with no failed operation
and no metric regressed, 1 otherwise, and 2 when a run could not finish.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HISTORY = ROOT / "benchmarks" / "results" / "history.jsonl"
#: The share of pairs the change must win before a gain is claimed.
CLAIM_WIN_SHARE = 0.9


def load_benchmark(path: Path) -> tuple[dict, float]:
    """``{metric: (better, bound)}`` for the end-to-end metrics of
    ``BENCHMARK.json``, and its ``run_seconds``."""
    spec = json.loads(Path(path).read_text())
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    return bounds, spec["run_seconds"]


def parse_run(stdout: str) -> dict:
    """One perfbench run's ``provenance`` and final result lines."""
    provenance, result = None, None
    for line in stdout.splitlines():
        if line.startswith("provenance "):
            provenance = json.loads(line[len("provenance "):])
        elif line.startswith("{"):
            try:
                parsed = json.loads(line)
            except json.JSONDecodeError:
                continue
            if "correct" in parsed:
                result = parsed
    if result is None:
        raise ValueError("no result line in the run's output")
    return {"provenance": provenance, "result": result}


def run_ok(result: dict) -> bool:
    """Whether a run's output check passed with no failed operation."""
    return bool(result["correct"]) and result["failed"] == 0


def quartiles(values) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method)."""
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs, bounds: dict, claim: str | None = None) -> list[dict]:
    """One row per metric from ``pairs`` of ``(base_result, change_result)``."""
    rows = []
    for name, (better, bound) in bounds.items():
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        losses = sum(sign * (c - b) < 0 for b, c in zip(base, change))
        b_q1, b_med, b_q3 = quartiles(base)
        c_q1, c_med, c_q3 = quartiles(change)
        worse = -sign * (c_med - b_med) / abs(b_med) if b_med else 0.0
        if worse > bound:
            verdict = "regressed"
        elif name == claim:
            gained = wins >= CLAIM_WIN_SHARE * len(pairs) and sign * (c_med - b_med) > b_q3 - b_q1
            verdict = "gain" if gained else "not shown"
        elif b_med and (b_q3 - b_q1) / abs(b_med) > bound and not (
            min(sign * c for c in change) > max(sign * b for b in base)
        ):
            verdict = "unresolved"
        else:
            verdict = "within bound"
        rows.append({
            "metric": name, "better": better, "bound": bound,
            "base": (b_q1, b_med, b_q3), "change": (c_q1, c_med, c_q3),
            "wins": wins, "losses": losses, "pairs": len(pairs),
            "ratio": c_med / b_med if b_med else float("nan"), "verdict": verdict,
        })
    return rows


def format_summary(workload: str, rows: list[dict], pairs) -> list[str]:
    """The summary table, then one line on the runs' own checks."""

    def cell(q):
        return f"{q[1]:.4g} [{q[0]:.4g}–{q[2]:.4g}]"

    lines = [
        f"{workload}: {len(pairs)} pairs",
        "| metric | base | change | change won | ratio | verdict |",
        "|---|---|---|---|---|---|",
    ]
    for r in rows:
        lines.append(
            f"| `{r['metric']}` ({r['better']} is better, bound {r['bound']:.0%}) "
            f"| {cell(r['base'])} | {cell(r['change'])} | {r['wins']}/{r['pairs']} "
            f"| {r['ratio']:.3f}× | {r['verdict']} |"
        )
    bad = sum(not run_ok(result) for pair in pairs for result in pair)
    lines.append(
        "every run correct with 0 failed" if not bad else f"CHECK FAILED in {bad} runs"
    )
    return lines


def _git(*args, cwd=ROOT) -> str:
    out = subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def _working_tree() -> str:
    """The working tree's commit, marked ``+dirty`` when tracked files differ."""
    commit = _git("rev-parse", "HEAD")
    dirty = _git("status", "--porcelain", "--untracked-files=no")
    return commit + ("+dirty" if dirty else "")


def _extract(commit: str, into: Path) -> None:
    """The files of ``commit``, as ``git archive`` exports them, under ``into``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", commit], cwd=ROOT, capture_output=True, check=True
    ).stdout
    into.mkdir()
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, capture_output=True, check=True)


def _perfbench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode not in (0, 1):  # 1 is a failed output check, still a result
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise RuntimeError(f"perfbench exited with {proc.returncode} in the {tree.name} tree")
    return parse_run(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--base", default="HEAD", help="git revision of the base side")
    parser.add_argument("--claim", help="the metric a gain is claimed on")
    args = parser.parse_args(argv)
    bounds, seconds = load_benchmark(ROOT / "BENCHMARK.json")
    if args.claim is not None and args.claim not in bounds:
        parser.error(f"--claim must be one of {sorted(bounds)}")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    scratch = Path(tempfile.mkdtemp(prefix="ab-"))
    pairs = []
    try:
        commits = {
            "base": _git("rev-parse", "--verify", f"{args.base}^{{commit}}"),
            "change": _working_tree(),
        }
        trees = {"base": scratch / "base", "change": ROOT}
        _extract(commits["base"], trees["base"])
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            runs = {}
            for side in order:
                runs[side] = _perfbench(trees[side], args.workload, seed, seconds)
                record = {
                    "utc": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
                    "workload": args.workload, "pair": i, "seed": seed, "seconds": seconds,
                    "side": side, "first": side == order[0], "commit": commits[side],
                    **runs[side],
                }
                HISTORY.parent.mkdir(exist_ok=True)
                with HISTORY.open("a") as history:
                    history.write(json.dumps(record, sort_keys=True) + "\n")
            pairs.append((runs["base"]["result"], runs["change"]["result"]))
            print(f"pair {i + 1}/{args.pairs} seed {seed} ({order[0]} first) done "
                  f"{time.strftime('%H:%M:%S')}", flush=True)
    except subprocess.CalledProcessError as exc:
        detail = exc.stderr.decode(errors="replace") if isinstance(exc.stderr, bytes) else exc.stderr
        sys.stderr.write(f"A/B set-up failed: {' '.join(exc.cmd)}: {detail.strip()}\n")
        return 2
    except (OSError, RuntimeError, ValueError) as exc:
        sys.stderr.write(f"A/B run failed: {exc}\n")
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    rows = summarize(pairs, bounds, args.claim)
    print(f"base {commits['base']} vs change {commits['change']}")
    for line in format_summary(args.workload, rows, pairs):
        print(line)
    ok = all(run_ok(r) for pair in pairs for r in pair)
    return 0 if ok and all(r["verdict"] != "regressed" for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
