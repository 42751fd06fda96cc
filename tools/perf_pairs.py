#!/usr/bin/env python3
"""Alternating base/change pairs of the wall-clock benchmark.

Run from the repository root:

    python3 tools/perf_pairs.py --base HEAD --pairs 10 --first-seed 101 \\
        --workloads dp_lenet_ring4,lenet_eager

The script freezes both sides before it builds anything: it exports --base
with `git archive`, and it exports a snapshot of the working tree (tracked
files with their edits, plus untracked files that are not ignored) the same
way, each into its own temporary directory.  Edits made while the pairs run
therefore reach neither side.  It builds perfbench for each export through
that export's perfbench/run.py, in separate CARGO_TARGET_DIRs, then runs
--pairs pairs per workload (default: every workload in BENCHMARK.json) at
BENCHMARK.json's run_seconds.  Pair k runs seed first_seed + k on both sides;
even pairs run the base first, odd pairs the change.  Pick seeds that were
not used while developing the change.

For every end-to-end metric it prints each side's median and quartiles
(statistics.quantiles, n=4) over the pairs that completed on both sides, the
change's median relative to the base's, and the change's wins out of all pairs
run (ties, and pairs where either side failed, count for neither).  "gain"
says whether the rule for claiming a gain holds: the change wins at least nine
tenths of the pairs, and its median is better than the base's by more than the
base's interquartile range.  The last column reads "WORSE" when the change's
median is worse than the base's by more than the metric's bound; otherwise
"unresolved" when either side's interquartile range is wider than the bound
times that side's median, unless every change run beats every base run;
otherwise "ok".  Every run's JSON result goes to
.bench_out/pairs-<base>-<time>.json.

Each run's CPU steal share (perfbench's validity.cpu_steal_frac line: the
share of the host's CPU time the hypervisor gave to other guests during the
run) is kept with the run, printed beside it, and summarized per workload:
each side's highest share and the number of pairs where either side saw more
than 5%.  A run whose output lacks the line has an unknown share, never 0.
Steal decides nothing: no pair is dropped for it, and the verdicts above
ignore it.

Exit codes: 0 every run passed and every metric is "ok"; 1 a run failed or a
metric is "WORSE" or "unresolved"; 2 an export or a build failed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(message, code):
    print("tools/perf_pairs.py: " + message, file=sys.stderr)
    sys.exit(code)


def git(args, env=None):
    """Runs git in the repository; returns its stripped standard output."""
    proc = subprocess.run(["git"] + args, cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail("git %s failed" % " ".join(args), 2)
    return proc.stdout.strip()


def snapshot_worktree():
    """Returns the id of a tree object holding the working tree as it is now.

    It stages into a copy of the index, so the real index is left alone."""
    with tempfile.TemporaryDirectory(prefix="perf_pairs-index-") as tmp:
        index = os.path.join(tmp, "index")
        real_index = os.path.join(ROOT, git(["rev-parse", "--git-path",
                                             "index"]))
        if os.path.exists(real_index):
            shutil.copyfile(real_index, index)
        env = dict(os.environ, GIT_INDEX_FILE=index)
        git(["add", "--all"], env=env)
        return git(["write-tree"], env=env)


def export(tree_ish, dest):
    """Writes the files of `tree_ish` into the new directory `dest`."""
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "archive", tree_ish], cwd=ROOT,
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        fail("git archive of %s failed" % tree_ish, 2)


def build(tree, target_dir):
    """Builds perfbench with `tree`'s own perfbench/run.py build step."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    code = ("import sys; sys.path.insert(0, %r); import run; run.build()"
            % os.path.join(tree, "perfbench"))
    print("building perfbench from %s" % tree, file=sys.stderr, flush=True)
    # -B: importing run.py must not leave a __pycache__ in perfbench/.
    if subprocess.run([sys.executable, "-B", "-c", code], cwd=tree,
                      env=env).returncode != 0:
        fail("perfbench build failed in %s" % tree, 2)


STEAL_NOTE = "validity.cpu_steal_frac"
HIGH_STEAL = 0.05


def parse_steal(stdout):
    """Returns a run's CPU steal share from perfbench's text block.

    Returns None (unknown) when no line carries a number for it."""
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) >= 2 and fields[0] == STEAL_NOTE:
            try:
                return float(fields[1])
            except ValueError:
                return None
    return None


def run_once(side, workload, seed, seconds):
    """One benchmark run; returns (exit code, JSON result or None, steal
    share or None)."""
    cmd = [sys.executable, os.path.join(side["tree"], "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    env = dict(os.environ, CARGO_TARGET_DIR=side["target"])
    proc = subprocess.run(cmd, cwd=side["tree"], env=env,
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, result, parse_steal(proc.stdout)


def format_steal(steal):
    return "unknown" if steal is None else "%.1f%%" % (100 * steal)


def steal_summary(pairs):
    """One line: each side's highest steal share and the pairs with more
    than HIGH_STEAL on either side.  Unknown shares are counted apart."""
    parts = []
    for side in ("base", "change"):
        shares = [p[side].get("steal") for p in pairs]
        known = [s for s in shares if s is not None]
        text = format_steal(max(known)) if known else "unknown"
        if known and len(known) < len(shares):
            text += " (%d unknown)" % (len(shares) - len(known))
        parts.append("%s highest %s" % (side, text))
    high = sum(any((p[side].get("steal") or 0.0) > HIGH_STEAL
                   for side in ("base", "change")) for p in pairs)
    unknown = sum(any(p[side].get("steal") is None
                      for side in ("base", "change")) for p in pairs)
    line = "  cpu steal: %s; pairs above %g%% on either side: %d/%d" % (
        ", ".join(parts), 100 * HIGH_STEAL, high, len(pairs))
    if unknown:
        line += " (%d with a share unknown)" % unknown
    return line


def completed(run):
    return run["exit"] == 0 and run["result"] is not None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def better(a, b, lower_is_better):
    return a < b if lower_is_better else a > b


def compare(pairs, metric):
    """Judges one end-to-end metric over `pairs`.

    Returns None when no pair completed on both sides, else a dict with each
    side's median and quartiles, the change's wins, whether the gain rule
    holds ("gain") and the bound verdict ("ok", "WORSE" or "unresolved")."""
    name = metric["name"]
    lower = metric["better"] == "lower"
    complete = [p for p in pairs
                if completed(p["base"]) and completed(p["change"])]
    if not complete:
        return None
    base = [p["base"]["result"]["metrics"][name]["value"] for p in complete]
    change = [p["change"]["result"]["metrics"][name]["value"]
              for p in complete]
    wins = sum(better(c, b, lower) for b, c in zip(base, change))
    base_med, change_med = statistics.median(base), statistics.median(change)
    bq1, bq3 = quartiles(base)
    cq1, cq3 = quartiles(change)
    # A failed pair is a pair the change did not win.
    gain = (wins * 10 >= 9 * len(pairs) and
            better(change_med, base_med, lower) and
            abs(change_med - base_med) > bq3 - bq1)
    bound = metric["bound"]
    limit = base_med * (1 + bound if lower else 1 - bound)
    too_wide = bq3 - bq1 > bound * base_med or cq3 - cq1 > bound * change_med
    separated = (max(change) < min(base) if lower
                 else min(change) > max(base))
    if better(limit, change_med, lower):
        verdict = "WORSE"
    elif too_wide and not separated:
        verdict = "unresolved"
    else:
        verdict = "ok"
    return {"base": (base_med, bq1, bq3), "change": (change_med, cq1, cq3),
            "wins": wins, "gain": gain, "verdict": verdict}


def summarize(workload, pairs, spec):
    """Prints one workload's table; returns the number of problems found."""
    problems = 0
    seeds = [p["seed"] for p in pairs]
    print("\n%s: %d pairs, seeds %d..%d" % (workload, len(pairs), min(seeds),
                                            max(seeds)))
    failed = {"base": 0, "change": 0}
    attempted = {"base": 0, "change": 0}
    for p in pairs:
        for side in ("base", "change"):
            if completed(p[side]):
                failed[side] += p[side]["result"]["failed"]
                attempted[side] += p[side]["result"]["attempted"]
            else:
                failed[side] += 1
                attempted[side] += 1
    print("  failed/attempted: base %d/%d, change %d/%d" %
          (failed["base"], attempted["base"], failed["change"],
           attempted["change"]))
    print(steal_summary(pairs))
    if failed["base"] or failed["change"]:
        problems += 1
    print("  %-12s %-34s %-34s %8s %7s %-5s %s" %
          ("metric", "base median [q1, q3]", "change median [q1, q3]",
           "change", "wins", "gain", "bound"))
    for metric in spec["end_to_end"]:
        c = compare(pairs, metric)
        if c is None:
            print("  no pair completed on both sides")
            return problems + 1
        base_med, change_med = c["base"][0], c["change"][0]
        rel = (change_med / base_med - 1) * 100 if base_med else float("nan")
        problems += c["verdict"] != "ok"
        print("  %-12s %-34s %-34s %+7.1f%% %3d/%-3d %-5s %s" %
              (metric["name"], "%.5g [%.5g, %.5g]" % c["base"],
               "%.5g [%.5g, %.5g]" % c["change"], rel, c["wins"], len(pairs),
               "holds" if c["gain"] else "no",
               "WORSE than %g" % metric["bound"]
               if c["verdict"] == "WORSE" else c["verdict"]))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True,
                        help="git revision to compare the working tree with")
    parser.add_argument("--first-seed", type=int, required=True,
                        help="seed of the first pair; use seeds that were "
                        "not used while developing the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated (default: all)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])

    base_sha = git(["rev-parse", "--verify", args.base + "^{commit}"])
    change_tree = snapshot_worktree()
    scratch = tempfile.mkdtemp(prefix="perf_pairs-")
    try:
        sides = {}
        for side, tree_ish in (("base", base_sha), ("change", change_tree)):
            sides[side] = {"tree": os.path.join(scratch, side),
                           "target": os.path.join(scratch, side + "-build")}
            export(tree_ish, sides[side]["tree"])
            build(sides[side]["tree"], sides[side]["target"])

        runs = {}
        for workload in workloads:
            for k in range(args.pairs):
                seed = args.first_seed + k
                order = ("base", "change") if k % 2 == 0 else ("change",
                                                               "base")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    code, result, steal = run_once(sides[side], workload,
                                                   seed, seconds)
                    pair[side] = {"exit": code, "result": result,
                                  "steal": steal}
                    shown = ("exit %d" % code if result is None else
                             " ".join("%s=%.5g" % (n, m["value"])
                                      for n, m in result["metrics"].items()))
                    print("%s pair %d seed %d %-6s %s steal=%s" %
                          (workload, k, seed, side, shown,
                           format_steal(steal)),
                          file=sys.stderr, flush=True)
                runs.setdefault(workload, []).append(pair)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, "pairs-%s-%s.json" % (
        base_sha[:12], time.strftime("%Y%m%d-%H%M%S")))
    with open(out_path, "w") as f:
        json.dump({"base": base_sha, "change_tree": change_tree,
                   "seconds": seconds, "runs": runs}, f, indent=1)

    print("base %s vs working-tree snapshot %s, %g s runs" %
          (base_sha[:12], change_tree[:12], seconds))
    problems = sum(summarize(w, runs[w], spec) for w in workloads)
    print("\nraw runs: %s" % os.path.relpath(out_path, ROOT))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
