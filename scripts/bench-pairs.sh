#!/usr/bin/env bash
# Alternating parent/change benchmark pairs for one workload.
#
#   scripts/bench-pairs.sh [--gate] <parent-rev> <workload> <pairs> [xqr-benchmark flags...]
#
# Builds `perfbench` twice into separate target directories — once from
# <parent-rev> (exported with `git archive`, so the repository's own
# worktree and metadata are untouched) and once from the working tree —
# then runs N pairs of `--workload <workload> --trace 0`, alternating
# which side goes first, and prints each end-to-end metric's median and
# quartiles per side and how many pairs the change won (direction from
# BENCHMARK.json). Host drift over minutes is larger than most bounds;
# interleaving is what makes a pair comparable. Extra flags (`--seed 7`,
# `--seconds 5`) go to both sides. Set BENCH_PAIRS_DIR to keep the
# builds and the per-run JSON (default: a fresh temporary directory);
# the summary is also written there as pairs.json.
#
# With --gate the script is a regression check: it exits 1 when some
# metric's change median is worse than the parent median by more than
# that metric's BENCHMARK.json bound AND the change lost a majority of
# the pairs (ties count for neither side). Either alone is noise. It
# also exits 1 when the change failed a larger share of its attempted
# operations than the parent, summed over the pairs: a faster side
# attempts more, so equal failure rates give it more failures.
set -euo pipefail

gate=0
if [ "${1:-}" = "--gate" ]; then
    gate=1
    shift
fi
if [ $# -lt 3 ]; then
    echo "usage: $0 [--gate] <parent-rev> <workload> <pairs> [xqr-benchmark flags...]" >&2
    exit 2
fi
rev=$1 workload=$2 pairs=$3
shift 3
root=$(git rev-parse --show-toplevel)
work=${BENCH_PAIRS_DIR:-$(mktemp -d)}
mkdir -p "$work/parent-src" "$work/runs"

git -C "$root" archive "$rev" | tar -x -C "$work/parent-src"
build() { # side, source tree
    echo "building $1 ..." >&2
    CARGO_TARGET_DIR="$work/target-$1" cargo build --release --offline --quiet \
        --manifest-path "$2/perfbench/Cargo.toml"
}
build parent "$work/parent-src"
# Cargo rewrites a stale perfbench/Cargo.lock; leave the tree as found.
cp "$root/perfbench/Cargo.lock" "$work/Cargo.lock.orig"
trap 'cp "$work/Cargo.lock.orig" "$root/perfbench/Cargo.lock"' EXIT
build change "$root"

for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        echo "pair $i/$pairs: $side" >&2
        "$work/target-$side/release/xqr-benchmark" --workload "$workload" --trace 0 "$@" \
            >"$work/runs/$side-$i.json" 2>/dev/null
    done
done

python3 - "$root/BENCHMARK.json" "$work" "$pairs" "$workload" "$rev" "$gate" "$@" <<'EOF'
import json, statistics, sys
decl, work, pairs, workload, rev = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4], sys.argv[5]
gate = sys.argv[6] == "1"
metrics = json.load(open(decl))["end_to_end"]
better = {m["name"]: m["better"] for m in metrics}
bound = {m["name"]: m["bound"] for m in metrics}

def last_json(path):
    return json.loads(open(path).read().strip().splitlines()[-1])

runs = [{side: last_json(f"{work}/runs/{side}-{i}.json") for side in ("parent", "change")}
        for i in range(1, pairs + 1)]

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

summary = {}
print(f"{workload}: {pairs} alternating pairs, parent {rev} vs working tree")
print(f"{'metric':<22}{'parent median [q1, q3]':>34}{'change median [q1, q3]':>34}  wins")
for name, direction in better.items():
    p = [r["parent"]["metrics"][name]["value"] for r in runs]
    c = [r["change"]["metrics"][name]["value"] for r in runs]
    wins = sum((cv < pv) if direction == "lower" else (cv > pv) for pv, cv in zip(p, c))
    losses = sum((cv > pv) if direction == "lower" else (cv < pv) for pv, cv in zip(p, c))
    (pq1, pm, pq3), (cq1, cm, cq3) = quartiles(p), quartiles(c)
    summary[name] = {
        "better": direction,
        "parent": {"median": pm, "q1": pq1, "q3": pq3},
        "change": {"median": cm, "q1": cq1, "q3": cq3},
        "change_wins": wins,
        "change_losses": losses,
    }
    print(f"{name:<22}{pm:>14.4g} [{pq1:.4g}, {pq3:.4g}]".ljust(56)
          + f"{cm:>14.4g} [{cq1:.4g}, {cq3:.4g}]".ljust(34) + f"  {wins}/{pairs}")
failed = [(r["parent"]["failed"], r["change"]["failed"]) for r in runs]
attempted = [(r["parent"]["attempted"], r["change"]["attempted"]) for r in runs]
print("failed/attempted per pair (parent, change):",
      [f"{pf}/{pa}, {cf}/{ca}" for (pf, cf), (pa, ca) in zip(failed, attempted)])
def failed_share(side):
    tried = sum(a[side] for a in attempted)
    return sum(f[side] for f in failed) / tried if tried else 0.0
shares = {"parent": failed_share(0), "change": failed_share(1)}
json.dump({"workload": workload, "parent_rev": rev, "pairs": pairs, "extra_args": sys.argv[7:],
           "runs": runs, "summary": summary, "failed": failed, "attempted": attempted,
           "failed_share": shares}, open(f"{work}/pairs.json", "w"), indent=1)
print(f"per-run JSON and pairs.json in {work}")

if gate:
    regressed = []
    for name, s in summary.items():
        pm, cm = s["parent"]["median"], s["change"]["median"]
        if pm == 0:
            continue
        worse = (cm - pm) / pm if s["better"] == "lower" else (pm - cm) / pm
        if worse > bound[name] and 2 * s["change_losses"] > pairs:
            regressed.append(f"{name}: {worse:+.1%} worse (bound {bound[name]:.0%}), "
                             f"lost {s['change_losses']}/{pairs} pairs")
    if shares["change"] > shares["parent"]:
        regressed.append(f"failed share {shares['change']:.3%} > parent {shares['parent']:.3%}")
    for line in regressed:
        print(f"GATE {workload}: {line}")
    print(f"gate {workload}: {'FAIL' if regressed else 'pass'}")
    sys.exit(1 if regressed else 0)
EOF
