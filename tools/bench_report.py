#!/usr/bin/env python3
"""Fold timeline-profiler artifacts into a benchmark report and gate on it.

Works with the per-campaign ``*.profile.json`` artifacts the daemon writes
under ``--profile-dir`` (schema ``ao-profile/1``, see docs/observability.md).
Three modes:

  collect   Fold every artifact in a directory into one ``ao-bench/1``
            report (default ``BENCH_service_hotpath.json``). Percentiles are
            recomputed from the raw span durations across all artifacts, not
            averaged from per-artifact percentiles, so the folded numbers are
            exact.

                bench_report.py collect --profile-dir DIR \
                    --out BENCH_service_hotpath.json [--label LABEL] \
                    [--by-origin]

            Distributed profiles carry worker-origin spans (an ``origin``
            key naming the worker that measured them; daemon-side spans
            omit it). They fold into the same top-level ``phases`` table —
            the gate sees one merged timeline. ``--by-origin`` additionally
            writes an ``origins`` object with the same per-phase stats
            split by measuring process (``local`` = the daemon itself and
            its local shard workers, which are all named ``local``),
            which ``compare`` ignores: the breakdown is for humans reading
            the report, not for gating.

  compare   Gate a current report against a baseline. A phase regresses when
            ``(cur - base) / base > threshold`` for any gated metric
            (mean_ns, p95_ns); a value exactly at the threshold passes.
            Metrics whose baseline is below ``--min-ns`` are skipped — the
            noise floor for sub-microsecond phases. ``--counts-only`` checks
            only that the same phases ran with the same span counts (the
            cross-machine mode: timings are not comparable, coverage is);
            ``frame`` and ``flush`` counts vary with record batching, so
            they are checked for presence, not exact count. ``--require
            PHASE`` (repeatable) fails unless PHASE appears in the current
            report — the gate for phases newer than the committed baseline.
            Exit 1 on any regression, with one line per phase explaining it.

                bench_report.py compare BASELINE CURRENT [--threshold 0.15]
                    [--min-ns 200000] [--counts-only] [--require PHASE]

  perturb   Multiply one phase's timings by a factor — the CI negative test
            proves the gate trips by slowing a phase 1.30x and expecting
            compare to fail.

                bench_report.py perturb REPORT --phase execute
                    --factor 1.30 --out SLOWED

``bench_report.py --self-test`` runs the built-in checks (threshold edge
semantics included) and needs no artifacts. Stdlib only.
"""

import argparse
import glob
import json
import math
import os
import sys

BENCH_SCHEMA = "ao-bench/1"
PROFILE_SCHEMA = "ao-profile/1"
GATED_METRICS = ("mean_ns", "p95_ns")

# Phases whose span COUNT is legitimately nondeterministic: `frame` and
# `flush` counts depend on how records coalesce into batched wire frames
# (batch bound + flush deadline against real time). ``--counts-only``
# checks these for presence, not for an exact count — a missing phase is
# still a failure.
VARIABLE_COUNT_PHASES = {"frame", "flush"}


def nearest_rank(sorted_values, p):
    """The profiler's percentile: value at rank ceil(p*n), 1-based, clamped."""
    n = len(sorted_values)
    if n == 0:
        return 0
    rank = min(n, max(1, math.ceil(p * n)))
    return sorted_values[rank - 1]


def fold_spans(spans, durations, origin_durations):
    """Accumulate span durations by phase, and by (origin, phase). A span
    without an ``origin`` key was measured by the daemon itself — it groups
    under ``local``, as do the spans of the daemon's local shard workers;
    worker-origin spans group under the worker's name."""
    for span in spans:
        origin = span.get("origin") or "local"
        durations.setdefault(span["phase"], []).append(span["duration_ns"])
        origin_durations.setdefault(origin, {}).setdefault(
            span["phase"], []).append(span["duration_ns"])


def summarize(durations):
    """Exact fold of ``{phase: [duration_ns, ...]}`` into the per-phase
    stats object used by both the top-level and per-origin tables."""
    phases = {}
    for phase in sorted(durations):
        values = sorted(durations[phase])
        total = sum(values)
        phases[phase] = {
            "count": len(values),
            "total_ns": total,
            "mean_ns": total // len(values),
            "p50_ns": nearest_rank(values, 0.50),
            "p95_ns": nearest_rank(values, 0.95),
            "max_ns": values[-1],
        }
    return phases


def fold_artifacts(paths):
    """Fold artifacts into (campaigns, phases, origins). Raises ValueError
    on a schema mismatch."""
    durations = {}
    origin_durations = {}
    campaigns = 0
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            artifact = json.load(handle)
        if artifact.get("schema") != PROFILE_SCHEMA:
            raise ValueError(
                f"{path}: expected schema {PROFILE_SCHEMA!r}, "
                f"got {artifact.get('schema')!r}"
            )
        campaigns += 1
        fold_spans(artifact.get("spans", []), durations, origin_durations)
    origins = {origin: summarize(origin_durations[origin])
               for origin in sorted(origin_durations)}
    return campaigns, summarize(durations), origins


def cmd_collect(args):
    paths = sorted(glob.glob(os.path.join(args.profile_dir, "*.profile.json")))
    if not paths:
        print(f"bench_report: no *.profile.json under {args.profile_dir}",
              file=sys.stderr)
        return 1
    campaigns, phases, origins = fold_artifacts(paths)
    report = {
        "schema": BENCH_SCHEMA,
        "label": args.label,
        "campaigns": campaigns,
        "phases": phases,
    }
    if args.by_origin:
        report["origins"] = origins
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"bench_report: folded {campaigns} campaign(s), "
          f"{len(phases)} phase(s) -> {args.out}")
    return 0


def load_report(path):
    with open(path, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    if report.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"{path}: expected schema {BENCH_SCHEMA!r}, "
            f"got {report.get('schema')!r}"
        )
    return report


def compare_reports(baseline, current, threshold, min_ns, counts_only,
                    require=()):
    """Returns (ok, lines): pass/fail plus one human line per finding.
    ``require`` names phases that must be present in the current report
    (with at least one span) regardless of the baseline — the gate for
    phases newer than the committed baseline."""
    lines = []
    ok = True
    base_phases = baseline.get("phases", {})
    cur_phases = current.get("phases", {})
    for phase in sorted(base_phases):
        base = base_phases[phase]
        cur = cur_phases.get(phase)
        if cur is None:
            ok = False
            lines.append(f"FAIL {phase}: present in baseline, missing now")
            continue
        if counts_only:
            if phase in VARIABLE_COUNT_PHASES:
                # Batching makes these counts timing-dependent; presence is
                # the invariant (absence was caught above).
                lines.append(f"ok   {phase}: count {cur['count']} (variable)")
            elif base["count"] != cur["count"]:
                ok = False
                lines.append(
                    f"FAIL {phase}: span count {base['count']} -> "
                    f"{cur['count']}"
                )
            else:
                lines.append(f"ok   {phase}: count {cur['count']}")
            continue
        phase_ok = True
        for metric in GATED_METRICS:
            base_value = base[metric]
            cur_value = cur[metric]
            if base_value < min_ns:
                continue  # below the noise floor; not gated
            ratio = (cur_value - base_value) / base_value
            if ratio > threshold:
                ok = False
                phase_ok = False
                lines.append(
                    f"FAIL {phase}: {metric} {base_value} -> {cur_value} "
                    f"(+{ratio:.1%} > {threshold:.0%})"
                )
        if phase_ok:
            lines.append(f"ok   {phase}")
    for phase in sorted(set(cur_phases) - set(base_phases)):
        lines.append(f"note {phase}: new phase, not gated")
    for phase in require:
        cur = cur_phases.get(phase)
        if cur is None or cur.get("count", 0) == 0:
            ok = False
            lines.append(f"FAIL {phase}: required phase missing from the "
                         f"current report")
        elif phase not in base_phases:
            lines.append(f"ok   {phase}: required phase present "
                         f"(count {cur['count']})")
    return ok, lines


def cmd_compare(args):
    baseline = load_report(args.baseline)
    current = load_report(args.current)
    ok, lines = compare_reports(baseline, current, args.threshold,
                                args.min_ns, args.counts_only,
                                require=args.require)
    for line in lines:
        print(line)
    if not ok:
        print(f"bench_report: regression against {args.baseline} "
              f"(threshold {args.threshold:.0%})", file=sys.stderr)
        return 1
    print("bench_report: no regression")
    return 0


def cmd_perturb(args):
    report = load_report(args.report)
    phase = report.get("phases", {}).get(args.phase)
    if phase is None:
        print(f"bench_report: phase {args.phase!r} not in {args.report}",
              file=sys.stderr)
        return 1
    for metric in ("total_ns", "mean_ns", "p50_ns", "p95_ns", "max_ns"):
        phase[metric] = int(phase[metric] * args.factor)
    report["label"] = (report.get("label") or "bench") + (
        f"+perturb:{args.phase}x{args.factor}")
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"bench_report: {args.phase} x{args.factor} -> {args.out}")
    return 0


def self_test():
    def report(phases):
        return {"schema": BENCH_SCHEMA, "phases": phases}

    def phase(mean, p95, count=10):
        return {"count": count, "total_ns": mean * count, "mean_ns": mean,
                "p50_ns": mean, "p95_ns": p95, "max_ns": p95}

    base = report({"execute": phase(1_000_000, 2_000_000)})

    # Exactly at the threshold passes: +15.0% is not > 15%.
    ok, _ = compare_reports(
        base, report({"execute": phase(1_150_000, 2_300_000)}),
        threshold=0.15, min_ns=0, counts_only=False)
    assert ok, "a regression of exactly the threshold must pass"

    # Just above fails.
    ok, lines = compare_reports(
        base, report({"execute": phase(1_160_000, 2_000_000)}),
        threshold=0.15, min_ns=0, counts_only=False)
    assert not ok, "a regression above the threshold must fail"
    assert any("mean_ns" in line for line in lines)

    # An improvement passes.
    ok, _ = compare_reports(
        base, report({"execute": phase(500_000, 1_000_000)}),
        threshold=0.15, min_ns=0, counts_only=False)
    assert ok, "an improvement must pass"

    # Below the noise floor is not gated even when wildly slower.
    ok, _ = compare_reports(
        report({"frame": phase(1_000, 2_000)}),
        report({"frame": phase(9_000, 9_000)}),
        threshold=0.15, min_ns=200_000, counts_only=False)
    assert ok, "phases under --min-ns must not gate"

    # A missing phase fails.
    ok, _ = compare_reports(base, report({}), threshold=0.15, min_ns=0,
                            counts_only=False)
    assert not ok, "a phase that disappeared must fail"

    # counts-only: timing ignored, count mismatch caught.
    ok, _ = compare_reports(
        base, report({"execute": phase(9_000_000, 9_000_000)}),
        threshold=0.15, min_ns=0, counts_only=True)
    assert ok, "counts-only must ignore timings"
    ok, _ = compare_reports(
        base, report({"execute": phase(1_000_000, 2_000_000, count=9)}),
        threshold=0.15, min_ns=0, counts_only=True)
    assert not ok, "counts-only must catch a count mismatch"

    # counts-only: frame/flush counts vary with batching — presence is the
    # invariant, an exact-count mismatch is not a failure...
    ok, lines = compare_reports(
        report({"frame": phase(1_000, 2_000, count=48),
                "flush": phase(1_000, 2_000, count=20)}),
        report({"frame": phase(1_000, 2_000, count=7),
                "flush": phase(1_000, 2_000, count=3)}),
        threshold=0.15, min_ns=0, counts_only=True)
    assert ok, "variable-count phases must not gate on exact counts"
    assert any("variable" in line for line in lines)
    # ...but a variable-count phase that disappeared entirely still fails.
    ok, _ = compare_reports(
        report({"frame": phase(1_000, 2_000, count=48)}), report({}),
        threshold=0.15, min_ns=0, counts_only=True)
    assert not ok, "a missing variable-count phase must still fail"

    # --require gates presence of phases newer than the baseline.
    ok, lines = compare_reports(
        base, report({"execute": phase(1_000_000, 2_000_000),
                      "plan": phase(1_000, 2_000, count=2)}),
        threshold=0.15, min_ns=0, counts_only=True, require=["plan"])
    assert ok, "a present required phase must pass"
    assert any("required phase present" in line for line in lines)
    ok, lines = compare_reports(
        base, report({"execute": phase(1_000_000, 2_000_000)}),
        threshold=0.15, min_ns=0, counts_only=True, require=["plan"])
    assert not ok, "a missing required phase must fail"
    assert any("required phase missing" in line for line in lines)

    # nearest_rank matches the profiler's convention.
    assert nearest_rank([1, 2, 3, 4], 0.50) == 2
    assert nearest_rank([1, 2, 3, 4], 0.95) == 4
    assert nearest_rank([7], 0.50) == 7
    assert nearest_rank([], 0.95) == 0

    # Distributed artifacts: origin-less spans fold under "local", worker
    # spans under the worker's name, and both feed the merged phase table.
    durations, origin_durations = {}, {}
    fold_spans(
        [
            {"phase": "execute", "duration_ns": 100},
            {"phase": "execute", "duration_ns": 300, "origin": "w1"},
            {"phase": "serialize", "duration_ns": 50, "origin": "w1"},
            {"phase": "execute", "duration_ns": 200, "origin": "w2"},
        ],
        durations, origin_durations)
    merged = summarize(durations)
    assert merged["execute"]["count"] == 3
    assert merged["execute"]["total_ns"] == 600
    assert sorted(origin_durations) == ["local", "w1", "w2"]
    assert summarize(origin_durations["w1"])["execute"]["mean_ns"] == 300
    assert summarize(origin_durations["local"])["execute"]["count"] == 1
    assert "serialize" not in origin_durations["local"]

    print("bench_report: self-test ok")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in checks and exit")
    sub = parser.add_subparsers(dest="mode")

    collect = sub.add_parser("collect")
    collect.add_argument("--profile-dir", required=True)
    collect.add_argument("--out", default="BENCH_service_hotpath.json")
    collect.add_argument("--label", default="service-hotpath")
    collect.add_argument("--by-origin", action="store_true",
                         help="add a per-origin phase breakdown (origins "
                              "object) to the report; not gated by compare")

    compare = sub.add_parser("compare")
    compare.add_argument("baseline")
    compare.add_argument("current")
    compare.add_argument("--threshold", type=float, default=0.15)
    compare.add_argument("--min-ns", type=int, default=200_000,
                         help="baseline values below this are not gated")
    compare.add_argument("--counts-only", action="store_true")
    compare.add_argument("--require", action="append", default=[],
                         metavar="PHASE",
                         help="fail unless PHASE appears in the current "
                              "report (repeatable); gates phases newer than "
                              "the baseline")

    perturb = sub.add_parser("perturb")
    perturb.add_argument("report")
    perturb.add_argument("--phase", required=True)
    perturb.add_argument("--factor", type=float, default=1.30)
    perturb.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.mode == "collect":
        return cmd_collect(args)
    if args.mode == "compare":
        return cmd_compare(args)
    if args.mode == "perturb":
        return cmd_perturb(args)
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
