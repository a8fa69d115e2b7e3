#!/usr/bin/env python3
"""Convert `beyondbloom exp E21` output into BENCH_service.json.

Reads the experiment's rendered tables on stdin and writes JSON on
stdout:

  {
    "meta": {"experiment": "E21", "stream": ..., "gomaxprocs": ...},
    "capacity": [{"engine", "mops_per_sec", "speedup_vs_scalar"}, ...],
    "open_loop": [{"offered_x_cap", "mode", "offered_kops",
                   "achieved_kops", "p50_us", "p99_us", "p999_us",
                   "avg_batch", "wrong_results"}, ...],
    "closed_loop": [{"goroutines", "mode", "kops_per_sec"}, ...],
    "acceptance": {"batched_over_scalar_capacity": ...,
                   "wrong_results_total": ...,
                   "batched_beats_scalar_at_high_load": ...,
                   "engine_over_scalar_fan_in_1": ...,
                   "engine_within_2x_of_scalar_at_fan_in_1": ...}
  }

The open-loop rows measure scheduled-arrival-to-completion latency
under Poisson offered load (see exp_service.go), which bench_to_json.py
cannot produce from `go test -bench` ns/op lines. Acceptance holds when
the batched engine has capacity headroom over scalar, nobody returned a
wrong membership answer, at the highest offered load the batching
server both achieves more throughput and a no-worse p99 than the
per-request scalar baseline, and a lone blocking requester through
Engine.Contains runs within 2x of a bare scalar probe.

Any open-loop cell with a wrong membership answer makes the script
exit non-zero after writing the JSON, so a pipeline that feeds E21
through it fails on a wrong answer.
"""

import json
import re
import sys

CAP_META_RE = re.compile(r"E21: probe-engine capacity \(stream=(\d+), GOMAXPROCS=(\d+)\)")
OPEN_RE = re.compile(r"E21a: open-loop")
CLOSED_RE = re.compile(r"E21b: closed-loop")


def parse(lines):
    meta = {"experiment": "E21", "stream": None, "gomaxprocs": None}
    capacity, open_loop, closed_loop = [], [], []
    section = None
    for line in lines:
        m = CAP_META_RE.search(line)
        if m:
            section = "capacity"
            meta["stream"] = int(m.group(1))
            meta["gomaxprocs"] = int(m.group(2))
            continue
        if OPEN_RE.search(line):
            section = "open"
            continue
        if CLOSED_RE.search(line):
            section = "closed"
            continue
        fields = line.split()
        if section == "capacity" and len(fields) == 3 and fields[0] in {"scalar", "batched"}:
            capacity.append(
                {
                    "engine": fields[0],
                    "mops_per_sec": float(fields[1]),
                    "speedup_vs_scalar": float(fields[2]),
                }
            )
        elif section == "open" and len(fields) == 9 and fields[1] in {"scalar", "batched"}:
            open_loop.append(
                {
                    "offered_x_cap": float(fields[0]),
                    "mode": fields[1],
                    "offered_kops": float(fields[2]),
                    "achieved_kops": float(fields[3]),
                    "p50_us": float(fields[4]),
                    "p99_us": float(fields[5]),
                    "p999_us": float(fields[6]),
                    "avg_batch": float(fields[7]),
                    "wrong_results": int(fields[8]),
                }
            )
        elif section == "closed" and len(fields) == 3 and fields[1] in {"scalar", "engine"}:
            closed_loop.append(
                {
                    "goroutines": int(fields[0]),
                    "mode": fields[1],
                    "kops_per_sec": float(fields[2]),
                }
            )
    return meta, capacity, open_loop, closed_loop


def main():
    meta, capacity, open_loop, closed_loop = parse(sys.stdin)
    if not capacity or not open_loop or not closed_loop:
        sys.exit("service_bench_to_json: missing E21 tables on stdin")

    by_engine = {row["engine"]: row for row in capacity}
    acceptance = {
        "wrong_results_total": sum(r["wrong_results"] for r in open_loop),
    }
    if "scalar" in by_engine and "batched" in by_engine:
        base = by_engine["scalar"]["mops_per_sec"]
        ratio = by_engine["batched"]["mops_per_sec"] / base if base else None
        acceptance["batched_over_scalar_capacity"] = (
            round(ratio, 3) if ratio is not None else None
        )

    # At the highest offered load: does the batching server achieve
    # at least as much throughput with a no-worse p99 than scalar?
    top = max((r["offered_x_cap"] for r in open_loop), default=None)
    if top is not None:
        rows = {r["mode"]: r for r in open_loop if r["offered_x_cap"] == top}
        if "scalar" in rows and "batched" in rows:
            acceptance["high_load_offered_x_cap"] = top
            acceptance["batched_beats_scalar_at_high_load"] = (
                rows["batched"]["achieved_kops"] >= rows["scalar"]["achieved_kops"]
                and rows["batched"]["p99_us"] <= rows["scalar"]["p99_us"]
            )

    # A lone blocking requester: how close does Engine.Contains come
    # to a bare scalar probe?
    lone = {r["mode"]: r for r in closed_loop if r["goroutines"] == 1}
    if "scalar" in lone and "engine" in lone and lone["scalar"]["kops_per_sec"]:
        ratio = lone["engine"]["kops_per_sec"] / lone["scalar"]["kops_per_sec"]
        acceptance["engine_over_scalar_fan_in_1"] = round(ratio, 3)
        acceptance["engine_within_2x_of_scalar_at_fan_in_1"] = ratio >= 0.5

    json.dump(
        {
            "meta": meta,
            "capacity": capacity,
            "open_loop": open_loop,
            "closed_loop": closed_loop,
            "acceptance": acceptance,
        },
        sys.stdout,
        indent=2,
    )
    sys.stdout.write("\n")

    wrong = [r for r in open_loop if r["wrong_results"] > 0]
    if wrong:
        cells = ", ".join(f'{r["offered_x_cap"]}x {r["mode"]}' for r in wrong)
        sys.exit(f"service_bench_to_json: wrong membership answers in E21a cells: {cells}")


if __name__ == "__main__":
    main()
