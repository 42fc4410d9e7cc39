"""Regenerate the reference answers the benchmark checks every run against.

    python3 perfbench/make_references.py

Run this only at a commit whose answers are trusted: a speed change must
never change an answer, so the references stay fixed until a change
that is meant to alter behaviour says so. Every workload is regenerated,
so all references come from one commit.

For every reference seed of a workload, every recognition is run once
and stored under its key as [inputs digest, gstar, posteriors rounded to
1e-9]. For bench-default the answers are also compared with the
canonical records of `tgr bench` on the bundled config (the run stops
if any differs), and the true and false positive rates the records
carry are stored.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor

import run

JOBS = 2


def _answers(workload: str, seed: int) -> dict:
    import workloads
    inputs = workloads.build(workload, seed)
    return {item.key: [item.inputs_digest(),
                       *workloads.answer(workloads.recognize(inputs, item))]
            for item in inputs.items}


def _bench_records() -> list[dict]:
    from tgr import bench
    records, _ = bench.run_benchmark(bench.load_config(), canonical=True)
    return records


def _init_worker() -> None:
    run._import_tgr()


def check_records(answers: dict, records: list[dict]) -> dict:
    """Compare bench-default answers with `tgr bench` records; return
    the TPR and mean FPR of the records."""
    if len(records) != len(answers):
        raise SystemExit(f"{len(answers)} answers for {len(records)} records")
    for rec in records:
        key = f"{rec['dataset']}:{rec['problem']}:{rec['level']}"
        _, gstar, post = answers[key]
        want = [rec["gstar"], [round(p, 9) for p in rec["posteriors"]]]
        if [gstar, post] != want:
            raise SystemExit(f"{key}: benchmark answer {[gstar, post]} "
                             f"differs from tgr bench record {want}")
    return {"tpr": sum(rec["hit"] for rec in records) / len(records),
            "fpr": sum(rec["fpr"] for rec in records) / len(records)}


def main() -> int:
    run._import_tgr()
    import workloads

    tasks = []
    for w in run.WORKLOADS:
        seeds = [0] if w == "bench-default" else range(
            workloads.REFERENCE_SEEDS)
        tasks += [(w, s) for s in seeds]
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(JOBS, mp_context=ctx,
                             initializer=_init_worker) as pool:
        records = pool.submit(_bench_records)
        futures = [(w, pool.submit(_answers, w, s)) for w, s in tasks]
        merged: dict[str, dict] = {w: {} for w in run.WORKLOADS}
        for w, fut in futures:
            merged[w].update(fut.result())
        records = records.result()

    for w, answers in merged.items():
        payload = {"workload": w, "commit": run.git_commit(),
                   "source_digest": run.source_digest()}
        if w == "bench-default":
            payload["tgr_bench_rates"] = check_records(answers, records)
        # One answer per line, so a diff names the recognitions that changed.
        body = ",\n".join(f"    {json.dumps(k)}: {json.dumps(answers[k])}"
                          for k in sorted(answers))
        text = (json.dumps(payload, indent=2)[:-2] + ',\n  "answers": {\n'
                + body + "\n  }\n}\n")
        path = run.BENCH_DIR / "references" / f"{w}.json"
        path.write_text(text)
        print(f"{w}: {len(answers)} answers -> {path.name}"
              + (f" {payload['tgr_bench_rates']}" if w == "bench-default"
                 else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
