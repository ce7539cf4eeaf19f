"""Per-layer metrics and layer shares from the spans of one traced pass.

A pass is a list of process records written by ``traced_cli.py``.  A span's
self time is its duration minus the union of its children's intervals, so a
fan-out span whose cells run on two threads at once is not charged twice.
Noise-oracle draws are transparent: they count toward the span that made
them (the generator, the privatizer), and are reported on their own only as
``mechanisms.noise_oracle``.
"""

from __future__ import annotations

from collections import defaultdict

NOISE = "mechanisms.noise_oracle"
CELL = "harness.cell"
FANOUTS = ("harness.run_experiment", "harness.run_classification")
KINDS = ("gmm", "mor", "rmc")

# (metric, unit) in the order run.py prints them; BENCHMARK.json lists the
# same names.  "computed" marks exact counts derived from the call
# arguments (for example (s+1)*d draws per thresholding call).
METRICS = [
    *[(f"models.generate.{kind}.s", "s") for kind in KINDS],
    ("models.generate.values", "computed"),
    ("models.generate.ns_per_value", "ns"),
    ("models.generate.used_frac", "frac"),
    ("models.truncated_grad.s", "s"),
    ("models.truncated_grad.calls", "count"),
    ("models.truncated_grad.rows", "computed"),
    ("models.truncated_grad.ns_per_row_dim", "ns"),
    ("models.raw_grad.s", "s"),
    ("models.raw_grad.calls", "count"),
    ("models.raw_grad.rows", "computed"),
    ("models.raw_grad.ns_per_row_dim", "ns"),
    ("oracle.nonprivate_em.self_s", "s"),
    ("mechanisms.noisy_hard_threshold.s", "s"),
    ("mechanisms.noisy_hard_threshold.calls", "count"),
    ("mechanisms.noisy_hard_threshold.draws", "computed"),
    ("mechanisms.noisy_hard_threshold.ns_per_draw", "ns"),
    ("mechanisms.noisy_hard_threshold.draws_per_selected", "ratio"),
    ("mechanisms.noise_oracle.s", "s"),
    ("mechanisms.noise_oracle.values", "computed"),
    ("em_engine.run_high_dim.self_s", "s"),
    ("em_engine.run_high_dim.iterations", "computed"),
    ("em_engine.run_low_dim.self_s", "s"),
    ("em_engine.run_low_dim.iterations", "computed"),
    ("harness.run_experiment.self_s", "s"),
    ("harness.cells", "count"),
    ("harness.cell_s.p50", "s"),
    ("harness.cell_s.tail", "s"),
    ("harness.pool_overlap", "ratio"),
    ("harness.write_results.s", "s"),
    ("harness.csv_bytes", "B"),
    ("harness.load_classification_csv.s", "s"),
    ("harness.load_classification_csv.rows", "computed"),
    ("harness.run_classification.self_s", "s"),
    ("oracle.exact_top_k.s", "s"),
    ("oracle.exact_top_k.calls", "count"),
    ("cli.import_s", "s"),
    ("cli.cpu_s", "s"),
    ("cli.cpu_util", "ratio"),
    ("trace.overhead_s", "s"),
]

# Groups whose self times partition the time inside ``cli.main`` (summed
# over threads); the named layer of each workload should lead its group.
SHARE_GROUPS = {
    "cli.main": "cli",
    "harness.run_experiment": "harness",
    "harness.run_classification": "harness",
    "harness.load_classification_csv": "harness.load_classification_csv",
    "harness.write_results": "harness.write_results",
    "em_engine.run_high_dim": "em_engine",
    "em_engine.run_low_dim": "em_engine",
    "oracle.nonprivate_em": "oracle",
    "oracle.exact_top_k": "oracle",
    "models.truncated_grad": "models.truncated_grad",
    "models.raw_grad": "models.raw_grad",
    "mechanisms.noisy_hard_threshold": "mechanisms.noisy_hard_threshold",
    **{f"models.generate.{kind}": "models.generate" for kind in KINDS},
}


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def _process(record):
    """Self times, inclusive times, counts and cell durations of one process."""
    spans = record["spans"]
    children = defaultdict(list)
    for span_id, parent, name, _, start, end, _, _ in spans:
        if name != NOISE:
            children[parent].append((start, end))
    by_id = {span[0]: span for span in spans}
    inclusive, self_time, counts = defaultdict(float), defaultdict(float), defaultdict(int)
    cells, fanout_s = [], 0.0
    for span_id, parent, name, _, start, end, _, recorded in spans:
        inclusive[name] += end - start
        counts[f"{name}.calls"] += 1
        for key, value in recorded.items():
            counts[f"{name}.{key}"] += value
        if name == NOISE:
            continue
        own = (end - start) - _covered(children[span_id], start, end)
        # A cell's own work (parameter resolution, start point, scoring)
        # belongs to the harness call that fanned it out.
        if name == CELL:
            cells.append(end - start)
            parent_name = by_id[parent][2] if parent in by_id else "harness.run_experiment"
            self_time[parent_name] += own
        else:
            self_time[name] += own
        if name in FANOUTS:
            fanout_s += end - start
    return inclusive, self_time, counts, cells, fanout_s


def pass_metrics(records):
    """(metrics, exact counts, layer shares, cell durations) for one traced pass."""
    inclusive, self_time, counts = defaultdict(float), defaultdict(float), defaultdict(int)
    cells, fanout_s = [], 0.0
    for record in records:
        inc, own, cnt, cell_s, fan = _process(record)
        for table, part in ((inclusive, inc), (self_time, own), (counts, cnt)):
            for key, value in part.items():
                table[key] += value
        cells += cell_s
        fanout_s += fan

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    generated_s = sum(inclusive[f"models.generate.{kind}"] for kind in KINDS)
    values = sum(counts[f"models.generate.{kind}.values"] for kind in KINDS)
    generated_n = sum(counts[f"models.generate.{kind}.n"] for kind in KINDS)
    used_n = (counts["em_engine.run_high_dim.n_used"] + counts["em_engine.run_low_dim.n_used"]
              + counts["oracle.nonprivate_em.n_used"])
    nht = "mechanisms.noisy_hard_threshold"
    cpu_s = sum(r["cpu_s"] for r in records)
    main_s = sum(r["main_s"] for r in records)
    m = {f"models.generate.{kind}.s": inclusive[f"models.generate.{kind}"] for kind in KINDS}
    m.update({
        "models.generate.values": values,
        "models.generate.ns_per_value": ratio(generated_s, values, 1e9),
        "models.generate.used_frac": ratio(used_n, generated_n),
    })
    for grad in ("models.truncated_grad", "models.raw_grad"):
        m.update({
            f"{grad}.s": inclusive[grad],
            f"{grad}.calls": counts[f"{grad}.calls"],
            f"{grad}.rows": counts[f"{grad}.rows"],
            f"{grad}.ns_per_row_dim": ratio(inclusive[grad], counts[f"{grad}.row_dims"], 1e9),
        })
    m.update({
        "oracle.nonprivate_em.self_s": self_time["oracle.nonprivate_em"],
        f"{nht}.s": inclusive[nht],
        f"{nht}.calls": counts[f"{nht}.calls"],
        f"{nht}.draws": counts[f"{nht}.draws"],
        f"{nht}.ns_per_draw": ratio(inclusive[nht], counts[f"{nht}.draws"], 1e9),
        f"{nht}.draws_per_selected": ratio(counts[f"{nht}.draws"], counts[f"{nht}.selected"]),
        f"{NOISE}.s": inclusive[NOISE],
        f"{NOISE}.values": counts[f"{NOISE}.values"],
    })
    for loop in ("em_engine.run_high_dim", "em_engine.run_low_dim"):
        m[f"{loop}.self_s"] = self_time[loop]
        m[f"{loop}.iterations"] = counts[f"{loop}.iterations"]
    m.update({
        "harness.run_experiment.self_s": self_time["harness.run_experiment"],
        "harness.cells": len(cells),
        "harness.pool_overlap": ratio(sum(cells), fanout_s),
        "harness.write_results.s": inclusive["harness.write_results"],
        "harness.csv_bytes": counts["harness.write_results.bytes"],
        "harness.load_classification_csv.s": inclusive["harness.load_classification_csv"],
        "harness.load_classification_csv.rows": counts["harness.load_classification_csv.rows"],
        "harness.run_classification.self_s": self_time["harness.run_classification"],
        "oracle.exact_top_k.s": inclusive["oracle.exact_top_k"],
        "oracle.exact_top_k.calls": counts["oracle.exact_top_k.calls"],
        "cli.import_s": ratio(sum(r["import_s"] for r in records), len(records)),
        "cli.cpu_s": cpu_s,
        "cli.cpu_util": ratio(cpu_s, main_s),
    })

    groups = defaultdict(float)
    for name, seconds in self_time.items():
        if name in SHARE_GROUPS:
            groups[SHARE_GROUPS[name]] += seconds
    total = sum(groups.values())
    shares = {group: ratio(seconds, total) for group, seconds in sorted(groups.items())}
    return m, dict(sorted(counts.items())), shares, cells
