#!/usr/bin/env python3
"""Inject measured results from results/*.tsv into EXPERIMENTS.md.

Each `<!-- MARKER -->` placeholder is replaced by a fenced excerpt of the
corresponding TSV (full table when small, informative slice when large).
Idempotent: reruns replace previous injections (delimited by marker
comments).
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"
DOC = ROOT / "EXPERIMENTS.md"


def tsv_rows(name):
    path = RESULTS / f"{name}.tsv"
    if not path.exists():
        return None
    return [line.rstrip("\n") for line in path.read_text().splitlines() if line.strip()]


def fenced(rows):
    return "```\n" + "\n".join(rows) + "\n```"


def full(name, limit=None):
    rows = tsv_rows(name)
    if rows is None:
        return "_results TSV not found — run the harness first._"
    if limit and len(rows) > limit + 1:
        kept = rows[: limit + 1]
        kept.append(f"... ({len(rows) - 1 - limit} more rows in results/{name}.tsv)")
        return fenced(kept)
    return fenced(rows)


def filtered(name, pred, note):
    rows = tsv_rows(name)
    if rows is None:
        return "_results TSV not found — run the harness first._"
    kept = [rows[0]] + [r for r in rows[1:] if pred(r.split("\t"))]
    out = fenced(kept)
    if note:
        out += f"\n_{note}_"
    return out


def high_recall_slice(name, recall_col, method_col):
    """Best (cheapest) row per method with recall >= 0.9, else the row with
    max recall — a compact who-wins summary of a sweep TSV."""
    rows = tsv_rows(name)
    if rows is None:
        return "_results TSV not found — run the harness first._"
    header = rows[0].split("\t")
    best = {}
    for r in rows[1:]:
        cells = r.split("\t")
        key = tuple(cells[i] for i in range(method_col))  # dataset/tier prefix
        method = cells[method_col]
        recall = float(cells[recall_col])
        entry = best.setdefault((key, method), None)
        ok = recall >= 0.9
        if entry is None:
            best[(key, method)] = (ok, recall, cells)
        else:
            e_ok, e_recall, e_cells = entry
            if ok and not e_ok:
                best[(key, method)] = (ok, recall, cells)
            elif ok == e_ok:
                if not ok and recall > e_recall:
                    best[(key, method)] = (ok, recall, cells)
                # for ok rows keep the first (cheapest L) — rows are L-ascending
    out_rows = ["\t".join(header)]
    for (_key, _method), (_ok, _recall, cells) in sorted(best.items()):
        out_rows.append("\t".join(cells))
    return (
        fenced(out_rows)
        + "\n_One row per (workload, method): the cheapest sweep point reaching "
        + "recall ≥ 0.9, or the best recall achieved. Full series in "
        + f"results/{name}.tsv._"
    )


SECTIONS = {
    "FIG01": lambda: full("fig01_bsf_race"),
    "FIG04": lambda: full("fig04_complexity"),
    "FIG05": lambda: high_recall_slice("fig05_nd", 4, 2),
    "TABLE1": lambda: full("table1_pruning"),
    "FIG06": lambda: full("fig06_ss"),
    "TABLE2": lambda: full("table2_ss_indexing"),
    "FIG07": lambda: full("fig07_index_time"),
    "FIG08": lambda: full("fig08_index_memory", limit=16),
    "FIG09": lambda: full("fig09_index_size", limit=16),
    "FIG10": lambda: full("fig10_query_memory"),
    "FIG11": lambda: full("fig11_beam_width"),
    "FIG12": lambda: high_recall_slice("fig12_search_1m", 4, 2),
    "FIG13": lambda: high_recall_slice("fig13_search_25g", 4, 2)
    + "\n\nPower-law distributions (13e/13f):\n\n"
    + high_recall_slice("fig13ef_powerlaw", 4, 2),
    "FIG14": lambda: high_recall_slice("fig14_search_100g", 4, 2),
    "FIG15": lambda: high_recall_slice("fig15_hardness", 3, 1),
    "FIG16": lambda: high_recall_slice("fig16_search_1b", 2, 0),
    "FIG17": lambda: full("fig17_impl_opt"),
    "FIG18": lambda: full("fig18_recommend"),
    "TABLE3": lambda: full("table3_summary"),
}


def main():
    text = DOC.read_text()
    for marker, render in SECTIONS.items():
        body = render()
        block = f"<!-- {marker} -->\n{body}\n<!-- /{marker} -->"
        # Replace either a bare marker or a previously injected block.
        injected = re.compile(
            rf"<!-- {marker} -->.*?<!-- /{marker} -->", re.DOTALL
        )
        if injected.search(text):
            text = injected.sub(block, text)
        else:
            text = text.replace(f"<!-- {marker} -->", block)
    DOC.write_text(text)
    print(f"updated {DOC}")


if __name__ == "__main__":
    sys.exit(main())
