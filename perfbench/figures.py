#!/usr/bin/env python3
"""Print the bound-quality figures of the README's reference table.

    python3 perfbench/figures.py

Runs the closed-form calls of ``ensemble-search`` once, with the budgets and
search seeds of the workload, and prints each value next to its exact one.
"""

from run import load_entkit  # first: it pins BLAS to one thread before numpy loads

import ensemble_search as es
import reference as ref


def main():
    ek = load_entkit()
    m = ek.measures
    inp = es.build(ek, 1, None)
    rows = []
    for i, (p, st) in enumerate(zip(es.WERNER_P, inp["werner"])):
        rep = m.eof_upper(st, seed=11 + i, **es.WERNER_BUDGET)
        rows.append((f"Werner p={p}", rep.value, ref.wootters_eof(st.mat), "Wootters"))
    for i, (f, st) in enumerate(zip(es.ISOTROPIC_F, inp["isotropic"])):
        rep = m.eof_upper(st, seed=21 + i, **es.ISOTROPIC_BUDGET)
        rows.append((f"isotropic d=3, F={f}", rep.value, ref.tv_isotropic_eof(f, 3),
                     "Terhal-Vollbrecht"))
    rows.append(("Bell", m.eof_upper(inp["bell"]).value, 1.0, "Wootters"))
    print("| state | `eof_upper` | exact EOF | exact / bound |")
    print("| --- | --- | --- | --- |")
    for label, value, exact, source in rows:
        print(f"| {label} | {value:.4f} | {exact:.4f} ({source}) | {exact / value:.3f} |")
    print(f"\neof_tightness = {sum(e / v for _, v, e, _ in rows) / len(rows):.4f}")
    w9 = inp["werner"][es.WERNER_P.index(0.9)]
    print(f"dcoef_sup(werner(0.9)) = {m.dcoef_sup(w9, seed=12, **es.WERNER_BUDGET).value:.4f}")


if __name__ == "__main__":
    main()
