"""Run every experiment harness and print the full reproduction report.

``python -m repro.harness.report`` regenerates every table and figure of
the paper in sequence (plus the design-choice ablations). The model-zoo
networks are only priced, never filled with weights, so the whole report
takes seconds. ``tests/golden/report.txt`` pins its output.
"""

from __future__ import annotations

import time

from repro.harness import (
    ablations,
    fig2_dma,
    fig6_network,
    fig7_allreduce,
    fig8_alexnet_layers,
    fig9_vgg_layers,
    fig10_scalability,
    fig11_comm_ratio,
    inference_throughput,
    memory_budget,
    naive_port,
    roofline_report,
    straggler_study,
    table1_specs,
    table2_vgg_conv,
    table3_throughput,
)

#: (name, module) in paper order, then the extensions.
SECTIONS = (
    ("Sec. III motivation (naive port)", naive_port),
    ("Table I", table1_specs),
    ("Fig. 2", fig2_dma),
    ("Fig. 6", fig6_network),
    ("Fig. 7", fig7_allreduce),
    ("Table II", table2_vgg_conv),
    ("Fig. 8", fig8_alexnet_layers),
    ("Fig. 9", fig9_vgg_layers),
    ("Table III", table3_throughput),
    ("Fig. 10", fig10_scalability),
    ("Fig. 11", fig11_comm_ratio),
    ("Ablations", ablations),
    ("Extension: inference throughput", inference_throughput),
    ("Extension: memory budget", memory_budget),
    ("Extension: straggler study", straggler_study),
    ("Extension: roofline attribution", roofline_report),
)


def run(verbose: bool = True) -> dict[str, str]:
    """Render every section; returns {section: text}."""
    out: dict[str, str] = {}
    for name, module in SECTIONS:
        t0 = time.perf_counter()
        text = module.render()
        dt = time.perf_counter() - t0
        out[name] = text
        if verbose:
            print(f"\n{'=' * 72}\n{name}  (generated in {dt:.1f}s)\n{'=' * 72}")
            print(text)
    return out


def main() -> None:  # pragma: no cover
    run()


if __name__ == "__main__":  # pragma: no cover
    main()
