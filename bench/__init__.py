"""The repository benchmark: five standing workloads, host and simulated
end-to-end metrics, and an outside-in per-layer trace.

``python -m bench run --seed N`` runs everything and checks the outputs;
``python -m bench compare A.json B.json`` applies the bounds of
``BENCHMARK.json``.  See bench/README.md.
"""
