"""End-to-end benchmark of the repo, driven from outside ``src/``.

``python -m benchmarks.e2e`` runs six workloads (see ``README.md`` beside
this file and ``BENCHMARK.json`` at the repo root), each in a fresh child
process, through the program's public entry points only.  ``--trace``
adds a pass with boundary spans installed from this directory, which
attributes each workload's wall-clock to the repo's layers.
"""
