"""The repository's benchmark: five workloads, end-to-end and per-layer.

See ``bench/README.md`` for the workloads, metrics and commands.
"""
