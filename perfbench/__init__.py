"""The repository benchmark: three workloads, one command.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload against the code under ``src/`` of the checkout it
sits in, checks every result, and prints one JSON result line.  See
``perfbench/README.md`` for the workloads, the metrics and the layer
ledger.
"""
